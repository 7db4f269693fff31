package sim

import (
	"math"
	"math/bits"
	"slices"
	"testing"

	"pka/internal/stats"
)

// readyWarps lists the set bits of the SM's ready set.
func readyWarps(sm *smState) []int {
	var out []int
	for wi, m := range sm.ready {
		for ; m != 0; m &= m - 1 {
			out = append(out, wi<<6+bits.TrailingZeros64(m))
		}
	}
	return out
}

// walk is the cycle loop's issue walk over r: the ready slots in
// round-robin order from rrPtr, at most budget of them, clearing each one
// it yields as the loop does.
func walk(r readySet, rrPtr, budget int) []int {
	var out []int
	for k := 0; k <= len(r) && budget > 0; k++ {
		base, m := r.rotWord(rrPtr, k)
		for ; m != 0 && budget > 0; m &= m - 1 {
			idx := base + bits.TrailingZeros64(m)
			r.clear(idx)
			out = append(out, idx)
			budget--
		}
	}
	return out
}

// TestReadyWalkOrder pins the walk to the linear scan's order: the ready
// indices of [rrPtr, n) then [0, rrPtr), cut off at the budget, for every
// rrPtr on one-word, full-word, ragged two-word and three-word sets.
func TestReadyWalkOrder(t *testing.T) {
	rng := stats.NewRNG(25)
	for _, n := range []int{5, 64, 125, 130} {
		for _, density := range []int{0, 1, 8, 32, 56, 64} { // ready in 64ths
			for rrPtr := 0; rrPtr < n; rrPtr++ {
				r := make(readySet, (n+63)/64)
				for i := 0; i < n; i++ {
					if rng.Intn(64) < density {
						r.set(i)
					}
				}
				var order []int
				for j := 0; j < n; j++ {
					if idx := (rrPtr + j) % n; r[idx>>6]>>(uint(idx)&63)&1 == 1 {
						order = append(order, idx)
					}
				}
				for budget := 1; budget <= 5; budget++ {
					want := order[:min(budget, len(order))]
					if got := walk(append(readySet(nil), r...), rrPtr, budget); !slices.Equal(got, want) {
						t.Fatalf("n=%d rrPtr=%d budget=%d: walk %v, want %v", n, rrPtr, budget, got, want)
					}
				}
			}
		}
	}
}

func wantReady(t *testing.T, sm *smState, want ...int) {
	t.Helper()
	got := readyWarps(sm)
	if len(got) != len(want) {
		t.Fatalf("ready = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ready = %v, want %v", got, want)
		}
	}
}

// The wheel takes wakes up to now+wheelSize-1 and the heap everything
// later; either way the warp turns ready on exactly its cycle. now sits
// mid-ring so the wheel-side wake lands in a wrapped bucket.
func TestWheelHorizonBoundary(t *testing.T) {
	var sm smState
	sm.reset(2, 4)
	const now = 1000
	sm.drain(now)
	sm.sleep(now+wheelSize-1, now, 3)
	if sm.occ == 0 || len(sm.far) != 0 {
		t.Fatalf("wake at now+wheelSize-1: occ=%#x heap=%d, want it in the wheel", sm.occ, len(sm.far))
	}
	sm.sleep(now+wheelSize, now, 5)
	if len(sm.far) != 1 {
		t.Fatalf("wake at now+wheelSize: heap holds %d, want it in the heap", len(sm.far))
	}
	if got := sm.nextWake(now); got != now+wheelSize-1 {
		t.Fatalf("nextWake = %d, want %d", got, now+wheelSize-1)
	}
	sm.drain(now + wheelSize - 2)
	wantReady(t, &sm)
	sm.drain(now + wheelSize - 1)
	wantReady(t, &sm, 3)
	if got := sm.nextWake(now + wheelSize - 1); got != now+wheelSize {
		t.Fatalf("nextWake with only the heap left = %d, want %d", got, now+wheelSize)
	}
	sm.drain(now + wheelSize)
	wantReady(t, &sm, 3, 5)
	if got := sm.nextWake(now + wheelSize); got != math.MaxInt64 {
		t.Fatalf("nextWake with nothing asleep = %d, want MaxInt64", got)
	}
}

// After an idle jump of more than a wheel revolution every bucket is due,
// including ones a partial mask starting at lastDrain+1 would wrap past.
func TestWheelDrainAfterLongJump(t *testing.T) {
	var sm smState
	sm.reset(1, 130) // three words per bucket, the last one ragged
	const now = 77
	sm.drain(now)
	sm.sleep(now+1, now, 0)
	sm.sleep(now+40, now, 64)
	sm.sleep(now+wheelSize-1, now, 129)
	sm.sleep(now+5000, now, 128)
	sm.drain(now + 3*wheelSize + 9)
	wantReady(t, &sm, 0, 64, 129)
	if sm.occ != 0 {
		t.Fatalf("occ = %#x after a full drain", sm.occ)
	}
	for i, w := range sm.buckets {
		if w != 0 {
			t.Fatalf("wheel word %d = %#x after a full drain", i, w)
		}
	}
	if got := sm.nextWake(now + 3*wheelSize + 9); got != now+5000 {
		t.Fatalf("nextWake = %d, want the heap's %d", got, now+5000)
	}
}

// A drain with now == lastDrain (every SM's first pass, at cycle 0, is
// one) has an empty (lastDrain, now] and must wake nothing.
func TestWheelTwoDrainsOneCycle(t *testing.T) {
	var sm smState
	sm.reset(1, 8)
	const now = 63
	sm.drain(now)
	sm.sleep(now+1, now, 2)
	sm.sleep(now+wheelSize-1, now, 6) // bucket (now-1)&63: the one just behind now
	sm.drain(now)
	wantReady(t, &sm)
	if got := sm.nextWake(now); got != now+1 {
		t.Fatalf("nextWake = %d, want %d", got, now+1)
	}
	sm.drain(now + 1)
	sm.drain(now + 1)
	wantReady(t, &sm, 2)
	if got := sm.nextWake(now + 1); got != now+wheelSize-1 {
		t.Fatalf("nextWake = %d, want %d", got, now+wheelSize-1)
	}
}

// TestWheelMatchesWakeTable runs the wheel against the obvious model — a
// table of each slot's wake cycle — under random stalls on both sides of
// the horizon and random clock advances, some longer than a revolution, at
// warp-level sizes (one- to four-word SMs) and device-level ones (the SM
// counts of the catalogue devices and a 130-SM variant).
func TestWheelMatchesWakeTable(t *testing.T) {
	for _, nw := range []int{5, 64, 125, 200, 30, 46, 80, 130} {
		var w wheel
		w.reset(nw)
		rng := stats.NewRNG(uint64(nw))
		wakeAt := make([]int64, nw) // 0 = ready or never slept
		var now int64
		w.drain(now)
		for i := 0; i < nw; i++ {
			wakeAt[i] = now + 20
			w.sleep(now+20, now, int32(i))
		}
		for step := 0; step < 20000; step++ {
			switch r := rng.Intn(20); {
			case r == 0:
				now += int64(rng.Intn(4 * wheelSize))
			case r < 15:
				now += int64(rng.Intn(3)) // 0 = a second pass on the same cycle
			default:
				now += int64(rng.Intn(wheelSize))
			}
			w.drain(now)
			next := int64(math.MaxInt64)
			for i, at := range wakeAt {
				isReady := w.ready[i>>6]>>(uint(i)&63)&1 == 1
				if isReady != (at <= now) {
					t.Fatalf("nw=%d step %d cycle %d: slot %d ready=%v, wakes at %d", nw, step, now, i, isReady, at)
				}
				if at > now && at < next {
					next = at
				}
			}
			if got := w.nextWake(now); got != next {
				t.Fatalf("nw=%d step %d cycle %d: nextWake = %d, want %d", nw, step, now, got, next)
			}
			// Issue up to four ready slots from a moving rrPtr, each
			// stalling for a latency drawn around the horizon.
			for _, idx := range walk(w.ready, step%nw, 4) {
				lat := int64(1 + rng.Intn(8))
				switch rng.Intn(4) {
				case 0:
					lat = int64(wheelSize - 2 + rng.Intn(4))
				case 1:
					lat = int64(100 + rng.Intn(500))
				}
				wakeAt[idx] = now + lat
				w.sleep(now+lat, now, int32(idx))
			}
		}
	}
}
