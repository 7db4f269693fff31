package sim

import (
	"math"
	"math/bits"
)

// This file holds the event-driven scheduler's one data structure, a timing
// wheel over n slots, used at two levels so that finding the few SMs with
// something to do on a cycle, and in each the ≤SchedulersPerSM warps that
// can issue, costs no scan over every SM or every warp slot:
//
//   - each Simulator keeps a wheel over its SMs (Simulator.due): an SM is
//     ready while it needs a pass, and sleeps until its next event otherwise;
//   - each SM keeps a wheel over its warp slots (smState.wheel): a warp is
//     ready while its stall has expired, and sleeps until it does otherwise.
//
// A wheel is a readySet bitset of ready slots, wheelSize bucket bitsets of
// the same shape for near wakes, so advancing the clock ORs whole buckets
// into the ready set, and a wakeHeap of far sleepers. The next-event time is
// the earlier of the first occupied bucket (one rotate and a trailing-zero
// count on the occupancy mask) and the heap top. Everything is sized once
// per kernel (a slot occupies at most one heap entry, one wheel bit and one
// ready bit), so the loop stays allocation-free.
//
// Both levels are read a word at a time in index order — the due SMs from 0,
// an SM's ready warps rotated to start at rrPtr (readySet.rotWord) — which is
// the order the linear scan visited them in (ref_test.go keeps that scan).

// wheelSize is the wheel's horizon. Stalls shorter than this (ALU, tensor,
// shared memory, L1/scoreboard — the overwhelming majority of issues, and so
// of SM wakes) are parked in an O(1) bucket ring instead of the
// heap; only far wakes (L2 and DRAM round trips) pay the O(log n) heap. It
// equals the word size so bucket occupancy is one uint64.
const wheelSize = 64

type wheel struct {
	ready     readySet
	far       wakeHeap
	buckets   []uint64 // wheelSize buckets, each a len(ready)-word bitset
	occ       uint64   // bit b set = bucket b holds at least one slot
	lastDrain int64    // cycle up to which buckets have been emptied
}

// reset sizes the wheel for n slots and empties it, reusing the previous
// kernel's backing arrays when they are large enough.
func (w *wheel) reset(n int) {
	words := (n + 63) / 64
	w.ready = zeroed(w.ready, words)
	w.buckets = zeroed(w.buckets, wheelSize*words)
	if cap(w.far) < n {
		w.far = make(wakeHeap, 0, n)
	}
	w.far = w.far[:0]
	w.occ, w.lastDrain = 0, 0
}

// reset sizes the SM for a kernel that keeps slots blocks of wpb warps
// resident and empties every structure.
func (sm *smState) reset(slots, wpb int) {
	sm.warps = zeroed(sm.warps, slots*wpb)
	sm.warpsLeft = zeroed(sm.warpsLeft, slots)
	sm.wheel.reset(slots * wpb)
	sm.resident, sm.rrPtr = 0, 0
}

// zeroed returns an all-zero slice of length n, in s's array if it fits.
func zeroed[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// sleep parks slot idx until cycle at (> now). Wake order within a cycle
// is irrelevant — drain moves every due slot to the ready set before any
// is visited — so a bucket is a set, not a list.
func (w *wheel) sleep(at, now int64, idx int32) {
	if at-now < wheelSize {
		b := int(at & (wheelSize - 1))
		w.buckets[b*len(w.ready)+int(idx>>6)] |= 1 << (uint(idx) & 63)
		w.occ |= 1 << uint(b)
		return
	}
	w.far.push(at, idx)
}

// drain moves every slot due at or before now into the ready set. Bucket
// entries always satisfy at ∈ (lastDrain, lastDrain+wheelSize) — sleeps
// only happen after a drain at the same cycle — so those 63 cycles map to
// 63 distinct buckets and the due ones are exactly the buckets of
// (lastDrain, now]: a rotated run of now-lastDrain mask bits, or every
// bucket after a longer gap.
func (w *wheel) drain(now int64) {
	due := ^uint64(0)
	if n := now - w.lastDrain; n < wheelSize {
		due = bits.RotateLeft64(1<<uint(n)-1, int((w.lastDrain+1)&(wheelSize-1)))
	}
	due &= w.occ
	w.occ &^= due
	words := len(w.ready)
	for ; due != 0; due &= due - 1 {
		bucket := w.buckets[bits.TrailingZeros64(due)*words:][:words]
		for i, m := range bucket {
			w.ready[i] |= m
			bucket[i] = 0
		}
	}
	w.lastDrain = now
	for len(w.far) > 0 && w.far[0].at <= now {
		w.ready.set(int(w.far.pop().idx))
	}
}

// nextWake returns the earliest pending wake time after now, or
// math.MaxInt64 when no slot is sleeping. It runs right after drain(now),
// so the buckets hold only cycles now+1 .. now+wheelSize-1: rotating the
// occupancy mask to put now+1's bucket at bit 0 makes the first occupied
// bucket's distance a trailing-zero count.
func (w *wheel) nextWake(now int64) int64 {
	min := int64(math.MaxInt64)
	if w.occ != 0 {
		rot := bits.RotateLeft64(w.occ, -int((now+1)&(wheelSize-1)))
		min = now + 1 + int64(bits.TrailingZeros64(rot))
	}
	if len(w.far) > 0 && w.far[0].at < min {
		min = w.far[0].at
	}
	return min
}

// wakeEvent schedules one sleeping slot's return to the ready set.
type wakeEvent struct {
	at  int64 // cycle at which the slot is due
	idx int32 // slot index
}

// wakeHeap is a binary min-heap on wakeEvent.at. Wake order among equal
// cycles is irrelevant: all slots with at <= now are drained into the
// ready set before any is visited, and visiting order is the ready set's
// index order alone.
type wakeHeap []wakeEvent

// push inserts an event. The backing array is pre-sized to the slot count
// (a slot has at most one pending wake), so append never grows it.
func (h *wakeHeap) push(at int64, idx int32) {
	q := append(*h, wakeEvent{at: at, idx: idx})
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if q[p].at <= q[i].at {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
	*h = q
}

// pop removes and returns the earliest event. Callers check len > 0 first.
func (h *wakeHeap) pop() wakeEvent {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && q[r].at < q[l].at {
			m = r
		}
		if q[i].at <= q[m].at {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return top
}

// readySet is a bitset over a wheel's slots.
type readySet []uint64

func (r readySet) set(i int)   { r[i>>6] |= 1 << (uint(i) & 63) }
func (r readySet) clear(i int) { r[i>>6] &^= 1 << (uint(i) & 63) }

// any reports whether any slot is ready.
func (r readySet) any() bool {
	for _, w := range r {
		if w != 0 {
			return true
		}
	}
	return false
}

// rotWord returns step k of the walk over r rotated to start at from, as
// the index of the word's bit 0 and the word's ready bits on that step.
// Steps 0..len(r) visit from's word masked to bits >= from, the words after
// it wrapping around, and from's word masked to bits < from, so walking
// each step's bits upward yields the ready slots of [from, n) then [0,
// from): the round-robin order of the linear scan. A caller that only
// clears bits it has already yielded may read r as it goes.
func (r readySet) rotWord(from, k int) (base int, m uint64) {
	wi := from>>6 + k
	if wi >= len(r) {
		wi -= len(r)
	}
	m = r[wi]
	switch sh := uint(from) & 63; k {
	case 0:
		m = m >> sh << sh
	case len(r):
		m &= 1<<sh - 1
	}
	return wi << 6, m
}
