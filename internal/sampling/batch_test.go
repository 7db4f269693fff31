package sampling

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pka/internal/artifact"
	"pka/internal/gpu"
	"pka/internal/obs"
	"pka/internal/parallel"
	"pka/internal/pkp"
	"pka/internal/trace"
)

// entryPath is where store keeps the entry keyed key.
func entryPath(store *artifact.Store, key string) string {
	return filepath.Join(store.Dir(), key[:2], key+".bin")
}

// packStudy is studyLaunches as one ModeFull batch over one store: five
// launches, four distinct outcomes (launches 0 and 3 are one kernel).
type packStudy struct {
	t       *testing.T
	dev     gpu.Device
	task    KernelTask
	kernels []trace.KernelDesc
	keys    []string
	store   *artifact.Store
	width   int
}

func newPackStudy(t *testing.T, width int) *packStudy {
	t.Helper()
	store, err := artifact.Open(t.TempDir(), artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	s := &packStudy{t: t, dev: gpu.VoltaV100(), task: KernelTask{Mode: ModeFull}, store: store, width: width}
	s.kernels, _ = studyLaunches(t)
	s.keys = taskKeys(s.dev, s.task, s.kernels)
	return s
}

// packPath is where the store keeps the study's pack.
func (s *packStudy) packPath() string {
	return entryPath(s.store, (&batch{keys: s.keys}).key())
}

// run is the batch on e (a fresh Exec over the store when nil): the outcomes,
// the tier every task was served at, and the Exec.
func (s *packStudy) run(e *Exec) ([]KernelOutcome, map[string]int, *Exec) {
	s.t.Helper()
	if e == nil {
		e = NewExec(parallel.NewScheduler(s.width), s.store)
	}
	fr := NewFlightRecorder()
	outs, err := e.RunKernels(s.dev, RiderPass{Task: s.task, Kernels: s.kernels, Obs: func(i int) TaskObs {
		return TaskObs{Flight: fr, Phase: "t", Index: i}
	}}, nil)
	if err != nil {
		s.t.Fatal(err)
	}
	return outs, fr.TierCounts(), e
}

// TestPackServesWarmBatch: a cold batch leaves its pack beside the per-key
// entries; a fresh Exec then serves the whole batch from that one entry — no
// per-key read, no write — and the same Exec again from memory without asking
// for the pack at all. Without the pack the per-key entries serve and the
// pack comes back byte for byte; without a per-key entry the pack serves.
func TestPackServesWarmBatch(t *testing.T) {
	for _, width := range []int{1, 4} {
		s := newPackStudy(t, width)
		cold, tiers, e := s.run(nil)
		if !reflect.DeepEqual(tiers, map[string]int{"sim": 4, "mem": 1}) {
			t.Fatalf("width %d: cold tiers %v", width, tiers)
		}
		if st, packs := s.store.Stats(), e.packs.Stats(); st.Writes != 4 || packs.Writes != 1 || packs.Misses != 1 || packs.Hits != 0 {
			t.Fatalf("width %d: cold run made %d outcome writes, pack handle %+v", width, st.Writes, packs)
		}
		pack, err := os.ReadFile(s.packPath())
		if err != nil {
			t.Fatalf("width %d: cold run left no pack: %v", width, err)
		}

		before := s.store.Stats()
		warm, tiers, e := s.run(nil)
		if !reflect.DeepEqual(warm, cold) || !reflect.DeepEqual(tiers, map[string]int{"disk": 4, "mem": 1}) {
			t.Errorf("width %d: warm outcomes %+v, tiers %v; cold %+v", width, warm, tiers, cold)
		}
		if st, packs := s.store.Stats(), e.packs.Stats(); st.Hits != 0 || st.Misses != before.Misses || st.Writes != 4 ||
			packs.Hits != 1 || packs.Misses != 0 || packs.Writes != 0 {
			t.Errorf("width %d: warm run read per-key entries (%+v) or not exactly one pack (%+v)", width, st, packs)
		}
		// The lazy read: a batch the mem tier serves whole never asks.
		again, tiers, _ := s.run(e)
		if packs := e.packs.Stats(); !reflect.DeepEqual(again, cold) || tiers["mem"] != 5 || packs.Hits+packs.Misses != 1 || packs.Writes != 0 {
			t.Errorf("width %d: repeat on the same Exec: tiers %v, pack handle %+v", width, tiers, packs)
		}

		if err := os.Remove(s.packPath()); err != nil {
			t.Fatal(err)
		}
		perKey, tiers, e := s.run(nil)
		if !reflect.DeepEqual(perKey, cold) || !reflect.DeepEqual(tiers, map[string]int{"disk": 4, "mem": 1}) {
			t.Errorf("width %d: without the pack: outcomes %+v, tiers %v", width, perKey, tiers)
		}
		if st, packs := s.store.Stats(), e.packs.Stats(); st.Hits != 4 || packs.Misses != 1 || packs.Writes != 1 {
			t.Errorf("width %d: without the pack: %d per-key hits, pack handle %+v", width, st.Hits, packs)
		}
		if now, _ := os.ReadFile(s.packPath()); !bytes.Equal(now, pack) {
			t.Errorf("width %d: the rewritten pack differs from the cold run's", width)
		}

		if err := os.Remove(entryPath(s.store, s.keys[1])); err != nil {
			t.Fatal(err)
		}
		packed, tiers, _ := s.run(nil)
		if st := s.store.Stats(); !reflect.DeepEqual(packed, cold) || tiers["sim"] != 0 || st.Hits != 4 || st.Writes != 4 {
			t.Errorf("width %d: without a per-key entry: tiers %v, store %+v", width, tiers, st)
		}
	}
}

// poolEvents records the pool events of n tasks in order — q(ueued),
// s(tarted), d(one) — and closes settled at the n-th TaskDone.
type poolEvents struct {
	n       int
	settled chan struct{}

	mu     sync.Mutex
	events []byte
}

func (o *poolEvents) add(ev byte) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.events = append(o.events, ev)
	if ev == 'd' && bytes.Count(o.events, []byte{'d'}) == o.n {
		close(o.settled)
	}
}

func (o *poolEvents) TaskQueued()  { o.add('q') }
func (o *poolEvents) TaskStarted() { o.add('s') }
func (o *poolEvents) TaskDone()    { o.add('d') }

// observed runs f, which runs n tasks, with a poolEvents installed as the
// pool observer, and returns their events once the last is reported done (a
// worker reports it just after SchedMap returns).
func observed(n int, f func()) string {
	o := &poolEvents{n: n, settled: make(chan struct{})}
	parallel.SetObserver(o)
	defer parallel.SetObserver(nil)
	f()
	select {
	case <-o.settled:
	case <-time.After(5 * time.Second):
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return string(o.events)
}

// TestPackResolvesInline: a batch the mem tier serves whole, or whose pack is
// on disk, runs on the calling goroutine — each task queued, started and done
// before the next is queued, nothing handed to the scheduler — and a batch
// with a task in neither, or with a banked task, goes to the scheduler whole:
// at width 1 every task is queued before the first starts. Either way the
// tiers and the store's per-key and pack counts (cumulative over the study's
// store: its cold batch read four keys and wrote four) are what scheduling
// every batch gives.
func TestPackResolvesInline(t *testing.T) {
	inline := func(n int) string { return strings.Repeat("qsd", n) }
	for _, width := range []int{1, 4} {
		scheduled := func(events string, n int) bool {
			if width == 1 {
				return events == strings.Repeat("q", n)+strings.Repeat("sd", n)
			}
			return len(events) == 3*n && strings.Count(events, "q") == n && strings.Count(events, "s") == n
		}
		s := newPackStudy(t, width)
		n := len(s.kernels)
		if events := observed(n, func() { s.run(nil) }); !scheduled(events, n) {
			t.Errorf("width %d: the cold batch ran as %q", width, events)
		}

		var tiers map[string]int
		var e *Exec
		if events := observed(n, func() { _, tiers, e = s.run(nil) }); events != inline(n) {
			t.Errorf("width %d: the pack-served batch ran as %q, want inline", width, events)
		}
		st, packs := s.store.Stats(), e.packs.Stats()
		if !reflect.DeepEqual(tiers, map[string]int{"disk": 4, "mem": 1}) || st.Hits != 0 || st.Misses != 4 || st.Writes != 4 ||
			packs.Hits != 1 || packs.Misses != 0 || packs.Writes != 0 {
			t.Errorf("width %d: pack-served batch: tiers %v, store %+v, pack handle %+v", width, tiers, st, packs)
		}
		if events := observed(n, func() { _, tiers, _ = s.run(e) }); events != inline(n) {
			t.Errorf("width %d: the mem-whole batch ran as %q, want inline", width, events)
		}
		if packs := e.packs.Stats(); tiers["mem"] != n || packs.Hits != 1 || packs.Misses != 0 {
			t.Errorf("width %d: mem-whole batch: tiers %v, pack handle %+v", width, tiers, packs)
		}

		// One task in neither the mem tier nor a pack: the batch's pack is
		// read once, missed, and every task is scheduled.
		novel := s.kernels[1]
		novel.Seed++
		more := append(slices.Clone(s.kernels), novel)
		fr := NewFlightRecorder()
		if events := observed(n+1, func() {
			if _, err := e.RunKernels(s.dev, RiderPass{Task: s.task, Kernels: more, Obs: func(i int) TaskObs {
				return TaskObs{Flight: fr, Phase: "t", Index: i}
			}}, nil); err != nil {
				t.Fatal(err)
			}
		}); !scheduled(events, n+1) {
			t.Errorf("width %d: the batch with a novel task ran as %q", width, events)
		}
		st, packs = s.store.Stats(), e.packs.Stats()
		if tiers := fr.TierCounts(); !reflect.DeepEqual(tiers, map[string]int{"sim": 1, "mem": n}) ||
			st.Hits != 0 || st.Misses != 5 || st.Writes != 5 || packs.Hits != 1 || packs.Misses != 1 || packs.Writes != 1 {
			t.Errorf("width %d: batch with a novel task: tiers %v, store %+v, pack handle %+v", width, tiers, st, packs)
		}

		// A pass whose outcomes an earlier pass banked is scheduled, so its
		// tasks persist them in parallel.
		b := newPackStudy(t, width)
		_, reps := studyLaunches(t)
		pks := SampledTask(0, pkp.Options{}, false)
		bank := NewBank(b.dev, RiderPass{Task: pks, Kernels: reps})
		be := NewExec(parallel.NewScheduler(width), b.store)
		if _, err := be.RunKernels(b.dev, RiderPass{Task: b.task, Kernels: b.kernels}, bank); err != nil {
			t.Fatal(err)
		}
		fr = NewFlightRecorder()
		if events := observed(len(reps), func() {
			if _, err := be.RunKernels(b.dev, RiderPass{Task: pks, Kernels: reps, Obs: func(i int) TaskObs {
				return TaskObs{Flight: fr, Phase: "pks", Index: i}
			}}, bank); err != nil {
				t.Fatal(err)
			}
		}); !scheduled(events, len(reps)) {
			t.Errorf("width %d: the bank-served pass ran as %q", width, events)
		}
		st, packs = b.store.Stats(), be.packs.Stats()
		if tiers := fr.TierCounts(); !reflect.DeepEqual(tiers, map[string]int{"sim": 2}) || bank.Len() != 0 ||
			st.Hits != 0 || st.Misses != 4 || st.Writes != 6 || packs.Hits != 0 || packs.Misses != 1 || packs.Writes != 2 {
			t.Errorf("width %d: bank-served pass: tiers %v, %d left banked, store %+v, pack handle %+v", width, tiers, bank.Len(), st, packs)
		}
	}
}

// TestPackCorruptFallsBack: a pack the store's checksum refuses, or one that
// is framed right but is not this batch's outcomes, is counted corrupt, the
// per-key entries serve, and the batch writes the good pack back.
func TestPackCorruptFallsBack(t *testing.T) {
	for _, width := range []int{1, 4} {
		s := newPackStudy(t, width)
		cold, _, _ := s.run(nil)
		good, err := os.ReadFile(s.packPath())
		if err != nil {
			t.Fatal(err)
		}
		packKey := (&batch{keys: s.keys}).key()
		put := func(payload []byte) {
			if err := s.store.View().Put(packKey, payload); err != nil {
				t.Fatal(err)
			}
		}
		for what, corrupt := range map[string]func(){
			"flipped byte": func() {
				bad := bytes.Clone(good)
				bad[len(bad)/2] ^= 0x40
				if err := os.WriteFile(s.packPath(), bad, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			"one outcome short": func() { put(encodePack(cold[:len(cold)-1])) },
			"unknown flag bits": func() {
				payload := encodePack(cold)
				payload[2*outcomeSize+32] = 0xFF
				put(payload)
			},
		} {
			corrupt()
			before := s.store.Stats()
			got, tiers, e := s.run(nil)
			if !reflect.DeepEqual(got, cold) || !reflect.DeepEqual(tiers, map[string]int{"disk": 4, "mem": 1}) {
				t.Errorf("width %d, %s: outcomes %+v, tiers %v", width, what, got, tiers)
			}
			if packs := e.CacheStats()["batch"]; packs != (obs.CacheCounts{Misses: 1, Corrupt: 1}) {
				t.Errorf("width %d, %s: batch family %+v, want one corrupt miss", width, what, packs)
			}
			if st := s.store.Stats(); st.Hits-before.Hits != 4 || st.Writes != before.Writes {
				t.Errorf("width %d, %s: %d per-key hits, %d outcome writes", width, what, st.Hits-before.Hits, st.Writes-before.Writes)
			}
			if now, _ := os.ReadFile(s.packPath()); !bytes.Equal(now, good) {
				t.Errorf("width %d, %s: the bad pack was not overwritten with the good one", width, what)
			}
		}
	}
}

// TestPackSkipped: a batch of one task has no pack (it would be its per-key
// entry again).
func TestPackSkipped(t *testing.T) {
	s := newPackStudy(t, 4)
	for _, e := range []*Exec{NewExec(parallel.NewScheduler(s.width), s.store), NewExec(nil, s.store)} { // cold, then warm
		if _, err := e.RunKernels(s.dev, RiderPass{Task: s.task, Kernels: s.kernels[:1]}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.store.Stats(); st.Entries != 1 || st.Hits != 1 {
		t.Errorf("a batch of one left %d entries and scored %d per-key hits, want 1 and 1", st.Entries, st.Hits)
	}
}

// FuzzDecodePack: a pack is persisted bytes; whatever they are the decoder
// must not panic, and whatever it accepts is whole outcomes that re-encode to
// the input exactly.
func FuzzDecodePack(f *testing.F) {
	good := encodePack([]KernelOutcome{
		{ProjCycles: 1 << 40, SimWarpInstrs: 7, ThreadInstrs: 3.25, DRAMUtil: 0.875, Capped: true},
		{ProjCycles: -1, Truncated: true},
	})
	f.Add(good)
	f.Add(good[:outcomeSize])
	f.Add(good[:len(good)-1])
	f.Add(append(bytes.Clone(good[:outcomeSize+32]), 0xFF))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		outs := decodePack(b)
		if outs == nil {
			return
		}
		if len(b)%outcomeSize != 0 || len(outs) != len(b)/outcomeSize {
			t.Fatalf("accepted %d bytes as %d outcomes", len(b), len(outs))
		}
		if got := encodePack(outs); !bytes.Equal(got, b) {
			t.Fatalf("decoded %x, re-encoded %x", b, got)
		}
	})
}
