package sampling

import (
	"bytes"
	"crypto/sha256"
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

// packStudy is studyLaunches as a one-pass evaluation of ModeFull tasks over
// one store: five launches, four distinct outcomes (launches 0 and 3 are one
// kernel), its pack keyed as an evaluation keys it.
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

// open opens the pack of the study over kernels on e, keyed as an evaluation
// whose scan found their keys keys it.
func (s *packStudy) open(e *Exec, kernels []trace.KernelDesc) *Pack {
	return e.OpenPack(s.dev, nil, "study", nil, []KernelTask{s.task}, taskKeys(s.dev, s.task, kernels))
}

// packKey is the key of the study's own pack.
func (s *packStudy) packKey() string {
	return s.open(NewExec(nil, s.store), s.kernels).Key()
}

// packPath is where the store keeps the study's pack.
func (s *packStudy) packPath() string {
	return entryPath(s.store, s.packKey())
}

// evaluate is the one-pass evaluation over kernels on e, as core runs one:
// open the pack, bind the pass, run it, save the pack. It returns the
// outcomes and the tier every task was served at.
func (s *packStudy) evaluate(e *Exec, kernels []trace.KernelDesc) ([]KernelOutcome, map[string]int) {
	s.t.Helper()
	outs, fr := s.recorded(e, kernels)
	return outs, fr.TierCounts()
}

// recorded is evaluate returning the pass's flight recorder.
func (s *packStudy) recorded(e *Exec, kernels []trace.KernelDesc) ([]KernelOutcome, *FlightRecorder) {
	s.t.Helper()
	fr := NewFlightRecorder()
	pack := s.open(e, kernels)
	rp := RiderPass{Task: s.task, Kernels: kernels, Obs: func(i int) TaskObs {
		return TaskObs{Flight: fr, Phase: "t", Index: i}
	}}
	pack.Bind(s.dev, &rp)
	outs, err := e.RunKernels(s.dev, rp)
	if err != nil {
		s.t.Fatal(err)
	}
	pack.Save(nil, outs)
	return outs, fr
}

// run is the study on e (a fresh Exec over the store when nil): the outcomes,
// the tier every task was served at, and the Exec.
func (s *packStudy) run(e *Exec) ([]KernelOutcome, map[string]int, *Exec) {
	s.t.Helper()
	if e == nil {
		e = NewExec(parallel.NewScheduler(s.width), s.store)
	}
	outs, tiers := s.evaluate(e, s.kernels)
	return outs, tiers, e
}

// TestPackServesWarmBatch: a cold evaluation leaves its pack beside the
// per-key entries; a fresh Exec then serves the whole evaluation from that
// one entry — no per-key read, no write, every task disk, the duplicate
// launch too — and the same Exec again the same way, reading the pack and
// writing nothing. Without the pack the per-key entries serve and the pack
// comes back byte for byte; without a per-key entry the pack serves.
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
		if !reflect.DeepEqual(warm, cold) || !reflect.DeepEqual(tiers, map[string]int{"disk": 5}) {
			t.Errorf("width %d: warm outcomes %+v, tiers %v; cold %+v", width, warm, tiers, cold)
		}
		if st, packs := s.store.Stats(), e.packs.Stats(); st.Hits != 0 || st.Misses != before.Misses || st.Writes != 4 ||
			packs.Hits != 1 || packs.Misses != 0 || packs.Writes != 0 {
			t.Errorf("width %d: warm run read per-key entries (%+v) or not exactly one pack (%+v)", width, st, packs)
		}
		// The served pass left the mem tier empty, so the pack serves the
		// repeat too: read once more, nothing written.
		again, tiers, _ := s.run(e)
		if packs := e.packs.Stats(); !reflect.DeepEqual(again, cold) || !reflect.DeepEqual(tiers, map[string]int{"disk": 5}) ||
			packs.Hits != 2 || packs.Misses != 0 || packs.Writes != 0 {
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

// observed runs f, which runs n tasks through the pool (0: none), with a
// poolEvents installed as the pool observer, and returns their events once
// the last is reported done (a worker reports it just after SchedMap
// returns).
func observed(n int, f func()) string {
	o := &poolEvents{n: n, settled: make(chan struct{})}
	parallel.SetObserver(o)
	defer parallel.SetObserver(nil)
	f()
	if n > 0 {
		select {
		case <-o.settled:
		case <-time.After(5 * time.Second):
		}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return string(o.events)
}

// TestPackResolvesInline: a pass whose evaluation's pack serves is a copy and
// reaches no pool at all; a pass the mem tier serves whole (a storeless
// repeat) runs on the calling goroutine — each task queued, started and done
// before the next is queued, nothing handed to the scheduler — and a pass
// with a task in neither, or with a banked task, goes to the scheduler whole:
// at width 1 every task is queued before the first starts. Either way the
// tiers and the store's per-key and pack counts (cumulative over the study's
// store: its cold pass read four keys and wrote four) are what scheduling
// every pass gives.
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
			t.Errorf("width %d: the cold pass ran as %q", width, events)
		}

		var tiers map[string]int
		var e *Exec
		if events := observed(0, func() { _, tiers, e = s.run(nil) }); events != "" {
			t.Errorf("width %d: the pack-served pass ran as %q, want no pool events", width, events)
		}
		st, packs := s.store.Stats(), e.packs.Stats()
		if !reflect.DeepEqual(tiers, map[string]int{"disk": n}) || st.Hits != 0 || st.Misses != 4 || st.Writes != 4 ||
			packs.Hits != 1 || packs.Misses != 0 || packs.Writes != 0 {
			t.Errorf("width %d: pack-served pass: tiers %v, store %+v, pack handle %+v", width, tiers, st, packs)
		}
		if events := observed(0, func() { _, tiers, _ = s.run(e) }); events != "" {
			t.Errorf("width %d: the repeat the pack serves ran as %q, want no pool events", width, events)
		}
		if packs := e.packs.Stats(); !reflect.DeepEqual(tiers, map[string]int{"disk": n}) || packs.Hits != 2 || packs.Misses != 0 {
			t.Errorf("width %d: repeat the pack serves: tiers %v, pack handle %+v", width, tiers, packs)
		}

		// A storeless Exec has no pack to serve: its repeat is the mem tier
		// whole, and runs inline.
		me := NewExec(parallel.NewScheduler(width), nil)
		if events := observed(n, func() { s.evaluate(me, s.kernels) }); !scheduled(events, n) {
			t.Errorf("width %d: the storeless cold pass ran as %q", width, events)
		}
		if events := observed(n, func() { _, tiers = s.evaluate(me, s.kernels) }); events != inline(n) {
			t.Errorf("width %d: the mem-whole pass ran as %q, want inline", width, events)
		}
		if tiers["mem"] != n {
			t.Errorf("width %d: mem-whole pass: tiers %v", width, tiers)
		}

		// One task in neither the mem tier nor a pack: the evaluation's pack
		// is read once, missed, and every task is scheduled. The served
		// passes left the mem tier empty, so the per-key entries serve the
		// rest.
		novel := s.kernels[1]
		novel.Seed++
		more := append(slices.Clone(s.kernels), novel)
		if events := observed(n+1, func() { _, tiers = s.evaluate(e, more) }); !scheduled(events, n+1) {
			t.Errorf("width %d: the pass with a novel task ran as %q", width, events)
		}
		st, packs = s.store.Stats(), e.packs.Stats()
		if !reflect.DeepEqual(tiers, map[string]int{"disk": 4, "mem": 1, "sim": 1}) ||
			st.Hits != 4 || st.Misses != 5 || st.Writes != 5 || packs.Hits != 2 || packs.Misses != 1 || packs.Writes != 1 {
			t.Errorf("width %d: pass with a novel task: tiers %v, store %+v, pack handle %+v", width, tiers, st, packs)
		}

		// A pass whose outcomes an earlier pass banked is scheduled, so its
		// tasks persist them in parallel.
		b := newPackStudy(t, width)
		_, reps := studyLaunches(t)
		pks := SampledTask(0, pkp.Options{}, false)
		be := NewExec(parallel.NewScheduler(width), b.store)
		fr := NewFlightRecorder()
		full := RiderPass{Task: b.task, Kernels: b.kernels}
		sampled := RiderPass{Task: pks, Kernels: reps, Obs: func(i int) TaskObs {
			return TaskObs{Flight: fr, Phase: "pks", Index: i}
		}}
		pack := be.OpenPack(b.dev, nil, "study", nil, []KernelTask{b.task, pks}, b.keys)
		pack.Bind(b.dev, &full, &sampled)
		outs, err := be.RunKernels(b.dev, full)
		if err != nil {
			t.Fatal(err)
		}
		if events := observed(len(reps), func() {
			more, err := be.RunKernels(b.dev, sampled)
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, more...)
		}); !scheduled(events, len(reps)) {
			t.Errorf("width %d: the bank-served pass ran as %q", width, events)
		}
		pack.Save(nil, outs)
		st, packs = b.store.Stats(), be.packs.Stats()
		if tiers := fr.TierCounts(); !reflect.DeepEqual(tiers, map[string]int{"sim": 2}) || pack.Banked() != 0 ||
			st.Hits != 0 || st.Misses != 4 || st.Writes != 6 || packs.Hits != 0 || packs.Misses != 1 || packs.Writes != 1 {
			t.Errorf("width %d: bank-served pass: tiers %v, %d left banked, store %+v, pack handle %+v", width, tiers, pack.Banked(), st, packs)
		}
	}
}

// TestPackServedPassSkipsTheLadder: a pass whose evaluation's pack serves is
// a copy of the pack's outcomes. On a fresh Exec it adds no mem-tier entry,
// counts no singleflight hit or miss, reaches no pool, and still records one
// provenance entry per task under that task's key, each disk; on the Exec
// that ran cold every task is mem. It does not wait on another caller's
// compute of one of its keys.
func TestPackServedPassSkipsTheLadder(t *testing.T) {
	for _, width := range []int{1, 4} {
		s := newPackStudy(t, width)
		cold, _, ce := s.run(nil)

		e := NewExec(parallel.NewScheduler(width), s.store)
		var outs []KernelOutcome
		var fr *FlightRecorder
		if events := observed(0, func() { outs, fr = s.recorded(e, s.kernels) }); events != "" {
			t.Errorf("width %d: the served pass ran as %q, want no pool events", width, events)
		}
		if !reflect.DeepEqual(outs, cold) {
			t.Errorf("width %d: served outcomes %+v, cold %+v", width, outs, cold)
		}
		if hits, misses := e.MemStats(); e.mem.Len() != 0 || hits != 0 || misses != 0 {
			t.Errorf("width %d: the served pass left %d mem-tier entries, %d hits, %d misses", width, e.mem.Len(), hits, misses)
		}
		entries := fr.Entries()
		if len(entries) != len(s.kernels) {
			t.Fatalf("width %d: %d provenance entries for %d tasks", width, len(entries), len(s.kernels))
		}
		for i, en := range entries {
			if en.Phase != "t" || en.Index != i || en.Key != s.keys[i] || en.Tier != TierDisk || en.Kernel != s.kernels[i].Name {
				t.Errorf("width %d: entry %d is %+v, want phase t, key %s, tier disk, kernel %q", width, i, en, s.keys[i], s.kernels[i].Name)
			}
		}

		if _, tiers, _ := s.run(ce); !reflect.DeepEqual(tiers, map[string]int{"mem": len(s.kernels)}) {
			t.Errorf("width %d: on the Exec that ran cold the served pass read %v, want every task mem", width, tiers)
		}

		// Another caller holds one of the pass's keys in flight on a fresh
		// Exec.
		fe := NewExec(parallel.NewScheduler(width), s.store)
		block, started, held := make(chan struct{}), make(chan struct{}), make(chan struct{})
		go func() {
			defer close(held)
			_, _ = fe.mem.Do(s.keys[1], func() (KernelOutcome, error) {
				close(started)
				<-block
				return cold[1], nil
			})
		}()
		<-started
		served := make(chan []KernelOutcome)
		go func() {
			outs, _ := s.recorded(fe, s.kernels)
			served <- outs
		}()
		select {
		case outs := <-served:
			if !reflect.DeepEqual(outs, cold) {
				t.Errorf("width %d: served beside a flight: outcomes %+v, cold %+v", width, outs, cold)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("width %d: the served pass waits on another caller's compute", width)
			close(block)
			<-held
			<-served
			continue
		}
		close(block)
		<-held
	}
}

// TestPackCorruptFallsBack: a pack the store's checksum refuses, or one that
// is framed right but is not this evaluation's outcomes, is counted corrupt,
// the per-key entries serve, and the evaluation writes the good pack back.
func TestPackCorruptFallsBack(t *testing.T) {
	for _, width := range []int{1, 4} {
		s := newPackStudy(t, width)
		cold, _, _ := s.run(nil)
		good, err := os.ReadFile(s.packPath())
		if err != nil {
			t.Fatal(err)
		}
		raw, ok := s.store.View().Get(s.packKey())
		if !ok {
			t.Fatal("the cold run's pack does not read back")
		}
		_, digest, _, _ := decodePack(raw)
		put := func(payload []byte) {
			if err := s.store.View().Put(s.packKey(), payload); err != nil {
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
			"one outcome short": func() { put(encodePack(nil, digest, cold[:len(cold)-1])) },
			"unknown flag bits": func() {
				payload := encodePack(nil, digest, cold)
				payload[len(payload)-3*outcomeSize+32] = 0xFF
				put(payload)
			},
			"another digest": func() {
				other := sha256.Sum256([]byte(strings.Join(s.keys[1:], "")))
				put(encodePack(nil, string(other[:]), cold))
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

// FuzzDecodePack: a pack is persisted bytes; whatever they are the decoder
// must not panic, and whatever it accepts is a selection section, a digest and
// whole outcomes that re-encode to the input exactly.
func FuzzDecodePack(f *testing.F) {
	sum := sha256.Sum256([]byte("fuzz"))
	digest := string(sum[:])
	good := encodePack([]byte("selection"), digest, []KernelOutcome{
		{ProjCycles: 1 << 40, SimWarpInstrs: 7, ThreadInstrs: 3.25, DRAMUtil: 0.875, Capped: true},
		{ProjCycles: -1, Truncated: true},
	})
	outsAt := len(good) - 2*outcomeSize
	f.Add(good)
	f.Add(good[:outsAt+outcomeSize])
	f.Add(good[:len(good)-1])
	f.Add(append(bytes.Clone(good[:outsAt+outcomeSize+32]), 0xFF))
	f.Add([]byte{})
	truncated := bytes.Clone(good)
	truncated[0]++ // the selection runs one byte into the digest
	f.Add(truncated)
	flipped := bytes.Clone(good)
	flipped[outsAt-1] ^= 1 // a digest of other keys: it decodes, and Bind refuses it
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, b []byte) {
		sel, digest, outs, ok := decodePack(b)
		if !ok {
			return
		}
		if len(digest) != sha256.Size || 8+len(sel)+sha256.Size+len(outs)*outcomeSize != len(b) {
			t.Fatalf("accepted %d bytes as a %d-byte selection, a %d-byte digest and %d outcomes", len(b), len(sel), len(digest), len(outs))
		}
		if got := encodePack(sel, digest, outs); !bytes.Equal(got, b) {
			t.Fatalf("decoded %x, re-encoded %x", b, got)
		}
	})
}
