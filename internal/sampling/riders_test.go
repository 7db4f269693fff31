package sampling

import (
	"bytes"
	"math"
	"testing"

	"pka/internal/artifact"
	"pka/internal/gpu"
	"pka/internal/obs"
	"pka/internal/parallel"
	"pka/internal/pkp"
	"pka/internal/trace"
	"pka/internal/workload"
)

// studyLaunches is a five-launch batch over two planned representatives, with
// one launch that equals a representative by content under another name.
func studyLaunches(t *testing.T) (launches, reps []trace.KernelDesc) {
	t.Helper()
	w := workload.Find("Rodinia/bfs65536")
	if w == nil {
		t.Fatal("study workload missing")
	}
	reps = []trace.KernelDesc{w.Kernel(8), w.Kernel(3)}
	alias := reps[0]
	alias.Name, alias.ID = "same-content-other-name", 99
	return []trace.KernelDesc{alias, w.Kernel(0), reps[1], reps[0], w.Kernel(5)}, reps
}

// bind lays passes out, in order, in a pack that plans riders and keeps no
// memo: a storeless Exec's.
func bind(dev gpu.Device, passes []RiderPass) *Pack {
	pack := NewExec(nil, nil).OpenPack(dev, nil, "study", nil, nil, nil)
	ptrs := make([]*RiderPass, len(passes))
	for i := range passes {
		ptrs[i] = &passes[i]
	}
	pack.Bind(dev, ptrs...)
	return pack
}

// TestBankRidersMatchSoloTasks walks an evaluation's passes by hand, bound in
// one pack that keeps no memo (a storeless Exec's), each pass naming its own
// launches: the full baseline's launches that equal a planned launch by
// content — under whatever name, whichever comes first — carry the PKS, PKA
// and TBPoint (ModeBlocks) tasks of the representatives and the first-N
// (ModeFirstN) task of a launch outside them, each later pass finds its
// outcomes banked and carries only the passes after its own, every outcome
// equals the task run alone on float bits, and nothing is left banked.
func TestBankRidersMatchSoloTasks(t *testing.T) {
	dev := gpu.VoltaV100()
	launches, reps := studyLaunches(t)
	cut := launches[4:] // no representative's content
	full := KernelTask{Mode: ModeFull}
	pks := SampledTask(0, pkp.Options{}, false)
	pka := SampledTask(0, pkp.Options{}, true)
	blocks := BlocksTask(0, 0.5)
	firstN := KernelTask{Mode: ModeFirstN, WarpBudget: cut[0].TotalWarpInstructions(dev) / 3}

	for _, width := range []int{1, 4} {
		store, err := artifact.Open(t.TempDir(), artifact.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		e := NewExec(parallel.NewScheduler(width), store)
		o := obs.NewObserver()
		fr := NewFlightRecorder()
		wiring := func(phase string) func(int) TaskObs {
			simObs := o.SimObs("sim:" + phase)
			return func(i int) TaskObs { return TaskObs{Sim: simObs, Flight: fr, Phase: phase, Index: i} }
		}
		passes := []RiderPass{
			{Task: full, Kernels: launches},
			{Task: pks, Kernels: reps, Obs: wiring("pks")},
			{Task: pka, Kernels: reps, Obs: wiring("pka")},
			{Task: blocks, Kernels: reps, Obs: wiring("tbpoint")},
			{Task: firstN, Kernels: cut, Obs: wiring("1b")},
		}
		pack := bind(dev, passes)

		for p, left := range []int{7, 5, 3, 1, 0} { // banked outcomes waiting after each pass
			pass := passes[p]
			got, err := e.RunKernels(dev, pass)
			if err != nil {
				t.Fatal(err)
			}
			want, err := (*Exec)(nil).RunKernels(dev, RiderPass{Task: pass.Task, Kernels: pass.Kernels})
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if !bytes.Equal(EncodeOutcome(got[i]), EncodeOutcome(want[i])) {
					t.Errorf("width %d, mode %d, kernel %d: %+v riding, %+v alone", width, pass.Task.Mode, i, got[i], want[i])
				}
			}
			if pack.Banked() != left {
				t.Errorf("width %d, after mode %d: %d outcomes banked, want %d", width, pass.Task.Mode, pack.Banked(), left)
			}
		}
		// Three passes simulated for three planned launches (reported under
		// the first rider's track; the other launches have no SimObs), seven
		// planned tasks accounted at the simulator tier, one write per
		// distinct outcome — 4 full + 2 + 2 + 2 + 1 — and no pack write: the
		// pack that planned the riders keeps no memo.
		if n := o.SimMetrics().Kernels.Value(); n != 3 {
			t.Errorf("width %d: %d simulator passes reported, want 3", width, n)
		}
		if tiers := fr.TierCounts(); tiers["sim"] != 7 || fr.Len() != 7 {
			t.Errorf("width %d: planned tasks served by %v", width, tiers)
		}
		if st, packs := store.Stats(), e.packs.Stats(); st.Writes != 11 || packs.Writes != 0 || st.Entries != 11 {
			t.Errorf("width %d: %d outcome writes, %d pack writes, %d entries, want 11, 0 and 11", width, st.Writes, packs.Writes, st.Entries)
		}

		// Over the now-warm store nothing reaches the simulator, so a second
		// evaluation's pack banks nothing: every task reads its per-key
		// entry.
		warm := make([]RiderPass, 4)
		for i, task := range []KernelTask{full, pks, pka, blocks} {
			warm[i] = RiderPass{Task: task, Kernels: reps}
		}
		again := bind(dev, warm)
		fresh := NewExec(nil, store)
		before := store.Stats()
		for _, pass := range warm {
			if _, err := fresh.RunKernels(dev, pass); err != nil {
				t.Fatal(err)
			}
		}
		if st := store.Stats(); again.Banked() != 0 || st.Writes != 11 || st.Entries != 11 || st.Hits-before.Hits != 8 {
			t.Errorf("width %d: warm evaluation banked %d outcomes, made %d writes, %d per-key hits and left %d entries",
				width, again.Banked(), st.Writes-11, st.Hits-before.Hits, st.Entries)
		}
		if packs := fresh.CacheStats()["batch"]; packs != (obs.CacheCounts{}) {
			t.Errorf("width %d: warm evaluation's batch family %+v, want nothing", width, packs)
		}
	}
}

// TestSimPoolKeepsDevicesApart: pooled simulators are handed back only for
// the device they were built for, and a second device does not evict the
// first's.
func TestSimPoolKeepsDevicesApart(t *testing.T) {
	a, b := gpu.VoltaV100(), gpu.TuringRTX2060()
	for i := 0; i < 3; i++ {
		for _, dev := range []gpu.Device{a, b} {
			s := acquireSim(dev)
			if s.Device() != dev {
				t.Fatalf("asked for a %s simulator, got a %s one", dev.Name, s.Device().Name)
			}
			releaseSim(s)
		}
	}
}

// TestWarmKernelTaskAllocs: the steady-state cost of one kernel task is the
// simulation itself — a warm task takes a flushed simulator from the pool
// instead of building one (~570 allocations: every SM's warp, block and ready
// arrays, all L1s and the L2). The bound is on the cheapest of 20 warm tasks,
// not their mean: under -race sync.Pool drops a quarter of its Puts by design.
func TestWarmKernelTaskAllocs(t *testing.T) {
	w := workload.Find("Rodinia/gauss_208")
	if w == nil {
		t.Fatal("study workload missing")
	}
	dev, k, task := gpu.VoltaV100(), w.Kernel(0), KernelTask{Mode: ModeFull}
	run := func() {
		if _, err := simulateKernel(dev, k, task, TaskObs{}, nil, ""); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the pool
	allocs := math.Inf(1)
	for i := 0; i < 20; i++ {
		allocs = math.Min(allocs, testing.AllocsPerRun(1, run))
	}
	if allocs > 32 {
		t.Errorf("warm kernel task costs %.0f allocs/op, want <= 32: the simulator pool is no longer being reused", allocs)
	}
}
