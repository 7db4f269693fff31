package sampling

import (
	"math"
	"reflect"
	"testing"

	"pka/internal/artifact"
	"pka/internal/gpu"
	"pka/internal/pks"
	"pka/internal/silicon"
	"pka/internal/trace"
	"pka/internal/workload"
)

// refSelectionKey is the selection key as the walk the scan replaced derived
// it, one Workload.Kernel per launch, fed to artifact.Key whole.
func refSelectionKey(dev gpu.Device, w *workload.Workload, optsSection []byte) string {
	sections := [][]byte{
		[]byte(selectionSchema),
		appendDeviceSection(nil, dev),
		[]byte(w.FullName()),
		append(appendInt(nil, w.N), optsSection...),
	}
	for i := 0; i < w.N; i++ {
		k := w.Kernel(i)
		sections = append(sections, append(appendKernelSection(nil, &k), k.Name...))
	}
	return artifact.Key(sections...)
}

// fresh is w rebuilt over the same launches with nothing remembered, so its
// first scan walks.
func fresh(w *workload.Workload) *workload.Workload {
	return workload.New(w.Suite, w.Name, w.N, w.Kernel)
}

// siliconBits is a silicon total with its floats as IEEE-754 bits.
func siliconBits(a silicon.AppResult) [4]uint64 {
	return [4]uint64{uint64(a.Kernels), uint64(a.Cycles), math.Float64bits(a.TimeSeconds), math.Float64bits(a.ThreadInstrs)}
}

// sameScan reports whether two scans agree bit for bit.
func sameScan(a, b Scan) bool {
	return a.Key == b.Key && siliconBits(a.Silicon) == siliconBits(b.Silicon) &&
		a.WarpInstrs == b.WarpInstrs && reflect.DeepEqual(a.Kernels, b.Kernels) && reflect.DeepEqual(a.Keys, b.Keys)
}

// checkScan holds one scan asked for everything against the four walks it
// folds: the reference key, silicon.ExecuteAll on float bits, the unlimited
// ApproxWarpInstructions, and Workload.Kernels (nil when the mass is past
// budget). The views must agree with it too. w is rebuilt first, so the scan
// under test is a walk, not a memo read.
func checkScan(t *testing.T, dev gpu.Device, w *workload.Workload, budget int64) {
	t.Helper()
	w = fresh(w)
	opts := pks.Options{TargetErrorPct: 3}.AppendKey(nil)
	sc, err := ScanLaunches(dev, w, Want{Key: true, KeyOpts: opts, Silicon: true, Keep: true, Budget: budget})
	if err != nil {
		t.Fatalf("%s: %v", w.FullName(), err)
	}
	if want := refSelectionKey(dev, w, opts); sc.Key != want || SelectionKey(dev, w, opts) != want {
		t.Errorf("%s: key %s (SelectionKey %s), want %s", w.FullName(), sc.Key, SelectionKey(dev, w, opts), want)
	}
	sil, err := silicon.ExecuteAll(dev, w.Iterator())
	if err != nil {
		t.Fatal(err)
	}
	if view, _ := ScanLaunches(dev, w, Want{Silicon: true}); siliconBits(sc.Silicon) != siliconBits(sil) || siliconBits(view.Silicon) != siliconBits(sil) {
		t.Errorf("%s: silicon %+v (silicon-only scan %+v), want %+v", w.FullName(), sc.Silicon, view.Silicon, sil)
	}
	mass := w.ApproxWarpInstructions(1 << 62)
	if sc.WarpInstrs != mass {
		t.Errorf("%s: mass %d, want %d", w.FullName(), sc.WarpInstrs, mass)
	}
	if budget <= 0 {
		budget = DefaultFullSimBudget
	}
	var kept []trace.KernelDesc
	if mass <= budget {
		kept = w.Kernels()
	}
	if !reflect.DeepEqual(sc.Kernels, kept) { // nil and empty differ
		t.Errorf("%s: kept %d launches (nil %v), want %d (nil %v)", w.FullName(), len(sc.Kernels), sc.Kernels == nil, len(kept), kept == nil)
	}
}

// TestScanMatchesWalks: one scan yields, bit for bit, what the separate walks
// over the launches yield — on the benchmark's eight simulation workloads (one
// of them infeasible) and on a synthetic one longer than keepChunk whose budget
// is set to fit exactly, to be passed by the last launch, and to be passed
// mid-walk.
func TestScanMatchesWalks(t *testing.T) {
	dev := gpu.VoltaV100()
	for _, name := range []string{
		"Rodinia/hots_1024", "Rodinia/lud_i", "DeepBench/gemm_train_4", "Parboil/bfs",
		"Cutlass/1536x256x512_wgemm", "Rodinia/kmeans_819k", "Rodinia/dwt2d_rgb", "MLPerf/3dunet_inf",
	} {
		w := workload.Find(name)
		if w == nil {
			t.Fatalf("workload %s missing", name)
		}
		checkScan(t, dev, w, 0)
	}

	synth := crossing(0)
	mass := synth.ApproxWarpInstructions(1 << 62)
	for _, budget := range []int64{mass, mass - 1, mass / 2} {
		checkScan(t, dev, synth, budget)
	}
}

// TestScanKeysAreTaskKeys: the keys a scan keeps beside the launches are their
// ModeFull TaskKeys on every device, derived in the walk that also hashes the
// selection key from the same kernel sections, and go with the launches once
// the budget drops them.
func TestScanKeysAreTaskKeys(t *testing.T) {
	opts := pks.Options{}.AppendKey(nil)
	for _, dev := range []gpu.Device{gpu.VoltaV100(), gpu.TuringRTX2060(), gpu.AmpereRTX3070()} {
		for _, w := range []*workload.Workload{workload.Find("Rodinia/lud_i"), crossing(0)} {
			w = fresh(w)
			sc, err := ScanLaunches(dev, w, Want{Key: true, KeyOpts: opts, Silicon: true, Keep: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(sc.Kernels) != w.N || len(sc.Keys) != w.N {
				t.Fatalf("%s on %s: %d launches, %d keys, want %d of each", w.FullName(), dev.Name, len(sc.Kernels), len(sc.Keys), w.N)
			}
			for i := range sc.Kernels {
				if want := TaskKey(dev, &sc.Kernels[i], KernelTask{Mode: ModeFull}); sc.Keys[i] != want {
					t.Fatalf("%s on %s: launch %d keyed %s, TaskKey %s", w.FullName(), dev.Name, i, sc.Keys[i], want)
				}
			}
			if want := refSelectionKey(dev, w, opts); sc.Key != want {
				t.Errorf("%s on %s: selection key %s, want %s", w.FullName(), dev.Name, sc.Key, want)
			}
			over, err := ScanLaunches(dev, w, Want{Keep: true, Budget: sc.WarpInstrs / 2})
			if err != nil || over.Kernels != nil || over.Keys != nil {
				t.Errorf("%s on %s past the budget: %d launches, %d keys (nil %v), %v", w.FullName(), dev.Name, len(over.Kernels), len(over.Keys), over.Keys == nil, err)
			}
		}
	}
}

// crossing is a synthetic workload longer than keepChunk, built from lud_i's
// launches with every grid widened by grow.
func crossing(grow int) *workload.Workload {
	base := workload.Find("Rodinia/lud_i")
	return workload.New("Synth", "crossing", 3*keepChunk+7, func(i int) trace.KernelDesc {
		k := base.Kernel(i % base.N)
		k.Grid.X += i%5 + grow
		return k
	})
}

// TestScanMemoNeverStale: what a workload remembers of a scan is the walk's
// answer, whichever object, copy, option set or failure asks.
func TestScanMemoNeverStale(t *testing.T) {
	dev := gpu.VoltaV100()
	all := Want{Key: true, KeyOpts: pks.Options{}.AppendKey(nil), Silicon: true, Keep: true}
	scan := func(w *workload.Workload) Scan {
		t.Helper()
		sc, err := ScanLaunches(dev, w, all)
		if err != nil {
			t.Fatalf("%s (%d launches): %v", w.FullName(), w.N, err)
		}
		return sc
	}

	// Two workloads of one name and length over different launches remember
	// apart: different keys and silicon totals, each its own walk's.
	a, b := crossing(0), crossing(1)
	scA, scB := scan(a), scan(b)
	if scA.Key == scB.Key || siliconBits(scA.Silicon) == siliconBits(scB.Silicon) {
		t.Errorf("same-named workloads over different launches share key %v or silicon %v", scA.Key == scB.Key, scA.Silicon)
	}
	for _, w := range []*workload.Workload{a, b} {
		if got, want := scan(w), scan(fresh(w)); !sameScan(got, want) {
			t.Errorf("remembered scan %+v, a walk finds %+v", got.Silicon, want.Silicon)
		}
	}

	// A struct copy shares the original's memo but not its entries: with N or
	// Name changed it gets its own scan, the walk's, and the original keeps the
	// entry it had (the same shared launches, not a rescan).
	shorter, renamed := *a, *a
	shorter.N--
	renamed.Name += "2"
	for _, c := range []*workload.Workload{&shorter, &renamed} {
		got := scan(c)
		if want := scan(fresh(c)); !sameScan(got, want) || got.Key == scA.Key {
			t.Errorf("copy %s (%d launches): scan %s, a walk finds %s (original %s)", c.FullName(), c.N, got.Key, want.Key, scA.Key)
		}
	}
	if again := scan(a); !sameScan(again, scA) || &again.Kernels[0] != &scA.Kernels[0] {
		t.Error("the original's remembered scan changed after its copies were scanned")
	}

	// More option sets than the memo holds: every answer is still the walk's,
	// the first one asked again after the memo was dropped included.
	for i := 0; i < 160; i++ {
		opts := pks.Options{TargetErrorPct: float64(i%20 + 1), Seed: uint64(i / 20)}.AppendKey(nil)
		sc, err := ScanLaunches(dev, a, Want{Key: true, KeyOpts: opts})
		if want := refSelectionKey(dev, a, opts); err != nil || sc.Key != want {
			t.Fatalf("option set %d: key %s (%v), want %s", i, sc.Key, err, want)
		}
	}
	if again := scan(a); !sameScan(again, scA) {
		t.Error("a scan asked again after the memo overflowed differs from the first")
	}

	// A launch the silicon model refuses fails the scan where it fails
	// ExecuteAll — same launch index, same error — on every call: a failure is
	// never remembered as an answer.
	broken := workload.New("Synth", "broken", a.N, func(i int) trace.KernelDesc {
		k := a.Kernel(i)
		if i == keepChunk+3 {
			k.Block.X = 2048
		}
		return k
	})
	_, want := silicon.ExecuteAll(dev, broken.Iterator())
	for call := 0; call < 3; call++ {
		if _, got := ScanLaunches(dev, broken, all); want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("scan %d of a broken launch: %v, want %v", call, got, want)
		}
	}
}
