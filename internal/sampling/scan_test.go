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
// it, one Workload.Gen per launch, fed to artifact.Key whole.
func refSelectionKey(dev gpu.Device, w *workload.Workload, optsSection []byte) string {
	sections := [][]byte{
		[]byte(selectionSchema),
		appendDeviceSection(nil, dev),
		[]byte(w.FullName()),
		append(appendInt(nil, w.N), optsSection...),
	}
	for i := 0; i < w.N; i++ {
		k := w.Gen(i)
		sections = append(sections, append(appendKernelSection(nil, &k), k.Name...))
	}
	return artifact.Key(sections...)
}

// checkScan holds one scan asked for everything against the four walks it
// folds: the reference key, silicon.ExecuteAll on float bits, the unlimited
// ApproxWarpInstructions, and Workload.Kernels (nil when the mass is past
// budget). The views must agree with it too.
func checkScan(t *testing.T, dev gpu.Device, w *workload.Workload, budget int64) {
	t.Helper()
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
	bits := func(a silicon.AppResult) [4]uint64 {
		return [4]uint64{uint64(a.Kernels), uint64(a.Cycles), math.Float64bits(a.TimeSeconds), math.Float64bits(a.ThreadInstrs)}
	}
	if view, _ := SiliconTotal(dev, w); bits(sc.Silicon) != bits(sil) || bits(view) != bits(sil) {
		t.Errorf("%s: silicon %+v (SiliconTotal %+v), want %+v", w.FullName(), sc.Silicon, view, sil)
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

	base := workload.Find("Rodinia/lud_i")
	synth := &workload.Workload{Suite: "Synth", Name: "crossing", N: 3*keepChunk + 7, Gen: func(i int) trace.KernelDesc {
		k := base.Gen(i % base.N)
		k.Grid.X += i % 5
		return k
	}}
	mass := synth.ApproxWarpInstructions(1 << 62)
	for _, budget := range []int64{mass, mass - 1, mass / 2} {
		checkScan(t, dev, synth, budget)
	}

	// A launch the silicon model refuses fails the scan where it fails
	// ExecuteAll: same launch index, same error.
	broken := *synth
	broken.Gen = func(i int) trace.KernelDesc {
		k := synth.Gen(i)
		if i == keepChunk+3 {
			k.Block.X = 2048
		}
		return k
	}
	_, want := silicon.ExecuteAll(dev, broken.Iterator())
	_, got := ScanLaunches(dev, &broken, Want{Key: true, Silicon: true, Keep: true})
	if want == nil || got == nil || got.Error() != want.Error() {
		t.Errorf("scan of a broken launch: %v, want %v", got, want)
	}
}
