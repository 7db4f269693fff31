package workload

import (
	"testing"

	"pka/internal/gpu"
	"pka/internal/trace"
)

func TestStudyHas147Workloads(t *testing.T) {
	all := All()
	if len(all) != 147 {
		t.Fatalf("study has %d workloads, want 147", len(all))
	}
	counts := map[string]int{}
	for _, w := range all {
		counts[w.Suite]++
	}
	want := map[string]int{
		"Rodinia": 28, "Parboil": 8, "Polybench": 15,
		"Cutlass": 20, "DeepBench": 69, "MLPerf": 7,
	}
	for suite, n := range want {
		if counts[suite] != n {
			t.Errorf("%s has %d workloads, want %d", suite, counts[suite], n)
		}
	}
}

func TestUniqueFullNames(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range All() {
		fn := w.FullName()
		if seen[fn] {
			t.Errorf("duplicate workload name %q", fn)
		}
		seen[fn] = true
	}
}

func TestEveryWorkloadValidates(t *testing.T) {
	dev := gpu.VoltaV100()
	for _, w := range All() {
		if err := w.Validate(500); err != nil {
			t.Errorf("%s: %v", w.FullName(), err)
			continue
		}
		// Every sampled kernel must also be schedulable on the V100.
		n := w.N
		if n > 200 {
			n = 200
		}
		for i := 0; i < n; i++ {
			k := w.Kernel(i)
			if dev.ComputeOccupancy(k.Resources()).BlocksPerSM == 0 {
				t.Errorf("%s kernel %d (%s) cannot be scheduled", w.FullName(), i, k.Name)
				break
			}
		}
	}
}

func TestKernelIDsAreChronological(t *testing.T) {
	w := Find("Polybench/fdtd2d")
	if w == nil {
		t.Fatal("fdtd2d missing")
	}
	next := w.Iterator()
	for i := 0; i < 10; i++ {
		k := next()
		if k == nil {
			t.Fatal("stream ended early")
		}
		if k.ID != i {
			t.Fatalf("kernel %d has ID %d", i, k.ID)
		}
	}
}

func TestIteratorRestartsAndEnds(t *testing.T) {
	w := Find("Rodinia/gauss_mat4")
	if w == nil {
		t.Fatal("gauss_mat4 missing")
	}
	count := 0
	for next := w.Iterator(); next() != nil; {
		count++
	}
	if count != w.N {
		t.Errorf("iterator yielded %d kernels, want %d", count, w.N)
	}
	// A fresh iterator restarts from zero.
	if k := w.Iterator()(); k == nil || k.ID != 0 {
		t.Error("fresh iterator did not restart")
	}
}

func TestKernelDeterminism(t *testing.T) {
	w := Find("MLPerf/ssd_training")
	if w == nil {
		t.Fatal("ssd_training missing")
	}
	a := w.Kernel(12345)
	b := w.Kernel(12345)
	if a.Seed != b.Seed || a.Name != b.Name || a.Grid != b.Grid {
		t.Error("Kernel(i) is not deterministic")
	}
	c := w.Kernel(12346)
	if a.Seed == c.Seed {
		t.Error("adjacent kernels share a seed")
	}
}

func TestKernelPanicsOutOfRange(t *testing.T) {
	w := Find("Rodinia/nn")
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Kernel did not panic")
		}
	}()
	w.Kernel(w.N)
}

func TestPaperStructuralLandmarks(t *testing.T) {
	// gauss_208 launches 414 kernels (Table 3).
	if w := Find("Rodinia/gauss_208"); w == nil || w.N != 414 {
		t.Errorf("gauss_208 N = %v, want 414", w)
	}
	// bfs65536 launches 20 (Table 3).
	if w := Find("Rodinia/bfs65536"); w == nil || w.N != 20 {
		t.Errorf("bfs65536 N wrong: %+v", w)
	}
	// histo: 80 kernels in 4 repeating shapes (Table 3: 4 groups of 20).
	if w := Find("Parboil/histo"); w == nil || w.N != 80 {
		t.Errorf("histo N wrong")
	}
	// fdtd2d: 1500 kernels (Table 3: groups of 1000 + 500).
	if w := Find("Polybench/fdtd2d"); w == nil || w.N != 1500 {
		t.Errorf("fdtd2d N wrong")
	}
	// gramschmidt: 6144 launches across shrinking grids.
	if w := Find("Polybench/gramschmidt"); w == nil || w.N != 6144 {
		t.Errorf("gramschmidt N wrong")
	}
	// Cutlass workloads each launch the same kernel 7 times (Table 3).
	for _, w := range BySuite("Cutlass") {
		if w.N != 7 {
			t.Errorf("%s N = %d, want 7", w.FullName(), w.N)
		}
		k0, k6 := w.Kernel(0), w.Kernel(6)
		if k0.Name != k6.Name || k0.Grid != k6.Grid {
			t.Errorf("%s repetitions differ", w.FullName())
		}
	}
	// SSD training is the launch-count monster of the study.
	ssd := Find("MLPerf/ssd_training")
	if ssd == nil || ssd.N < 500_000 {
		t.Errorf("ssd_training should have >= 500k kernels at scale %d", MLPerfScale)
	}
	// MLPerf workloads dominate the launch-count distribution.
	for _, w := range BySuite("MLPerf") {
		if w.N < 2000 {
			t.Errorf("%s suspiciously small: %d kernels", w.FullName(), w.N)
		}
	}
}

func TestQuirksAssigned(t *testing.T) {
	if w := Find("Rodinia/myocyte"); w == nil || w.Quirk != "trace-mismatch" {
		t.Error("myocyte should carry the trace-mismatch quirk")
	}
	quirkCounts := map[string]int{}
	for _, w := range BySuite("DeepBench") {
		if w.Quirk != "" {
			quirkCounts[w.Quirk]++
		}
	}
	if quirkCounts["cudnn-autotune"] != 5 || quirkCounts["cudnn-autotune-tc"] != 5 {
		t.Errorf("conv training quirk counts = %v", quirkCounts)
	}
}

func TestBySuiteAndFind(t *testing.T) {
	if BySuite("NoSuchSuite") != nil {
		t.Error("unknown suite should return nil")
	}
	if Find("Rodinia/does-not-exist") != nil {
		t.Error("unknown workload should return nil")
	}
	if w := Find("Parboil/sgemm"); w == nil || w.Suite != "Parboil" {
		t.Error("Find failed for Parboil/sgemm")
	}
}

func TestApproxWarpInstructions(t *testing.T) {
	w := Find("Rodinia/nn")
	got := w.ApproxWarpInstructions(1 << 60)
	k := w.Kernel(0)
	want := int64(k.Grid.Count()) * int64(k.WarpsPerBlock()) * int64(k.Mix.Total())
	if got != want {
		t.Errorf("ApproxWarpInstructions = %d, want %d", got, want)
	}
	// The cap short-circuits on huge streams.
	ssd := Find("MLPerf/ssd_training")
	if v := ssd.ApproxWarpInstructions(1000); v <= 1000 {
		t.Errorf("capped walk returned %d, want > cap", v)
	}
}

func TestSuitesDifferInLaunchCounts(t *testing.T) {
	// The study's core premise: classic suites launch few kernels,
	// MLPerf launches orders of magnitude more.
	var classicMax, mlperfMin int
	mlperfMin = 1 << 30
	for _, w := range All() {
		switch w.Suite {
		case "MLPerf":
			if w.N < mlperfMin {
				mlperfMin = w.N
			}
		default:
			if w.N > classicMax {
				classicMax = w.N
			}
		}
	}
	if mlperfMin <= classicMax/3 {
		t.Errorf("MLPerf min %d should dwarf classic max %d", mlperfMin, classicMax)
	}
}

func TestKernelsMaterialization(t *testing.T) {
	w := Find("Parboil/mri")
	ks := w.Kernels()
	if len(ks) != w.N {
		t.Fatalf("Kernels len = %d", len(ks))
	}
	for i, k := range ks {
		if k.ID != i {
			t.Errorf("kernel %d has ID %d", i, k.ID)
		}
		if err := k.Validate(); err != nil {
			t.Error(err)
		}
	}
}

// TestFindReusesCatalogue: the catalogue is built once, so Find is a lookup
// that hands every caller the same workload and allocates nothing.
func TestFindReusesCatalogue(t *testing.T) {
	a, b := Find("Rodinia/gauss_208"), Find("Rodinia/gauss_208")
	if a == nil || a != b || All()[0] != All()[0] || BySuite("Rodinia")[0] != All()[0] {
		t.Fatal("catalogue lookups return different workloads for one name")
	}
	if allocs := testing.AllocsPerRun(100, func() { Find("MLPerf/ssd_training") }); allocs > 1 {
		t.Errorf("Find allocates %.0f times per call, want at most 1", allocs)
	}
}

// TestNewRejectsMisuse: a negative launch count or a missing generator is a
// harness bug, and New panics on it as Kernel does on an out-of-range index.
func TestNewRejectsMisuse(t *testing.T) {
	gen := func(int) trace.KernelDesc { return trace.KernelDesc{} }
	for name, build := range map[string]func(){
		"negative n": func() { New("s", "w", -1, gen) },
		"nil gen":    func() { New("s", "w", 1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: New did not panic", name)
				}
			}()
			build()
		}()
	}
	if w := New("s", "w", 0, gen); w.N != 0 || w.Kernels() == nil {
		t.Error("an empty workload is valid")
	}
}

// TestApproxWarpInstructionsRemembersTotal: a walk that reaches the last
// launch remembers the total; a later call reads it when its limit admits the
// total and walks as before when not.
func TestApproxWarpInstructionsRemembersTotal(t *testing.T) {
	src := Find("Polybench/fdtd2d")
	gens := 0
	w := New(src.Suite, src.Name, src.N, func(i int) trace.KernelDesc {
		gens++
		return src.Kernel(i)
	})
	total := w.ApproxWarpInstructions(1 << 62)
	if gens != w.N || total != src.ApproxWarpInstructions(1<<62) {
		t.Fatalf("first walk generated %d of %d launches, total %d", gens, w.N, total)
	}
	gens = 0
	if got := w.ApproxWarpInstructions(total); got != total || gens != 0 {
		t.Errorf("second call: %d after %d launches, want %d after none", got, gens, total)
	}
	if got := w.ApproxWarpInstructions(total - 1); got <= total-1 || gens == 0 {
		t.Errorf("call under the total: %d after %d launches, want a walk past the limit", got, gens)
	}
	shorter, last := *w, src.Kernel(src.N-1)
	shorter.N--
	if got, want := shorter.ApproxWarpInstructions(1<<62), total-last.VoltaWarpInstructions(); got != want {
		t.Errorf("copy one launch shorter: total %d, want %d", got, want)
	}
}
