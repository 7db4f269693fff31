// Benchmarks that regenerate every table and figure of the paper's
// evaluation (one benchmark per artifact), plus ablation benches for the
// design choices DESIGN.md calls out and the microbenchmarks the
// `make profile-*` targets profile. Performance is measured by the
// repository benchmark (`bash bench/run.sh`), not here.
//
// The experiment benches share one memoized Study, so the first benchmark
// that needs an artifact pays for it and the rest reuse it; a full
//
//	go test -bench=. -benchmem
//
// run therefore costs roughly one complete 147-workload study, with
// per-workload artifacts fanned across GOMAXPROCS workers (tens of
// minutes on one core, less with more). Individual artifacts can be
// regenerated with -bench=BenchmarkTable4 etc., or via cmd/pkaexp.
package pka

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"

	"pka/internal/artifact"
	"pka/internal/cluster"
	"pka/internal/core"
	"pka/internal/experiments"
	"pka/internal/gpu"
	"pka/internal/parallel"
	"pka/internal/pks"
	"pka/internal/sampling"
	"pka/internal/sim"
	"pka/internal/stats"
	"pka/internal/workload"
)

var (
	studyOnce sync.Once
	study     *experiments.Study
)

// saveArtifact persists a regenerated table/figure under results/ (the
// testing framework truncates long benchmark logs, so files are the
// durable record) and returns a short preview for the log.
func saveArtifact(b *testing.B, name string, parts ...interface{}) {
	b.Helper()
	var sb strings.Builder
	for _, p := range parts {
		switch v := p.(type) {
		case *Table:
			sb.WriteString(v.String())
		case *Chart:
			sb.WriteString(v.String())
		case []*Chart:
			for _, c := range v {
				sb.WriteString(c.String())
				sb.WriteByte('\n')
			}
		case string:
			sb.WriteString(v)
		}
		sb.WriteByte('\n')
	}
	if err := os.MkdirAll("results", 0o755); err != nil {
		b.Logf("results dir: %v", err)
		return
	}
	path := filepath.Join("results", name+".txt")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		b.Logf("writing %s: %v", path, err)
		return
	}
	lines := strings.Split(sb.String(), "\n")
	n := len(lines)
	if n > 6 {
		n = 6
	}
	b.Logf("full artifact in %s; head:\n%s", path, strings.Join(lines[:n], "\n"))
}

func sharedStudy() *experiments.Study {
	studyOnce.Do(func() { study = experiments.New() })
	return study
}

func BenchmarkFigure1(b *testing.B) {
	s := sharedStudy()
	for i := 0; i < b.N; i++ {
		chart, tab, err := experiments.Figure1(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			saveArtifact(b, "figure1", chart, tab)
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	s := sharedStudy()
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Table3(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			saveArtifact(b, "table3", tab)
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	s := sharedStudy()
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Figure4(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			saveArtifact(b, "figure4", tab)
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	s := sharedStudy()
	for i := 0; i < b.N; i++ {
		charts, tab, err := experiments.Figure5(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			saveArtifact(b, "figure5", charts, tab)
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	s := sharedStudy()
	for i := 0; i < b.N; i++ {
		chart, tab, err := experiments.Figure6(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			saveArtifact(b, "figure6", chart, tab)
		}
	}
}

func BenchmarkFigure7(b *testing.B) {
	s := sharedStudy()
	for i := 0; i < b.N; i++ {
		chart, tab, err := experiments.Figure7(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			saveArtifact(b, "figure7", chart, tab)
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	s := sharedStudy()
	for i := 0; i < b.N; i++ {
		chart, tab, err := experiments.Figure8(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			saveArtifact(b, "figure8", chart, tab)
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	s := sharedStudy()
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Table4(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			parts := []interface{}{tab}
			if sum, err := experiments.Table4SuiteSummary(s); err == nil {
				parts = append(parts, sum)
			}
			saveArtifact(b, "table4", parts...)
		}
	}
}

func BenchmarkFigure9(b *testing.B) {
	s := sharedStudy()
	for i := 0; i < b.N; i++ {
		chart, tab, err := experiments.Figure9(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			saveArtifact(b, "figure9", chart, tab)
		}
	}
}

func BenchmarkFigure10(b *testing.B) {
	s := sharedStudy()
	for i := 0; i < b.N; i++ {
		chart, tab, err := experiments.Figure10(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			saveArtifact(b, "figure10", chart, tab)
		}
	}
}

// --- Ablation benches (DESIGN.md's design-choice list) ---

func benchAblation(b *testing.B, name string, f func(*experiments.Study) (*Table, error)) {
	b.Helper()
	s := sharedStudy()
	for i := 0; i < b.N; i++ {
		tab, err := f(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			saveArtifact(b, name, tab)
		}
	}
}

func BenchmarkAblationRepPolicy(b *testing.B) {
	benchAblation(b, "ablation-reppolicy", experiments.AblationRepPolicy)
}

func BenchmarkAblationPKPThreshold(b *testing.B) {
	benchAblation(b, "ablation-pkpthreshold", experiments.AblationPKPThreshold)
}

func BenchmarkAblationWaveConstraint(b *testing.B) {
	benchAblation(b, "ablation-waveconstraint", experiments.AblationWaveConstraint)
}

func BenchmarkAblationPCA(b *testing.B) {
	benchAblation(b, "ablation-pca", experiments.AblationPCA)
}

func BenchmarkAblationClusteringScale(b *testing.B) {
	benchAblation(b, "ablation-clusteringscale", experiments.AblationClusteringScale)
}

func BenchmarkAblationClassifier(b *testing.B) {
	benchAblation(b, "ablation-classifier", experiments.AblationClassifier)
}

// --- Substrate microbenchmarks ---

// BenchmarkSimulatorThroughput measures the cycle-level simulator's warp-
// instruction rate on a mixed kernel. The run arm is the cycle loop alone:
// one simulator, flushed back to its cold state off the clock, so ns/op and
// Mwi/s are RunKernel and nothing else (the arm `make profile-sim`
// profiles). The new+run arm adds sim.New — what a kernel task costs when
// the study layer cannot reuse a simulator.
func BenchmarkSimulatorThroughput(b *testing.B) {
	k := KernelDesc{
		Name: "bench", Grid: D1(640), Block: D1(256),
		Mix:              InstrMix{Compute: 120, GlobalLoads: 12, SharedLoads: 20},
		CoalescingFactor: 4, WorkingSetBytes: 32 << 20, StridedFraction: 0.7,
		DivergenceEff: 0.95, Seed: 42,
	}
	arm := func(b *testing.B, fresh bool) {
		s := sim.New(VoltaV100())
		var warpInstrs int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if fresh {
				s = sim.New(VoltaV100())
			} else {
				b.StopTimer()
				s.Flush()
				b.StartTimer()
			}
			res, err := s.RunKernel(&k, sim.Options{})
			if err != nil {
				b.Fatal(err)
			}
			warpInstrs += res.WarpInstrs
		}
		b.ReportMetric(float64(warpInstrs)/b.Elapsed().Seconds()/1e6, "Mwi/s")
	}
	b.Run("run", func(b *testing.B) { arm(b, false) })
	b.Run("new+run", func(b *testing.B) { arm(b, true) })
}

// BenchmarkKMeansSweep measures the PKS clustering sweep on a
// profiler-scale point set. The distinct arm is 5 000 points no two of
// which coincide: interning finds nothing to share, so it is what the sweep
// costs when the mechanism is bypassed. The dup arm draws the same 5 000
// points from 40 distinct rows, the shape of a scaled workload (Figure 4: a
// few kernels launched thousands of times).
func BenchmarkKMeansSweep(b *testing.B) {
	arm := func(b *testing.B, distinct int) {
		rng := stats.NewRNG(9)
		rows := make([][]float64, distinct)
		for i := range rows {
			rows[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		}
		pts := rows
		if distinct < 5000 {
			pts = make([][]float64, 5000)
			for i := range pts {
				pts[i] = rows[rng.Intn(distinct)]
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ds, err := cluster.NewDataset(pts)
			if err != nil {
				b.Fatal(err)
			}
			for k := 1; k <= 10; k++ {
				if _, err := ds.KMeans(k, cluster.KMeansOptions{Seed: uint64(k)}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("distinct", func(b *testing.B) { arm(b, 5000) })
	b.Run("dup", func(b *testing.B) { arm(b, 40) })
}

// BenchmarkSelectSet is one pass over the repository benchmark's
// select_cold studies: six workloads of 1 500 to 29 000 launches under the
// default options, a 0.5 % target that sweeps K to 20, and a 1 000-kernel
// detailed cap that forces two-level selection. `make profile-select`
// profiles it.
func BenchmarkSelectSet(b *testing.B) {
	var ws []*workload.Workload
	for _, name := range []string{
		"MLPerf/resnet50_64b_inf", "MLPerf/resnet50_128b_inf", "MLPerf/resnet50_256b_inf",
		"MLPerf/3dunet_inf", "Polybench/gramschmidt", "Polybench/fdtd2d",
	} {
		w := workload.Find(name)
		if w == nil {
			b.Fatalf("no workload %s", name)
		}
		ws = append(ws, w)
	}
	variants := []pks.Options{{}, {TargetErrorPct: 0.5}, {MaxDetailed: 1000}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range ws {
			for _, opts := range variants {
				if _, err := pks.Select(gpu.VoltaV100(), w, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkSelectProbe is the repository benchmark's select_cold probe: one
// selection over MLPerf/ssd_training's 1.06 M launches, 233 206 of them
// profiled in detail, stopped where pks.Select stops. `make profile-probe`
// reads the -memprofile for what the selection allocates, and the heap
// profile this bench writes beside it, probe.live.prof, for what is live as
// the K sweep starts: the detailed pool and the selection being built.
func BenchmarkSelectProbe(b *testing.B) {
	w := workload.Find("MLPerf/ssd_training")
	if w == nil {
		b.Fatal("no workload MLPerf/ssd_training")
	}
	var live bytes.Buffer
	score := func(o pks.Options, p *pks.Pool) pks.ScoreFunc {
		if live.Len() == 0 {
			runtime.GC() // a heap profile shows the allocations of two cycles ago
			runtime.GC()
			if err := pprof.Lookup("heap").WriteTo(&live, 0); err != nil {
				b.Fatal(err)
			}
		}
		return func(_ int, clusters []pks.Cluster) (float64, bool) {
			projected, total := pks.ProjectedCycles(clusters, p)
			e := stats.AbsPctErr(float64(projected), float64(total))
			return e, e <= o.TargetErrorPct
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pks.SelectSegments(gpu.VoltaV100(), []*workload.Workload{w}, pks.Options{}, score); err != nil {
			b.Fatal(err)
		}
	}
	if f := flag.Lookup("test.memprofile"); f != nil && f.Value.String() != "" {
		path := filepath.Join(filepath.Dir(f.Value.String()), "probe.live.prof")
		if err := os.WriteFile(path, live.Bytes(), 0o644); err != nil {
			b.Fatal(err)
		}
	}
}

// simSet is the repository benchmark's simList: the eight workloads its
// sim_cold and warm_batch studies evaluate.
func simSet(b *testing.B) []*workload.Workload {
	var ws []*workload.Workload
	for _, name := range []string{
		"Rodinia/hots_1024", "Rodinia/lud_i", "DeepBench/gemm_train_4", "Parboil/bfs",
		"Cutlass/1536x256x512_wgemm", "Rodinia/kmeans_819k", "Rodinia/dwt2d_rgb", "MLPerf/3dunet_inf",
	} {
		w := workload.Find(name)
		if w == nil {
			b.Fatalf("no workload %s", name)
		}
		ws = append(ws, w)
	}
	return ws
}

// evaluateSet is one pass over ws the way the repository benchmark runs a
// study: width 1, a fresh Exec per study, over the primed store — or, with
// none, over a fresh, empty one per study.
func evaluateSet(b *testing.B, ws []*workload.Workload, primed *artifact.Store) {
	for _, w := range ws {
		store := primed
		if store == nil {
			var err error
			if store, err = artifact.Open(b.TempDir(), artifact.Options{}); err != nil {
				b.Fatal(err)
			}
		}
		ex := sampling.NewExec(parallel.NewScheduler(1), store)
		if _, err := core.Evaluate(core.Config{Device: gpu.VoltaV100(), Parallelism: 1, Exec: ex}, w); err != nil {
			b.Fatal(err)
		}
		if primed == nil {
			store.Close()
		}
	}
}

// BenchmarkColdSet is one pass over the repository benchmark's sim_cold
// studies: the eight simList evaluations at width 1, a fresh Exec over a
// fresh, empty store each, so every kernel is simulated — once, with the
// shorter policies read off the longest one's pass. `make profile-cold`
// profiles it.
func BenchmarkColdSet(b *testing.B) {
	ws := simSet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evaluateSet(b, ws, nil)
	}
}

// BenchmarkWarmSet is one pass over the repository benchmark's warm_batch
// studies: the eight simList evaluations at width 1 over a store a cold pass
// primed, a fresh Exec per study, so every kernel outcome — and the selection
// — is a disk read. `make profile-warm` profiles it.
func BenchmarkWarmSet(b *testing.B) {
	store, err := artifact.Open(b.TempDir(), artifact.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	ws := simSet(b)
	evaluateSet(b, ws, store) // cold: primes the store
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evaluateSet(b, ws, store)
	}
}

// BenchmarkWorkloadGeneration measures index-based kernel generation,
// which streaming million-kernel profiling passes depend on.
func BenchmarkWorkloadGeneration(b *testing.B) {
	w := workload.Find("MLPerf/bert_offline_inf")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := w.Kernel(i % w.N)
		if k.Grid.X == 0 {
			b.Fatal("bad kernel")
		}
	}
}
