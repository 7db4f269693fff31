// Benchmarks that regenerate every table and figure of the paper's
// evaluation (one benchmark per artifact), plus ablation benches for the
// design choices DESIGN.md calls out and microbenchmarks of the hot
// substrates.
//
// The experiment benches share one memoized Study, so the first benchmark
// that needs an artifact pays for it and the rest reuse it; a full
//
//	go test -bench=. -benchmem
//
// run therefore costs roughly one complete 147-workload study, with
// per-workload artifacts fanned across GOMAXPROCS workers (tens of
// minutes on one core, less with more). Individual artifacts can be
// regenerated with -bench=BenchmarkTable4 etc., or via cmd/pkaexp;
// BenchmarkStudyParallel isolates the fan-out speedup itself.
package pka

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pka/internal/artifact"
	"pka/internal/cluster"
	"pka/internal/core"
	"pka/internal/dedup"
	"pka/internal/experiments"
	"pka/internal/gpu"
	"pka/internal/parallel"
	"pka/internal/pkp"
	"pka/internal/pks"
	"pka/internal/predict"
	"pka/internal/remote"
	"pka/internal/sampling"
	"pka/internal/serve"
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

// BenchmarkStudyParallel measures the study engine's fan-out: the same
// multi-workload Figure-6 sweep generated serially (Parallelism=1) and
// with four workers, each on a fresh unmemoized Study. Four study workers
// only help when the runtime can actually run them on distinct processors,
// so the p=4 and speedup sub-benches pin GOMAXPROCS to the worker count;
// the speedup sub-bench (serial-time / parallel-time per iteration) is
// skipped outright on a single-CPU machine, where it could only record a
// meaningless ~1x.
func BenchmarkStudyParallel(b *testing.B) {
	ws := studyBenchSet(b)
	sweep := func(p int) time.Duration {
		s := experiments.New()
		s.Cfg.Parallelism = p
		s.SetWorkloads(ws)
		t0 := time.Now()
		if _, _, err := experiments.Figure6(s); err != nil {
			b.Fatal(err)
		}
		return time.Since(t0)
	}
	b.Run("p=1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sweep(1)
		}
	})
	b.Run("p=4", func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
		for i := 0; i < b.N; i++ {
			sweep(4)
		}
	})
	b.Run("speedup", func(b *testing.B) {
		if runtime.NumCPU() < 2 {
			b.Skip("speedup needs >= 2 CPUs; a single-CPU measurement would be meaningless")
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
		for i := 0; i < b.N; i++ {
			serial := sweep(1)
			par := sweep(4)
			b.ReportMetric(serial.Seconds()/par.Seconds(), "x")
		}
	})
}

// studyBenchSet is the multi-workload subset the study-engine benches
// sweep: large and small, regular and irregular, so the scheduler sees a
// heavy-tailed task-cost distribution.
func studyBenchSet(b *testing.B) []*workload.Workload {
	b.Helper()
	var ws []*workload.Workload
	for _, n := range []string{
		"Rodinia/gauss_208", "Rodinia/bfs65536", "Rodinia/hots_512",
		"Parboil/histo", "Polybench/fdtd2d", "Cutlass/128x128x512_sgemm",
	} {
		w := workload.Find(n)
		if w == nil {
			b.Fatalf("missing workload %s", n)
		}
		ws = append(ws, w)
	}
	return ws
}

// BenchmarkStudyKernelSched isolates the kernel-granular scheduler: one
// workload's full simulation split into per-kernel tasks, executed at
// scheduler width 1 and 4 with no caching. Unlike BenchmarkStudyParallel's
// per-workload fan-out, a single many-kernel workload can only scale if
// parallelism reaches inside the workload — which is exactly what the
// kernel scheduler adds.
func BenchmarkStudyKernelSched(b *testing.B) {
	w := workload.Find("Rodinia/gauss_208")
	if w == nil {
		b.Fatal("missing workload")
	}
	dev := VoltaV100()
	run := func(width int) time.Duration {
		ex := sampling.NewExec(parallel.NewScheduler(width), nil)
		t0 := time.Now()
		if _, err := ex.FullSim(dev, w, 0); err != nil {
			b.Fatal(err)
		}
		return time.Since(t0)
	}
	b.Run("w=1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(1)
		}
	})
	b.Run("w=4", func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
		for i := 0; i < b.N; i++ {
			run(4)
		}
	})
	b.Run("speedup", func(b *testing.B) {
		if runtime.NumCPU() < 2 {
			b.Skip("speedup needs >= 2 CPUs; a single-CPU measurement would be meaningless")
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
		for i := 0; i < b.N; i++ {
			serial := run(1)
			par := run(4)
			b.ReportMetric(serial.Seconds()/par.Seconds(), "x")
		}
	})
	// The steady-state cost of one kernel task must stay near zero: the
	// simulator pool reuses cache arrays across tasks, so a warm task is a
	// flush plus the simulation itself. The bound is loose headroom over
	// the ~3 allocs measured when the pool was introduced (down from ~730
	// on the always-fresh path); busting it means per-task simulator
	// construction has crept back in.
	b.Run("allocs", func(b *testing.B) {
		k := w.Kernel(0)
		task := sampling.KernelTask{Mode: sampling.ModeFull}
		var ex *sampling.Exec
		if _, err := ex.RunKernelTask(dev, &k, task); err != nil { // warm the pool
			b.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := ex.RunKernelTask(dev, &k, task); err != nil {
				b.Fatal(err)
			}
		})
		b.ReportMetric(allocs, "allocs/op")
		if allocs > 32 {
			b.Fatalf("warm kernel task costs %.0f allocs/op, want <= 32: the simulator pool is no longer being reused", allocs)
		}
	})
}

// benchWorkerEnv marks a re-exec of the test binary as a loopback pkad
// worker process for BenchmarkStudyRemote.
const benchWorkerEnv = "PKA_BENCH_WORKER"

// TestMain lets the test binary double as its own worker fleet: when
// benchWorkerEnv is set the process serves the remote-exec protocol on an
// ephemeral loopback port (printing the address on stdout) instead of
// running tests.
func TestMain(m *testing.M) {
	if os.Getenv(benchWorkerEnv) != "" {
		runBenchWorker()
		return
	}
	os.Exit(m.Run())
}

func runBenchWorker() {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench worker:", err)
		os.Exit(1)
	}
	fmt.Println(ln.Addr().String())
	srv := remote.NewServer(sampling.NewExec(nil, nil), 4)
	if err := http.Serve(ln, srv.Handler()); err != nil {
		fmt.Fprintln(os.Stderr, "bench worker:", err)
		os.Exit(1)
	}
}

// spawnBenchWorker re-execs the test binary as one loopback worker and
// returns its base URL. Skips (not fails) when the process can't be
// spawned, so sandboxed runners degrade gracefully.
func spawnBenchWorker(b *testing.B) string {
	b.Helper()
	exe, err := os.Executable()
	if err != nil {
		b.Skipf("cannot locate test binary: %v", err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), benchWorkerEnv+"=1")
	out, err := cmd.StdoutPipe()
	if err != nil {
		b.Skipf("worker stdout: %v", err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		b.Skipf("spawning loopback worker: %v", err)
	}
	b.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})
	line, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		b.Skipf("reading worker address: %v", err)
	}
	return "http://" + strings.TrimSpace(line)
}

// BenchmarkStudyRemote measures the scale-out tier: the Figure-6 sweep on
// a fresh Study per iteration, entirely in-process versus dispatched to
// two loopback worker processes. Separate processes sidestep GOMAXPROCS:
// on a multi-core box the workers' simulations run on cores the local
// process isn't using, so the sweep should beat single-process; on one
// CPU the RPC overhead makes the comparison meaningless and the speedup
// sub-bench skips.
func BenchmarkStudyRemote(b *testing.B) {
	ws := studyBenchSet(b)
	sweep := func(d *remote.Dispatcher) time.Duration {
		s := experiments.New()
		s.Cfg.Parallelism = 4
		s.SetWorkloads(ws)
		if d != nil {
			s.Cfg.Exec = sampling.NewExec(parallel.NewScheduler(s.Cfg.Parallelism), nil)
			s.Cfg.Exec.SetRemote(d)
		}
		t0 := time.Now()
		if _, _, err := experiments.Figure6(s); err != nil {
			b.Fatal(err)
		}
		return time.Since(t0)
	}
	pool := func(b *testing.B) *remote.Dispatcher {
		return remote.NewDispatcher(remote.DispatcherOptions{
			Workers: []string{spawnBenchWorker(b), spawnBenchWorker(b)},
		})
	}
	b.Run("local", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sweep(nil)
		}
	})
	b.Run("workers=2", func(b *testing.B) {
		d := pool(b)
		for i := 0; i < b.N; i++ {
			sweep(d)
		}
	})
	b.Run("speedup", func(b *testing.B) {
		if runtime.NumCPU() < 4 {
			b.Skip("remote speedup needs >= 4 CPUs; worker processes on a single CPU only add RPC overhead")
		}
		d := pool(b)
		for i := 0; i < b.N; i++ {
			local := sweep(nil)
			dist := sweep(d)
			b.ReportMetric(local.Seconds()/dist.Seconds(), "x")
		}
	})
}

// BenchmarkStudyCache measures the persistent artifact cache: the same
// Figure-6 sweep on a fresh Study per iteration, cold (empty directory
// every time) versus warm (a directory prewarmed once, so every kernel
// outcome is served from disk). Fresh Studies keep the in-memory caches
// cold in both arms; only the disk layer differs.
func BenchmarkStudyCache(b *testing.B) {
	ws := studyBenchSet(b)
	sweep := func(dir string) time.Duration {
		st, err := artifact.Open(dir, artifact.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		s := experiments.New()
		s.SetWorkloads(ws)
		s.Cfg.Exec = sampling.NewExec(parallel.NewScheduler(s.Cfg.Parallelism), st)
		t0 := time.Now()
		if _, _, err := experiments.Figure6(s); err != nil {
			b.Fatal(err)
		}
		return time.Since(t0)
	}
	warmDir := b.TempDir()
	sweep(warmDir) // prewarm the warm arm's directory
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sweep(b.TempDir())
		}
	})
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sweep(warmDir)
		}
	})
	b.Run("speedup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cold := sweep(b.TempDir())
			warm := sweep(warmDir)
			b.ReportMetric(cold.Seconds()/warm.Seconds(), "x")
		}
	})
}

// BenchmarkStudyPredict measures the learned tier-0 predictor: the same
// study set evaluated on a fresh Exec with no caches at all, versus a
// fresh Exec whose only shortcut is a predictor model trained from a
// prewarmed artifact store. Every kernel task hits a training key, so
// the predict arm serves exact stored outcomes from memory without
// simulating or touching disk — the warm-path replacement the tier
// exists for. CI gates nopredict/predict >= 1.3x; the gate needs no CPU
// floor because the win is work elimination, not parallelism.
func BenchmarkStudyPredict(b *testing.B) {
	ws := studyBenchSet(b)
	dev := gpu.VoltaV100()
	st, err := artifact.Open(b.TempDir(), artifact.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	evalAll := func(e *sampling.Exec) time.Duration {
		t0 := time.Now()
		for _, w := range ws {
			if _, err := core.Evaluate(core.Config{Device: dev, Exec: e}, w); err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(t0)
	}
	evalAll(sampling.NewExec(parallel.NewScheduler(0), st)) // warm the store
	samples, scan := predict.ScanStore(dev, st, ws, predict.ScanOptions{})
	if scan.Hits == 0 {
		b.Fatalf("store scan found no training samples: %+v", scan)
	}
	model, err := predict.Train(dev, samples, predict.TrainOptions{})
	if err != nil {
		b.Fatal(err)
	}
	run := func(withModel bool) time.Duration {
		e := sampling.NewExec(parallel.NewScheduler(0), nil)
		if withModel {
			e.SetPredictor(predict.NewTier(model, predict.TierOptions{VerifyFraction: -1}))
		}
		return evalAll(e)
	}
	b.Run("nopredict", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(false)
		}
	})
	b.Run("predict", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(true)
		}
	})
	b.Run("speedup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nop := run(false)
			pred := run(true)
			b.ReportMetric(nop.Seconds()/pred.Seconds(), "x")
		}
	})
}

// BenchmarkStudySuiteDedup measures the tentpole saving of the suite
// dedup pass on the gauss size-variant suite: the `perapp` arm runs each
// workload through its own PKS selection, the `dedup` arm runs the whole
// suite through one shared cross-workload selection. Both arms report
// the total simulated warp-instructions as a `warp-instrs` metric; CI
// gates perapp/dedup >= 1.3x via benchjson -check-metric-ratio, pinning
// the headline reduction the dedup pass exists for.
func BenchmarkStudySuiteDedup(b *testing.B) {
	dev := gpu.VoltaV100()
	var ws []*workload.Workload
	for _, n := range []string{"Rodinia/gauss_s16", "Rodinia/gauss_s64", "Rodinia/gauss_s256"} {
		w := workload.Find(n)
		if w == nil {
			b.Fatalf("missing workload %s", n)
		}
		ws = append(ws, w)
	}
	cfg := core.Config{Device: dev}
	b.Run("perapp", func(b *testing.B) {
		var work int64
		for i := 0; i < b.N; i++ {
			work = 0
			for _, w := range ws {
				sel, err := pks.Select(dev, w, pks.Options{})
				if err != nil {
					b.Fatal(err)
				}
				out, err := core.RunSampled(cfg, w, sel, false)
				if err != nil {
					b.Fatal(err)
				}
				work += out.SimWarpInstrs
			}
		}
		b.ReportMetric(float64(work), "warp-instrs")
	})
	b.Run("dedup", func(b *testing.B) {
		var work int64
		for i := 0; i < b.N; i++ {
			suite, err := dedup.Select(dev, ws, dedup.Options{})
			if err != nil {
				b.Fatal(err)
			}
			run, err := dedup.Run(cfg, ws, suite, false)
			if err != nil {
				b.Fatal(err)
			}
			work = run.SimWarpInstrs
		}
		b.ReportMetric(float64(work), "warp-instrs")
	})
}

// serveBenchTemplates builds the serving-tier bench request set: a mixed-
// tenant batch of pka studies on the same workload, each with a distinct
// PKP window so every request has a distinct content key — no arm gets to
// collapse the batch into one simulation via the mem cache, and the bench
// measures real study execution rather than cache lookups.
func serveBenchTemplates() []serve.StudyRequest {
	tenants := []string{"prod", "prod", "prod", "batch"}
	reqs := make([]serve.StudyRequest, 12)
	for i := range reqs {
		reqs[i] = serve.StudyRequest{
			Tenant:   tenants[i%len(tenants)],
			Workload: "Rodinia/hots_512",
			Window:   1000 + i,
		}
	}
	return reqs
}

// BenchmarkStudyStream measures what streaming PKS buys: the same
// workload evaluated phase-sequentially (Principal Kernel Selection runs
// to completion, then the evaluation phases fan out at p=4) and through
// the streaming pipeline (profiling, advisory clustering, and speculative
// simulation overlap event arrival at the same parallelism). Both arms
// compute byte-identical evaluations on fresh unmemoized Execs; the
// difference is pure phase overlap, so the speedup sub-bench (gated by
// benchjson -check-ratio at >= 4 CPUs) records how much reconciliation
// work the speculative warms moved under the profiling phase.
func BenchmarkStudyStream(b *testing.B) {
	w := workload.Find("Rodinia/gauss_208")
	if w == nil {
		b.Fatal("missing workload Rodinia/gauss_208")
	}
	cfgFor := func() core.Config {
		return core.Config{
			Device:      gpu.VoltaV100(),
			Parallelism: 4,
			Exec:        sampling.NewExec(parallel.NewScheduler(4), nil),
		}
	}
	sequential := func() time.Duration {
		c := cfgFor()
		t0 := time.Now()
		sel, err := pks.Select(c.Device, w, c.PKSOptions())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.EvaluateWithSelection(c, w, sel); err != nil {
			b.Fatal(err)
		}
		return time.Since(t0)
	}
	streaming := func() time.Duration {
		c := cfgFor()
		t0 := time.Now()
		if _, err := core.RunStream(c, w, core.StreamOptions{SpecWorkers: 3}); err != nil {
			b.Fatal(err)
		}
		return time.Since(t0)
	}
	b.Run("sequential", func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
		for i := 0; i < b.N; i++ {
			sequential()
		}
	})
	b.Run("streaming", func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
		for i := 0; i < b.N; i++ {
			streaming()
		}
	})
	b.Run("speedup", func(b *testing.B) {
		if runtime.NumCPU() < 4 {
			b.Skip("overlap needs >= 4 CPUs; without cores to run the warms on, streaming only adds bookkeeping")
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
		for i := 0; i < b.N; i++ {
			serial := sequential()
			par := streaming()
			b.ReportMetric(serial.Seconds()/par.Seconds(), "x")
		}
	})
}

// BenchmarkServe measures the serving tier against the batch path it
// wraps. `direct` is the reference: the same request set run serially
// through serve.Run on a fresh Exec. `served` pushes the set through a
// real HTTP server with four closed-loop clients — its ns/op over
// direct's is the end-to-end overhead of the serving stack (decode,
// admission, weighted-fair queueing, response marshaling), gated by
// benchjson's -check-max-ratio. `qps=64` drives the server open-loop at a
// fixed arrival rate and reports the client-observed p50/p99.
func BenchmarkServe(b *testing.B) {
	templates := serveBenchTemplates()
	weights := map[string]int{"prod": 3, "batch": 1}
	newServer := func() (*serve.Server, *httptest.Server) {
		srv := serve.New(serve.Options{
			Exec:          sampling.NewExec(parallel.NewScheduler(4), nil),
			Workers:       4,
			QueueDepth:    len(templates),
			TenantWeights: weights,
		})
		return srv, httptest.NewServer(srv.Handler())
	}
	post := func(client *http.Client, url string, req *serve.StudyRequest) error {
		doc, err := json.Marshal(req)
		if err != nil {
			return err
		}
		resp, err := client.Post(url+serve.StudyPath, "application/json", bytes.NewReader(doc))
		if err != nil {
			return err
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: %s", resp.Status, body)
		}
		return nil
	}

	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ex := sampling.NewExec(parallel.NewScheduler(4), nil)
			for j := range templates {
				req := templates[j]
				if _, err := serve.Run(ex, nil, &req); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("served", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, ts := newServer()
			var wg sync.WaitGroup
			for c := 0; c < 4; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for j := c; j < len(templates); j += 4 {
						req := templates[j]
						if err := post(ts.Client(), ts.URL, &req); err != nil {
							b.Error(err)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			ts.Close()
		}
	})
	b.Run("traced", func(b *testing.B) {
		// The served arm with tracing and provenance requested on every
		// study: its ns/op over served's is the full observability tax
		// (span collection, flight recording, trace marshaling), gated at
		// 1.2x by benchjson's -check-max-ratio.
		for i := 0; i < b.N; i++ {
			_, ts := newServer()
			var wg sync.WaitGroup
			for c := 0; c < 4; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for j := c; j < len(templates); j += 4 {
						req := templates[j]
						req.Trace = true
						req.Provenance = true
						if err := post(ts.Client(), ts.URL, &req); err != nil {
							b.Error(err)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			ts.Close()
		}
	})
	b.Run("qps=64", func(b *testing.B) {
		var p50, p99 time.Duration
		for i := 0; i < b.N; i++ {
			_, ts := newServer()
			gen := &serve.LoadGen{
				Rate:      64,
				Requests:  len(templates),
				Seed:      1,
				Templates: templates,
				Do: func(req *serve.StudyRequest) error {
					return post(ts.Client(), ts.URL, req)
				},
			}
			rep, err := gen.Run()
			ts.Close()
			if err != nil {
				b.Fatal(err)
			}
			if rep.Errors > 0 {
				b.Fatalf("%d of %d requests failed", rep.Errors, rep.Requests)
			}
			p50, p99 = rep.P50, rep.P99
		}
		b.ReportMetric(float64(p50)/1e6, "p50-ms")
		b.ReportMetric(float64(p99)/1e6, "p99-ms")
	})
}

// --- Substrate microbenchmarks ---

// BenchmarkSimulatorThroughput measures the cycle-level simulator's warp-
// instruction rate on a mixed kernel. The run arm is the cycle loop alone:
// one simulator, flushed back to its cold state off the clock, so ns/op and
// Mwi/s are RunKernel and nothing else (this is the arm bench-check gates
// and `make profile-sim` profiles). The new+run arm adds sim.New — what a
// kernel task costs when the study layer cannot reuse a simulator.
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

// BenchmarkSiliconModel measures the analytical hardware model's kernel
// evaluation rate — it must stay in the nanoseconds for million-kernel
// silicon walks.
func BenchmarkSiliconModel(b *testing.B) {
	w := workload.Find("MLPerf/ssd_training")
	k := w.Kernel(12345)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExecuteSilicon(VoltaV100(), &k); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKMeansSweep measures the PKS clustering sweep on a
// profiler-scale point set. The distinct arm is 5 000 points no two of
// which coincide: interning finds nothing to share, so it is the arm
// bench-check gates — what the sweep costs when the mechanism is bypassed.
// The dup arm draws the same 5 000 points from 40 distinct rows, the shape
// of a scaled workload (Figure 4: a few kernels launched thousands of times).
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

// BenchmarkRollingDetector measures PKP's per-cycle bookkeeping cost.
func BenchmarkRollingDetector(b *testing.B) {
	p := pkp.New(pkp.Options{})
	t := &sim.Telemetry{WaveSize: 80, BlocksTotal: 800, IssuedThisCycle: 256}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Cycle = int64(i)
		p.Tick(t)
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
