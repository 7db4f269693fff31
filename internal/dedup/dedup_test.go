package dedup

import (
	"reflect"
	"testing"

	"pka/internal/core"
	"pka/internal/gpu"
	"pka/internal/obs"
	"pka/internal/parallel"
	"pka/internal/pks"
	"pka/internal/sampling"
	"pka/internal/stats"
	"pka/internal/workload"
)

// gaussSuite is the canonical dedup suite: three size variants of the
// same Rodinia benchmark, whose kernel populations overlap heavily.
func gaussSuite(t *testing.T) []*workload.Workload {
	t.Helper()
	names := []string{"Rodinia/gauss_s16", "Rodinia/gauss_s64", "Rodinia/gauss_s256"}
	ws := make([]*workload.Workload, len(names))
	for i, n := range names {
		if ws[i] = workload.Find(n); ws[i] == nil {
			t.Fatalf("missing workload %s", n)
		}
	}
	return ws
}

// The headline property: per-app projections from the shared selection
// stay inside the documented error envelope while the suite simulates
// well under the per-app PKS total: at least 1.3× fewer warp-instructions,
// an exact count on the gauss suite (3.00×), so it needs no timer.
func TestSuiteDedupEnvelope(t *testing.T) {
	dev := gpu.VoltaV100()
	ws := gaussSuite(t)
	cfg := core.Config{Device: dev}
	suite, err := Select(cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	if suite.K == 0 || len(suite.Reps) != suite.K {
		t.Fatalf("suite K=%d with %d reps", suite.K, len(suite.Reps))
	}
	if suite.SuiteErrorPct > suite.TargetErrorPct {
		t.Errorf("suite selection error %.2f%% above target %.1f%%",
			suite.SuiteErrorPct, suite.TargetErrorPct)
	}
	for _, app := range suite.Apps {
		if app.SelectionErrorPct > suite.PerAppErrorPct {
			t.Errorf("%s selection error %.2f%% outside the %.1f%% envelope",
				app.Workload, app.SelectionErrorPct, suite.PerAppErrorPct)
		}
		if got := sum(app.GroupCounts); got != app.TotalKernels {
			t.Errorf("%s group counts sum to %d, want %d", app.Workload, got, app.TotalKernels)
		}
	}

	run, apps, err := core.RunSegments(cfg, ws, suite.Segments, false)
	if err != nil {
		t.Fatal(err)
	}

	// Per-app comparison against the per-app PKS pipeline: the shared
	// selection must not degrade any app's end-to-end cycle error by more
	// than the envelope allows, and must simulate strictly less in total.
	var perAppWork int64
	for a, w := range ws {
		sel, err := pks.Select(dev, w, pks.Options{})
		if err != nil {
			t.Fatal(err)
		}
		solo, err := core.RunSampled(cfg, w, sel, false)
		if err != nil {
			t.Fatal(err)
		}
		perAppWork += solo.SimWarpInstrs

		sc, err := sampling.ScanLaunches(dev, w, sampling.Want{Silicon: true})
		if err != nil {
			t.Fatal(err)
		}
		sil := sc.Silicon
		dedupErr := stats.AbsPctErr(float64(apps[a].ProjCycles), float64(sil.Cycles))
		soloErr := stats.AbsPctErr(float64(solo.ProjCycles), float64(sil.Cycles))
		t.Logf("%s: dedup err %.2f%% (solo PKS %.2f%%), active reps %d (solo K %d)",
			w.FullName(), dedupErr, soloErr, suite.Apps[a].ActiveReps, sel.K)
		// End to end, the simulator's own model error is common to both
		// pipelines; what the envelope bounds is the *additional* error the
		// shared selection may introduce over the app's own PKS.
		if dedupErr > soloErr+suite.PerAppErrorPct {
			t.Errorf("%s dedup error %.2f%% degrades solo PKS %.2f%% by more than the %.1f%% envelope",
				w.FullName(), dedupErr, soloErr, suite.PerAppErrorPct)
		}
	}
	if run.SimWarpInstrs <= 0 || perAppWork <= 0 {
		t.Fatal("no simulated work recorded")
	}
	ratio := float64(perAppWork) / float64(run.SimWarpInstrs)
	t.Logf("suite warp instrs: per-app %d vs dedup %d (%.2fx)", perAppWork, run.SimWarpInstrs, ratio)
	if ratio < 1.3 {
		t.Errorf("dedup reduced simulated work only %.2fx, want >= 1.3x", ratio)
	}
}

// Selection and simulation must be byte-deterministic at any parallelism
// and cache state — the same invariant the per-app pipeline holds.
func TestSuiteDedupDeterminism(t *testing.T) {
	dev := gpu.VoltaV100()
	ws := gaussSuite(t)

	seeded := core.Config{Device: dev, PKS: pks.Options{Seed: 7}}
	base, err := Select(seeded, ws)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Select(seeded, ws)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, again) {
		t.Fatal("repeated Select differs")
	}

	var runs [][]core.SampledSim
	for _, p := range []int{1, 8} {
		cfg := core.Config{
			Device: dev,
			Exec:   sampling.NewExec(parallel.NewScheduler(p), nil),
		}
		total, apps, err := core.RunSegments(cfg, ws, base.Segments, true)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, append(apps, total))
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatalf("dedup run differs across parallelism: %+v vs %+v", runs[0], runs[1])
	}
}

// Forcing two-level profiling (tiny detailed caps) must keep every app's
// population fully accounted and the projections finite and sane.
func TestSuiteDedupTwoLevel(t *testing.T) {
	dev := gpu.VoltaV100()
	ws := gaussSuite(t)
	suite, err := Select(core.Config{Device: dev, PKS: pks.Options{MaxDetailed: 12}}, ws)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range suite.Apps {
		if !app.TwoLevel && app.TotalKernels > 12 {
			t.Errorf("%s should be two-level at cap 12", app.Workload)
		}
		if got := sum(app.GroupCounts); got != app.TotalKernels {
			t.Errorf("%s group counts sum to %d, want %d", app.Workload, got, app.TotalKernels)
		}
	}
	cfg := core.Config{Device: dev}
	_, apps, err := core.RunSegments(cfg, ws, suite.Segments, false)
	if err != nil {
		t.Fatal(err)
	}
	for a, w := range ws {
		sel, err := pks.Select(dev, w, pks.Options{})
		if err != nil {
			t.Fatal(err)
		}
		solo, err := core.RunSampled(cfg, w, sel, false)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := sampling.ScanLaunches(dev, w, sampling.Want{Silicon: true})
		if err != nil {
			t.Fatal(err)
		}
		sil := sc.Silicon
		e := stats.AbsPctErr(float64(apps[a].ProjCycles), float64(sil.Cycles))
		soloErr := stats.AbsPctErr(float64(solo.ProjCycles), float64(sil.Cycles))
		t.Logf("%s two-level dedup error %.2f%% (solo PKS %.2f%%)", w.FullName(), e, soloErr)
		// Classifier mapping adds error on top of the selection envelope;
		// relative to the per-app pipeline it must stay within 2x of it.
		if e > soloErr+2*suite.PerAppErrorPct {
			t.Errorf("%s two-level error %.2f%% degrades solo %.2f%% past 2x the envelope",
				w.FullName(), e, soloErr)
		}
	}
}

// Telemetry and audit must record the pass: pooled kernels, sweep steps,
// elected reps, and the selected-K audit trail under component "dedup".
func TestSuiteDedupTelemetry(t *testing.T) {
	dev := gpu.VoltaV100()
	ws := gaussSuite(t)
	o := obs.NewObserver()
	suite, err := Select(core.Config{Device: dev, Obs: o}, ws)
	if err != nil {
		t.Fatal(err)
	}
	m := o.DedupMetrics()
	if m.Selections.Value() != 1 {
		t.Errorf("selections = %d, want 1", m.Selections.Value())
	}
	if m.KernelsPooled.Value() != int64(suite.PooledKernels) {
		t.Errorf("pooled = %d, want %d", m.KernelsPooled.Value(), suite.PooledKernels)
	}
	if m.Reps.Value() != int64(suite.K) {
		t.Errorf("reps = %d, want %d", m.Reps.Value(), suite.K)
	}
	if m.SweepSteps.Value() != int64(len(suite.SweepErrors)) {
		t.Errorf("sweep steps = %d, want %d", m.SweepSteps.Value(), len(suite.SweepErrors))
	}
	var selected, steps int
	for _, r := range o.Audit.Records() {
		if r.Component != "dedup" {
			continue
		}
		switch r.Event {
		case "selected":
			selected++
			if int(r.Fields["k"]) != suite.K {
				t.Errorf("audit k = %v, want %d", r.Fields["k"], suite.K)
			}
		case "sweep-step":
			steps++
		}
	}
	if selected != 1 || steps != len(suite.SweepErrors) {
		t.Errorf("audit: %d selected / %d steps, want 1 / %d", selected, steps, len(suite.SweepErrors))
	}
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}
