// Package dedup implements suite-level principal kernel deduplication:
// a cross-workload extension of Principal Kernel Selection for studies
// that sweep an entire benchmark suite at once. Per-app PKS clusters each
// workload in isolation, so two apps that launch near-identical kernels
// (size variants of the same benchmark, shared library kernels, repeated
// layers across models) each pay for their own representative. The dedup
// pass instead pools every workload's detailed Table-2 feature vectors,
// projects them into one shared PCA space, sweeps K over the pooled
// population, and elects ONE simulated representative per cross-workload
// cluster. Per-app group weights are re-derived from each app's own
// cluster membership, so every app's projected cycles, IPC, and DRAM
// tables remain statistically faithful while the total warp instructions
// actually simulated drops well below the sum of per-app selections.
//
// Error envelope: the K sweep stops only when the suite-level projected
// cycle error is under Options.TargetErrorPct (default 5%) AND every
// app's own projection error over the pooled sample is under
// Options.PerAppErrorPct (default 2× the suite target, i.e. 10%) — the
// per-app bound is what keeps a small app from being silently absorbed
// into a big app's clusters. The envelope holds at selection time against
// silicon; end to end the suite tests pin it RELATIVE to the per-app
// pipeline — the simulator's own model error is common to both, so dedup
// may not degrade any app's projection by more than the envelope over
// what per-app PKS already produces.
//
// Determinism: pooling order is app-major and chronological within each
// app, sampling is strided, k-means seeds derive from Options.Seed, and
// the runner folds outcomes in fixed (app, representative) order — so a
// dedup study is byte-identical at any parallelism and any cache state,
// exactly like the per-app pipeline.
package dedup

import (
	"errors"
	"fmt"

	"pka/internal/core"
	"pka/internal/gpu"
	"pka/internal/obs"
	"pka/internal/pks"
	"pka/internal/profiler"
	"pka/internal/stats"
	"pka/internal/trace"
	"pka/internal/workload"
)

// Options configures a suite-level dedup selection. The zero value
// reproduces the per-app PKS defaults lifted to the suite.
type Options struct {
	// TargetErrorPct is the suite-level projected-cycle error threshold
	// that (together with PerAppErrorPct) ends the K sweep. Zero applies 5.
	TargetErrorPct float64
	// PerAppErrorPct bounds every app's own projection error over the
	// pooled sample before the sweep may stop — the envelope documented in
	// the package comment. Zero applies 2× TargetErrorPct.
	PerAppErrorPct float64
	// MaxK bounds the sweep. Zero applies 20 plus 5 per additional
	// workload: a suite needs headroom over a single app's 20, but far
	// less than the sum of per-app Ks — that gap is the dedup win.
	MaxK int
	// PCAVarianceTarget is the explained-variance fraction kept (0.9).
	PCAVarianceTarget float64
	// DetailedBudgetSeconds bounds modeled detailed-profiling time per
	// workload before two-level profiling engages. Zero applies the
	// paper's one week.
	DetailedBudgetSeconds float64
	// MaxDetailedPerApp caps detailed-profiled kernels per workload
	// outright (0 = budget only).
	MaxDetailedPerApp int
	// ClusterSampleMax subsamples the pooled set for the K sweep; the
	// rest are nearest-center assigned afterwards. Zero applies 20000.
	ClusterSampleMax int
	// Seed drives k-means++ and the classifier ensemble.
	Seed uint64

	// Audit, when non-nil, receives one "sweep-step" record per K tried
	// and a "selected" record for the chosen K, component "dedup".
	Audit *obs.Audit
	// Metrics, when non-nil, receives the pka_dedup_* family.
	Metrics *obs.DedupMetrics
}

func (o Options) filled(napps int) Options {
	if o.TargetErrorPct <= 0 {
		o.TargetErrorPct = 5
	}
	if o.PerAppErrorPct <= 0 {
		o.PerAppErrorPct = 2 * o.TargetErrorPct
	}
	if o.MaxK <= 0 {
		o.MaxK = 20 + 5*(napps-1)
	}
	if o.PCAVarianceTarget <= 0 || o.PCAVarianceTarget > 1 {
		o.PCAVarianceTarget = 0.9
	}
	if o.DetailedBudgetSeconds <= 0 {
		o.DetailedBudgetSeconds = profiler.DefaultDetailedBudgetSeconds
	}
	if o.ClusterSampleMax <= 0 {
		o.ClusterSampleMax = 20000
	}
	return o
}

// Rep is one cross-workload representative: a single kernel, owned by one
// app, that stands in for its whole suite cluster — including members
// from other apps.
type Rep struct {
	// App indexes the suite's workload slice; Workload is its full name.
	App      int
	Workload string
	// KernelID is the representative's chronological launch index within
	// its app; Name its kernel name; Cycles its detailed silicon cycles.
	KernelID int
	Name     string
	Cycles   int64
}

// AppSelection is one workload's view of the suite selection: how its
// kernel population distributes over the shared representatives.
type AppSelection struct {
	Workload string
	// TotalKernels and DetailedKernels mirror pks.Selection; TwoLevel
	// reports that the classifier mapped this app's tail.
	TotalKernels    int
	DetailedKernels int
	TwoLevel        bool
	// GroupCounts[r] is how many of this app's kernels cluster under
	// suite representative r (len == len(Suite.Reps)).
	GroupCounts []int
	// ActiveReps counts representatives this app actually uses — its
	// effective per-app K under the shared selection.
	ActiveReps int
	// SiliconTotalCycles, ProjectedCycles, and SelectionErrorPct are the
	// per-app ground truth, Σ rep-cycles × count, and their error.
	SiliconTotalCycles int64
	ProjectedCycles    int64
	SelectionErrorPct  float64
}

// Suite is the output of a suite-level dedup selection.
type Suite struct {
	Device         string
	TargetErrorPct float64
	PerAppErrorPct float64

	// K is the chosen cluster count; Reps the elected representatives
	// (one per non-empty cluster, first-chronological by (app, kernel)).
	K    int
	Reps []Rep
	// Apps holds one selection view per input workload, same order.
	Apps []AppSelection

	// PooledKernels is the size of the shared clustering population;
	// TotalKernels the suite's full launch count.
	PooledKernels int
	TotalKernels  int
	// SuiteErrorPct is the suite-total projection error at selection.
	SuiteErrorPct float64
	// SweepErrors records the suite error at each K tried (index 0: K=1).
	SweepErrors []float64
	// ProfilingSeconds is the modeled cost of both profiling passes.
	ProfilingSeconds float64
}

// pool is every app's detailed prefix in one slice, the shape the
// clustering core takes, with each record's launch shared memory and
// owning app alongside.
type pool struct {
	recs      []profiler.DetailedRecord
	sharedMem []int
	app       []int
}

// Select runs suite-level dedup selection over the workloads on the
// device. Workload order is significant only for tie-breaking (reps are
// first-chronological by (app, kernel)); the statistics are order-free.
func Select(dev gpu.Device, ws []*workload.Workload, opts Options) (*Suite, error) {
	if len(ws) == 0 {
		return nil, errors.New("dedup: empty suite")
	}
	o := opts.filled(len(ws))
	suite := &Suite{
		Device:         dev.Name,
		TargetErrorPct: o.TargetErrorPct,
		PerAppErrorPct: o.PerAppErrorPct,
		Apps:           make([]AppSelection, len(ws)),
	}

	// Pass 1: detailed-profile each app under its own budget, pooling the
	// records app-major so pool index order is (app, kernelID) order —
	// the property representative election relies on.
	var pl pool
	for a, w := range ws {
		app := &suite.Apps[a]
		app.Workload = w.FullName()
		app.TotalKernels = w.N
		suite.TotalKernels += w.N
		err := pks.ProfileDetailed(dev, w, o.DetailedBudgetSeconds, o.MaxDetailedPerApp, func(rec profiler.DetailedRecord, sharedMem int, cost float64) {
			pl.recs = append(pl.recs, rec)
			pl.sharedMem = append(pl.sharedMem, sharedMem)
			pl.app = append(pl.app, a)
			app.DetailedKernels++
			app.SiliconTotalCycles += rec.Cycles
			suite.ProfilingSeconds += cost
		})
		if err != nil {
			return nil, fmt.Errorf("dedup: detailed profiling %s: %w", app.Workload, err)
		}
		if app.DetailedKernels == 0 {
			return nil, fmt.Errorf("dedup: workload %s has no kernels", app.Workload)
		}
		app.TwoLevel = app.DetailedKernels < w.N
	}
	suite.PooledKernels = len(pl.recs)

	// One shared cluster space over the pool, through the very core per-app
	// PKS clusters with, so the cluster geometry is comparable. The sweep
	// stops only under both bounds of the envelope.
	c, err := pks.ClusterRecords(pl.recs,
		pks.ClusterParams{
			SampleMax:   o.ClusterSampleMax,
			PCAVariance: o.PCAVarianceTarget,
			MaxK:        o.MaxK,
			Seed:        o.Seed,
		}, nil,
		func(k int, clusters []pks.Cluster) (float64, bool) {
			suiteErr, maxAppErr, pooled := suiteProjectionError(clusters, pl, len(ws))
			if m := o.Metrics; m != nil {
				m.SweepSteps.Inc()
			}
			stop := suiteErr <= o.TargetErrorPct && maxAppErr <= o.PerAppErrorPct
			if o.Audit != nil {
				under := 0.0
				if stop {
					under = 1
				}
				o.Audit.Record("dedup", "sweep-step", suiteSubject(ws), 0, map[string]float64{
					"k":                 float64(k),
					"error_pct":         suiteErr,
					"max_app_error_pct": maxAppErr,
					"target_error_pct":  o.TargetErrorPct,
					"per_app_bound_pct": o.PerAppErrorPct,
					"under_target":      under,
					"pooled_kernels":    float64(pooled),
				})
			}
			return suiteErr, stop
		})
	if err != nil {
		return nil, fmt.Errorf("dedup: %w", err)
	}
	suite.SweepErrors = c.SweepErrors

	// The pool is app-major chronological, so the core's first-member
	// election is first chronological by (app, kernelID).
	suite.K = len(c.Clusters)
	for _, cl := range c.Clusters {
		rec, app := pl.recs[cl.Rep], pl.app[cl.Rep]
		suite.Reps = append(suite.Reps, Rep{
			App:      app,
			Workload: suite.Apps[app].Workload,
			KernelID: rec.KernelID,
			Name:     rec.Name,
			Cycles:   rec.Cycles,
		})
	}
	for a := range suite.Apps {
		suite.Apps[a].GroupCounts = make([]int, suite.K)
	}
	for i, app := range pl.app {
		suite.Apps[app].GroupCounts[c.GroupOf[i]]++
	}

	// Pass 2 (two-level apps only): one suite-wide ensemble, trained on
	// pooled launch features with representative labels, maps every
	// lightly-profiled tail kernel onto a shared group.
	if err := mapLightTails(dev, ws, suite, pl, c.GroupOf, o); err != nil {
		return nil, err
	}

	// Per-app and suite accounting.
	var suiteProjected, suiteSilicon int64
	for a := range suite.Apps {
		app := &suite.Apps[a]
		for r, n := range app.GroupCounts {
			if n == 0 {
				continue
			}
			app.ActiveReps++
			app.ProjectedCycles += suite.Reps[r].Cycles * int64(n)
		}
		app.SelectionErrorPct = stats.AbsPctErr(float64(app.ProjectedCycles), float64(app.SiliconTotalCycles))
		suiteProjected += app.ProjectedCycles
		suiteSilicon += app.SiliconTotalCycles
	}
	suite.SuiteErrorPct = stats.AbsPctErr(float64(suiteProjected), float64(suiteSilicon))

	if m := o.Metrics; m != nil {
		m.Selections.Inc()
		m.KernelsPooled.Add(int64(suite.PooledKernels))
		m.Reps.Add(int64(suite.K))
		m.ChosenK.Observe(float64(suite.K))
		m.SuiteErrorPct.Observe(suite.SuiteErrorPct)
	}
	if o.Audit != nil {
		o.Audit.Record("dedup", "selected", suiteSubject(ws), 0, map[string]float64{
			"k":                 float64(suite.K),
			"apps":              float64(len(ws)),
			"pooled_kernels":    float64(suite.PooledKernels),
			"total_kernels":     float64(suite.TotalKernels),
			"suite_error_pct":   suite.SuiteErrorPct,
			"target_error_pct":  o.TargetErrorPct,
			"per_app_bound_pct": o.PerAppErrorPct,
			"profiling_seconds": suite.ProfilingSeconds,
		})
	}
	return suite, nil
}

// suiteProjectionError scores one clustering: the suite-total projected
// cycle error and the worst single-app error, both over the pooled members
// the clusters hold.
func suiteProjectionError(clusters []pks.Cluster, pl pool, napps int) (suiteErr, maxAppErr float64, pooled int) {
	appProj := make([]int64, napps)
	appTotal := make([]int64, napps)
	var projected, total int64
	for _, cl := range clusters {
		repCycles := pl.recs[cl.Rep].Cycles
		pooled += len(cl.Members)
		for _, m := range cl.Members {
			projected += repCycles
			appProj[pl.app[m]] += repCycles
			total += pl.recs[m].Cycles
			appTotal[pl.app[m]] += pl.recs[m].Cycles
		}
	}
	suiteErr = stats.AbsPctErr(float64(projected), float64(total))
	for a, t := range appTotal {
		if t == 0 {
			continue
		}
		if e := stats.AbsPctErr(float64(appProj[a]), float64(t)); e > maxAppErr {
			maxAppErr = e
		}
	}
	return suiteErr, maxAppErr, pooled
}

// mapLightTails is the suite's second profiling pass: for every app whose
// detailed prefix stopped short of its launch count, light-profile the
// tail and classify each kernel onto a shared representative. One
// ensemble serves the whole suite — it is trained on the pooled detailed
// launch features, so an app's tail kernel can legitimately map onto a
// representative owned by a different app.
func mapLightTails(dev gpu.Device, ws []*workload.Workload, suite *Suite, pl pool, repOf []int, o Options) error {
	anyTail := false
	for a := range suite.Apps {
		if suite.Apps[a].TwoLevel {
			anyTail = true
			break
		}
	}
	if !anyTail {
		return nil
	}
	tail, err := pks.TrainTailClassifier(pl.recs, pl.sharedMem, repOf, suite.K, o.Seed)
	if err != nil {
		return fmt.Errorf("dedup: %w", err)
	}
	for a, w := range ws {
		app := &suite.Apps[a]
		if !app.TwoLevel {
			continue
		}
		for i := app.DetailedKernels; i < w.N; i++ {
			k := w.Kernel(i)
			rec, cost, err := profiler.Light(dev, &k)
			if err != nil {
				return fmt.Errorf("dedup: light profiling %s kernel %d: %w", app.Workload, i, err)
			}
			suite.ProfilingSeconds += cost
			app.GroupCounts[tail.Group(rec)]++
			app.SiliconTotalCycles += rec.Cycles
		}
	}
	return nil
}

// RunResult is the outcome of simulating a dedup suite: per-app sampled
// projections plus the suite's unique simulated work — the number whose
// ratio against the per-app total is the dedup speedup.
type RunResult struct {
	// Apps holds one projection per input workload, same order. Per-app
	// SimWarpInstrs/SimHours are zero by construction: representatives
	// are shared, so simulated work is only attributable suite-wide.
	Apps []core.SampledSim
	// SimWarpInstrs is the total warp instructions actually simulated —
	// each shared representative counted exactly once.
	SimWarpInstrs int64
	// SimHours is the projected simulation wall time at the modeled rate.
	SimHours float64
	// Capped reports that some representative hit the runaway guard.
	Capped bool
}

// Run simulates each suite representative exactly once (with PKP when
// usePKP is set) and projects every app's metrics from its own group
// counts. Outcomes resolve through cfg.Exec's tier ladder and fold in
// fixed (app, representative) order, so the result is byte-identical at
// any parallelism and cache state.
func Run(cfg core.Config, ws []*workload.Workload, suite *Suite, usePKP bool) (RunResult, error) {
	var out RunResult
	if suite == nil || len(suite.Reps) == 0 {
		return out, errors.New("dedup: empty suite selection")
	}
	if len(ws) != len(suite.Apps) {
		return out, fmt.Errorf("dedup: suite has %d apps, got %d workloads", len(suite.Apps), len(ws))
	}
	kernels := make([]trace.KernelDesc, len(suite.Reps))
	for i, rep := range suite.Reps {
		kernels[i] = ws[rep.App].Kernel(rep.KernelID)
	}
	ro, err := core.SimulateReps(cfg, core.Reps{
		Prefix:  "dedup-",
		Subject: suiteSubject(ws),
		Kernels: kernels,
		Owner:   func(i int) string { return suite.Reps[i].Workload },
	}, usePKP)
	if err != nil {
		return out, fmt.Errorf("dedup: suite representatives: %w", err)
	}
	out.SimWarpInstrs, out.Capped = ro.SimWarpInstrs, ro.Capped
	out.SimHours = cfg.SimHours(out.SimWarpInstrs)
	out.Apps = make([]core.SampledSim, len(ws))
	for a, app := range suite.Apps {
		out.Apps[a] = ro.Fold(app.GroupCounts, app.TotalKernels)
	}
	return out, nil
}

// suiteSubject labels audit records and spans for a suite.
func suiteSubject(ws []*workload.Workload) string {
	if len(ws) == 0 {
		return "suite"
	}
	s := ws[0].FullName()
	for _, w := range ws[1:] {
		s += "," + w.FullName()
	}
	return s
}
