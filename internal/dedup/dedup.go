// Package dedup implements suite-level principal kernel deduplication:
// Principal Kernel Selection over a whole benchmark suite at once, one
// segment per workload (pks.SelectSegments). Per-app PKS is blind to its
// neighbours, so apps that launch near-identical kernels (size variants,
// shared library kernels, layers repeated across models) each pay for their
// own representative. The suite instead pools every app's detailed records
// into one PCA space, sweeps K over the pool and simulates ONE
// representative per cross-workload cluster (core.RunSegments), while each
// app's group weights come from its own members, so its projected cycles,
// IPC and DRAM tables stay faithful to its own kernel stream.
//
// Error envelope: the K sweep stops only when the suite-level projected
// cycle error is under the PKS target (default 5%) AND every app's own error
// over the pooled sample is under twice that, so a small app is not silently
// absorbed into a big app's clusters. End to end the suite tests pin the
// envelope RELATIVE to per-app PKS, since the simulator's own model error is
// common to both.
//
// Determinism: pooling is app-major and chronological within each app,
// sampling is strided and k-means seeds derive from the PKS seed, so a dedup
// study is byte-identical at any parallelism and any cache state.
package dedup

import (
	"errors"
	"fmt"
	"strings"

	"pka/internal/core"
	"pka/internal/obs"
	"pka/internal/pks"
	"pka/internal/stats"
	"pka/internal/workload"
)

// Rep is one cross-workload representative: launch KernelID of app App
// (Workload its name), standing in for its whole suite cluster; Cycles are
// its detailed silicon cycles.
type Rep struct {
	App      int
	Workload string
	KernelID int
	Name     string
	Cycles   int64
}

// AppSelection is one workload's view of the suite selection: its segment's
// pks.Selection (counts, cycles and errors over the shared groups) and how
// its kernel population distributes over the shared representatives.
type AppSelection struct {
	*pks.Selection
	// GroupCounts[r] is the app's population of suite representative r;
	// ActiveReps counts the nonzero ones, the app's effective K.
	GroupCounts []int
	ActiveReps  int
}

// Suite is the output of a suite-level dedup selection. The embedded
// Segments is what core.RunSegments simulates; it carries the modeled
// ProfilingSeconds of both profiling passes.
type Suite struct {
	*pks.Segments
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
}

// Select runs suite-level dedup selection over the workloads on cfg.Device
// under cfg.PKS, reporting "dedup" audit records and pka_dedup_* metrics to
// cfg.Obs. Workload order only breaks ties (reps are first-chronological by
// (app, kernel)); the statistics are order-free.
func Select(cfg core.Config, ws []*workload.Workload) (*Suite, error) {
	if len(ws) == 0 {
		return nil, errors.New("dedup: empty suite")
	}
	var audit *obs.Audit
	if cfg.Obs != nil {
		audit = cfg.Obs.Audit
	}
	metrics := cfg.Obs.DedupMetrics()
	names := make([]string, len(ws))
	for a, w := range ws {
		names[a] = w.FullName()
	}
	subject := strings.Join(names, ",")
	suite := &Suite{}

	// The sweep stops only under both bounds of the envelope.
	seg, err := pks.SelectSegments(cfg.Device, ws, cfg.PKS, func(o pks.Options, p *pks.Pool) pks.ScoreFunc {
		suite.TargetErrorPct, suite.PerAppErrorPct = o.TargetErrorPct, 2*o.TargetErrorPct
		return func(k int, clusters []pks.Cluster) (float64, bool) {
			suiteErr, maxAppErr, pooled := suiteProjectionError(clusters, p)
			if metrics != nil {
				metrics.SweepSteps.Inc()
			}
			stop := suiteErr <= suite.TargetErrorPct && maxAppErr <= suite.PerAppErrorPct
			under := 0.0
			if stop {
				under = 1
			}
			audit.Record("dedup", "sweep-step", subject, 0, map[string]float64{
				"k":                 float64(k),
				"error_pct":         suiteErr,
				"max_app_error_pct": maxAppErr,
				"target_error_pct":  suite.TargetErrorPct,
				"per_app_bound_pct": suite.PerAppErrorPct,
				"under_target":      under,
				"pooled_kernels":    float64(pooled),
			})
			return suiteErr, stop
		}
	})
	if err != nil {
		return nil, fmt.Errorf("dedup: %w", err)
	}
	suite.Segments = seg
	suite.K = len(seg.Owner)
	suite.SweepErrors = seg.Sels[0].SweepErrors
	for g, a := range seg.Owner {
		rep := seg.Sels[a].Groups[g]
		suite.Reps = append(suite.Reps, Rep{App: a, Workload: names[a], KernelID: rep.RepIndex,
			Name: rep.Representative.Name, Cycles: rep.Representative.Cycles})
	}
	var suiteProjected, suiteSilicon int64
	for _, sel := range seg.Sels {
		app := AppSelection{Selection: sel, GroupCounts: make([]int, suite.K)}
		for g := range sel.Groups {
			if app.GroupCounts[g] = sel.Groups[g].Count(); app.GroupCounts[g] > 0 {
				app.ActiveReps++
			}
		}
		suite.Apps = append(suite.Apps, app)
		suite.PooledKernels += sel.DetailedKernels
		suite.TotalKernels += sel.TotalKernels
		suiteProjected += sel.ProjectedCycles
		suiteSilicon += sel.SiliconTotalCycles
	}
	suite.SuiteErrorPct = stats.AbsPctErr(float64(suiteProjected), float64(suiteSilicon))

	if metrics != nil {
		metrics.Selections.Inc()
		metrics.KernelsPooled.Add(int64(suite.PooledKernels))
		metrics.Reps.Add(int64(suite.K))
		metrics.ChosenK.Observe(float64(suite.K))
		metrics.SuiteErrorPct.Observe(suite.SuiteErrorPct)
	}
	audit.Record("dedup", "selected", subject, 0, map[string]float64{
		"k":                 float64(suite.K),
		"apps":              float64(len(ws)),
		"pooled_kernels":    float64(suite.PooledKernels),
		"total_kernels":     float64(suite.TotalKernels),
		"suite_error_pct":   suite.SuiteErrorPct,
		"target_error_pct":  suite.TargetErrorPct,
		"per_app_bound_pct": suite.PerAppErrorPct,
		"profiling_seconds": suite.ProfilingSeconds,
	})
	return suite, nil
}

// suiteProjectionError scores one clustering: the suite-total projected
// cycle error and the worst single-app error, both over the pooled members
// the clusters hold. p pools the apps' detailed launches, app-major.
func suiteProjectionError(clusters []pks.Cluster, p *pks.Pool) (suiteErr, maxAppErr float64, pooled int) {
	projected, total := pks.ProjectedCycles(clusters, p)
	ends := p.Ends()
	appProj := make([]int64, len(ends))
	appTotal := make([]int64, len(ends))
	for _, cl := range clusters {
		pooled += len(cl.Members)
		a := 0
		for _, m := range cl.Members { // ascending, so the app only moves forward
			for m >= ends[a] {
				a++
			}
			appProj[a] += p.Cycles(cl.Rep)
			appTotal[a] += p.Cycles(m)
		}
	}
	for a, t := range appTotal {
		if t > 0 {
			maxAppErr = max(maxAppErr, stats.AbsPctErr(float64(appProj[a]), float64(t)))
		}
	}
	return stats.AbsPctErr(float64(projected), float64(total)), maxAppErr, pooled
}
