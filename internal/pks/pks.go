// Package pks implements Principal Kernel Selection, the paper's
// inter-kernel reduction (Section 3.1). Every kernel launch is profiled in
// silicon; the twelve microarchitecture-agnostic Table-2 metrics are
// reduced with PCA and clustered with K-Means; K is swept from 1 upward
// and the smallest K whose projected total-cycle error falls under the
// target (5%) wins; one representative kernel per group — the first
// chronologically — is selected and weighted by its group's population.
//
// For workloads whose detailed profiling would exceed the budget (one
// week), the two-level scheme kicks in: the first j kernels are profiled
// in detail and clustered, the remainder are profiled lightly (name +
// launch dims) and mapped onto the detailed groups by an ensemble of SGD,
// Gaussian Naive Bayes, and MLP classifiers.
package pks

import (
	"errors"
	"fmt"
	"math"

	"pka/internal/cluster"
	"pka/internal/gpu"
	"pka/internal/obs"
	"pka/internal/profiler"
	"pka/internal/silicon"
	"pka/internal/stats"
	"pka/internal/workload"
)

// RepPolicy selects which member of a cluster becomes its representative.
type RepPolicy int

// Representative policies. The paper evaluated all three and chose
// first-chronological: random is inconsistent, center gains nothing over
// first, and first-chronological minimizes tracing cost.
const (
	RepFirstChronological RepPolicy = iota
	RepClusterCenter
	RepRandom
)

// String implements fmt.Stringer.
func (p RepPolicy) String() string {
	switch p {
	case RepFirstChronological:
		return "first"
	case RepClusterCenter:
		return "center"
	case RepRandom:
		return "random"
	default:
		return fmt.Sprintf("RepPolicy(%d)", int(p))
	}
}

// Options configures a selection run. The zero value reproduces the
// paper's settings.
type Options struct {
	// TargetErrorPct is the projected-cycle error threshold that ends the
	// K sweep (paper: 5%). Zero applies 5.
	TargetErrorPct float64
	// MaxK bounds the sweep (paper: ~20). Zero applies 20.
	MaxK int
	// PCAVarianceTarget is the explained-variance fraction kept (0.9).
	PCAVarianceTarget float64
	// Representative picks the per-group representative policy.
	Representative RepPolicy
	// DisablePCA clusters on raw standardized features (ablation).
	DisablePCA bool
	// DetailedBudgetSeconds bounds modeled detailed-profiling time before
	// two-level profiling engages. Zero applies the paper's one week.
	DetailedBudgetSeconds float64
	// MaxDetailed caps the number of detailed-profiled kernels outright
	// (0 = budget only).
	MaxDetailed int
	// ClusterSampleMax subsamples the detailed set for the K sweep when
	// it is enormous; unsampled kernels are still assigned to their
	// nearest center afterwards. Zero applies 20000.
	ClusterSampleMax int
	// Seed drives k-means++ and the random representative policy.
	Seed uint64

	// Audit, when non-nil, receives one "sweep-step" decision record per
	// K tried (K, projected error, target) and a "selected" record for
	// the chosen K — the inspectable trail of the K sweep.
	Audit *obs.Audit
	// Metrics, when non-nil, receives selection counters and chosen-K /
	// selection-error histograms.
	Metrics *obs.PKSMetrics
}

func (o Options) filled() Options {
	if o.TargetErrorPct <= 0 {
		o.TargetErrorPct = 5
	}
	if o.MaxK <= 0 {
		o.MaxK = 20
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

// Group is one cluster of similar kernels.
type Group struct {
	// Representative is the detailed profile of the selected kernel.
	Representative profiler.DetailedRecord
	// RepIndex is the representative's chronological kernel ID.
	RepIndex int
	// DetailedCount is the number of detailed-profiled members.
	DetailedCount int
	// MappedCount is the number of lightly-profiled kernels the
	// classifiers mapped into this group (two-level only).
	MappedCount int
	// NameCounts histograms the kernel names of the group's members —
	// the per-group composition view of the paper's Figure 4.
	NameCounts map[string]int
}

// Count returns the group's total population.
func (g *Group) Count() int { return g.DetailedCount + g.MappedCount }

// Selection is the output of Principal Kernel Selection.
type Selection struct {
	Workload string
	Device   string

	K      int
	Groups []Group

	TwoLevel        bool
	DetailedKernels int
	TotalKernels    int

	// SiliconTotalCycles is the ground-truth sum of per-kernel silicon
	// cycles over the whole application (launch overheads excluded).
	SiliconTotalCycles int64
	// ProjectedCycles is Σ (representative cycles × group population).
	ProjectedCycles int64
	// SelectionErrorPct is the silicon-vs-projection cycle error.
	SelectionErrorPct float64
	// SiliconSpeedup is total silicon time over the time to execute only
	// the representative kernels once each — the "Silicon SU" columns.
	SiliconSpeedup float64

	// ProfilingSeconds is the modeled wall time the profiling pass cost.
	ProfilingSeconds float64
	// ClassifierAccuracy is the ensemble's holdout accuracy on the
	// detailed set (two-level runs only; 0 otherwise).
	ClassifierAccuracy float64
	// SweepErrors records the projected error at each K tried (1-based:
	// SweepErrors[0] is K=1), for diagnostics and ablation.
	SweepErrors []float64
}

// Select runs Principal Kernel Selection for the workload on the device.
func Select(dev gpu.Device, w *workload.Workload, opts Options) (*Selection, error) {
	o := opts.filled()
	sel := &Selection{Workload: w.FullName(), Device: dev.Name, TotalKernels: w.N}

	// Pass 1: detailed profiling until the budget (or cap) is exhausted.
	detailed := make([]profiler.DetailedRecord, 0, minInt(w.N, 4096))
	sharedMem := make([]int, 0, minInt(w.N, 4096))
	err := ProfileDetailed(dev, w, o.DetailedBudgetSeconds, o.MaxDetailed, func(rec profiler.DetailedRecord, smem int, cost float64) {
		detailed = append(detailed, rec)
		sharedMem = append(sharedMem, smem)
		sel.ProfilingSeconds += cost
	})
	if err != nil {
		return nil, fmt.Errorf("pks: detailed profiling: %w", err)
	}
	return finishSelection(dev, w, sel, detailed, sharedMem, o)
}

// ProfileDetailed is the detailed-profiling pass of one workload: its
// launches in order, each profiled in detail and handed to add with its
// shared memory per block and modeled cost, until the cost spent reaches
// budgetSeconds or maxDetailed records are made (0 = budget only). Callers
// add each cost to their own running total as it arrives, so the float sum
// keeps launch order. Per-app PKS and suite dedup (once per app) share it.
func ProfileDetailed(dev gpu.Device, w *workload.Workload, budgetSeconds float64, maxDetailed int, add func(rec profiler.DetailedRecord, sharedMem int, cost float64)) error {
	n := 0
	next := w.Iterator()
	for k := next(); k != nil; k = next() {
		rec, cost, err := profiler.Detailed(dev, k)
		if err != nil {
			return err
		}
		add(rec, k.SharedMemPerBlock, cost)
		n++
		budgetSeconds -= cost
		if budgetSeconds <= 0 || (maxDetailed > 0 && n >= maxDetailed) {
			break
		}
	}
	return nil
}

// finishSelection runs everything downstream of the detailed-profiling
// pass: the PCA + K-Means sweep, two-level classifier mapping over the
// light profiles of w's remaining launches on dev, and the final projection
// accounting, metrics, and audit trail.
func finishSelection(dev gpu.Device, w *workload.Workload, sel *Selection, detailed []profiler.DetailedRecord, sharedMem []int, o Options) (*Selection, error) {
	if len(detailed) == 0 {
		return nil, errors.New("pks: workload has no kernels")
	}
	sel.DetailedKernels = len(detailed)
	sel.TwoLevel = sel.DetailedKernels < sel.TotalKernels

	// Cluster the detailed set and sweep K.
	groups, assignment, sweep, err := clusterDetailed(detailed, o)
	if err != nil {
		return nil, err
	}
	sel.Groups = groups
	sel.K = len(groups)
	sel.SweepErrors = sweep

	// Ground truth accumulates over the detailed prefix...
	for _, rec := range detailed {
		sel.SiliconTotalCycles += rec.Cycles
	}
	// ...and pass 2 (two-level only) light-profiles, maps, and accounts
	// for the rest.
	if sel.TwoLevel {
		if err := mapLightKernels(dev, w, sel, detailed, sharedMem, assignment, o); err != nil {
			return nil, err
		}
	}

	var repCycles int64
	for _, g := range sel.Groups {
		sel.ProjectedCycles += g.Representative.Cycles * int64(g.Count())
		repCycles += g.Representative.Cycles
	}
	sel.SelectionErrorPct = stats.AbsPctErr(float64(sel.ProjectedCycles), float64(sel.SiliconTotalCycles))
	if repCycles > 0 {
		sel.SiliconSpeedup = float64(sel.SiliconTotalCycles) / float64(repCycles)
	}
	o.Delivered(sel)
	return sel, nil
}

// Delivered is the one emitter of a selection's observability: the K-sweep
// audit trail ("sweep-step" per K tried, then "selected") and the per-
// selection metrics. Everything it prints is read off the finished
// Selection, so a selection read back from the artifact store (core.Select)
// reports exactly what the run that computed it did. SweepSteps is not
// here: it counts sweeps that ran.
func (o Options) Delivered(sel *Selection) {
	o = o.filled()
	if m := o.Metrics; m != nil {
		m.Selections.Inc()
		m.ChosenK.Observe(float64(sel.K))
		m.ErrorPct.Observe(sel.SelectionErrorPct)
	}
	if o.Audit == nil {
		return
	}
	flag := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	for i, errPct := range sel.SweepErrors {
		o.Audit.Record("pks", "sweep-step", sel.Workload, 0, map[string]float64{
			"k":                float64(i + 1),
			"error_pct":        errPct,
			"target_error_pct": o.TargetErrorPct,
			"under_target":     flag(errPct <= o.TargetErrorPct),
			"sampled_kernels":  float64(minInt(sel.DetailedKernels, o.ClusterSampleMax)),
		})
	}
	o.Audit.Record("pks", "selected", sel.Workload, 0, map[string]float64{
		"k":                   float64(sel.K),
		"target_error_pct":    o.TargetErrorPct,
		"selection_error_pct": sel.SelectionErrorPct,
		"detailed_kernels":    float64(sel.DetailedKernels),
		"total_kernels":       float64(sel.TotalKernels),
		"two_level":           flag(sel.TwoLevel),
	})
}

// clusterParams lifts the filled options into the clustering core's knobs.
func (o Options) clusterParams() ClusterParams {
	return ClusterParams{
		SampleMax:   o.ClusterSampleMax,
		PCAVariance: o.PCAVarianceTarget,
		DisablePCA:  o.DisablePCA,
		MaxK:        o.MaxK,
		Seed:        o.Seed,
	}
}

// clusterDetailed runs the clustering core over detailed records, stopping
// the sweep at the first K whose projected cycle error meets the target. It
// returns the chosen groups, a per-detailed-kernel group assignment, and
// the per-K sweep error trace.
func clusterDetailed(detailed []profiler.DetailedRecord, o Options) ([]Group, []int, []float64, error) {
	c, err := ClusterRecords(detailed, o.clusterParams(), o.elector(),
		func(k int, clusters []Cluster) (float64, bool) {
			projected, total := ProjectedCycles(clusters, detailed)
			errPct := stats.AbsPctErr(float64(projected), float64(total))
			if m := o.Metrics; m != nil {
				m.SweepSteps.Inc()
			}
			return errPct, errPct <= o.TargetErrorPct
		})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("pks: %w", err)
	}
	groups := make([]Group, len(c.Clusters))
	for g, cl := range c.Clusters {
		groups[g] = Group{
			Representative: detailed[cl.Rep],
			RepIndex:       detailed[cl.Rep].KernelID,
			NameCounts:     map[string]int{},
		}
	}
	for i, g := range c.GroupOf {
		groups[g].DetailedCount++
		groups[g].NameCounts[detailed[i].Name]++
	}
	return groups, c.GroupOf, c.SweepErrors, nil
}

// elector returns the representative policy as the clustering core's
// election callback: nil (first chronological) unless an ablation asks for
// the cluster centre or a random member.
func (o Options) elector() ElectFunc {
	switch o.Representative {
	case RepRandom:
		rng := stats.NewRNG(o.Seed ^ 0xBEE5)
		return func(_ [][]float64, _ *cluster.KMeansResult, _ int, members []int) int {
			return members[rng.Intn(len(members))]
		}
	case RepClusterCenter:
		return func(points [][]float64, res *cluster.KMeansResult, c int, members []int) int {
			best, bestD := members[0], math.Inf(1)
			for _, m := range members {
				var d float64
				for j, v := range points[m] {
					diff := v - res.Centers[c][j]
					d += diff * diff
				}
				if d < bestD {
					best, bestD = m, d
				}
			}
			return best
		}
	default:
		return nil
	}
}

// mapLightKernels performs the second pass of two-level profiling: train
// the classifier ensemble on the detailed prefix, then light-profile w's
// remaining launches on dev and map each onto a group. It also extends the
// ground-truth cycle total over the full app.
//
// The holdout probe fits its own ensemble on its own goroutine, beside the
// tail's fit and the light pass, and is joined before any return (a panic
// in it is re-raised here); its error is returned if nothing failed first.
func mapLightKernels(dev gpu.Device, w *workload.Workload, sel *Selection, detailed []profiler.DetailedRecord, sharedMem []int, assignment []int, o Options) (err error) {
	tail := newTailClassifier(detailed, sharedMem, assignment, len(sel.Groups), o.Seed)
	sel.ClassifierAccuracy = 1
	if len(detailed) >= 10 && len(sel.Groups) > 1 {
		var accuracy float64
		var probeErr error
		var probePanic any
		probed := make(chan struct{})
		go func() {
			defer close(probed)
			defer func() { probePanic = recover() }()
			accuracy, probeErr = tail.HoldoutAccuracy()
		}()
		defer func() {
			<-probed
			if probePanic != nil {
				panic(probePanic)
			}
			sel.ClassifierAccuracy = accuracy
			if err == nil && probeErr != nil {
				err = fmt.Errorf("pks: %w", probeErr)
			}
		}()
	}
	if err := tail.fit(); err != nil {
		return fmt.Errorf("pks: %w", err)
	}

	for i := sel.DetailedKernels; i < sel.TotalKernels; i++ {
		k := w.Kernel(i)
		rec, cost, err := profiler.Light(dev, &k)
		if err != nil {
			return fmt.Errorf("pks: light profiling kernel %d: %w", i, err)
		}
		sel.ProfilingSeconds += cost
		g := tail.Group(rec)
		sel.Groups[g].MappedCount++
		sel.Groups[g].NameCounts[rec.Name]++
		sel.SiliconTotalCycles += rec.Cycles
	}
	return nil
}

// CrossGenResult reports how a Volta-made selection fares on another
// device's silicon.
type CrossGenResult struct {
	// Projected is Σ representative-cycles-on-device × group population.
	Projected int64
	// Truth is the device's ground-truth total kernel cycles.
	Truth int64
	// RepCycles is the cost of executing each representative once — the
	// denominator of the silicon speedup columns.
	RepCycles int64
}

// ErrorPct returns the projection's cycle error.
func (r CrossGenResult) ErrorPct() float64 {
	return stats.AbsPctErr(float64(r.Projected), float64(r.Truth))
}

// Speedup returns the silicon execution-time reduction.
func (r CrossGenResult) Speedup() float64 {
	if r.RepCycles == 0 {
		return 0
	}
	return float64(r.Truth) / float64(r.RepCycles)
}

// ProjectOnDevice reuses a selection made on one device (the paper always
// selects on Volta) to project the workload's total kernel cycles on
// another device: the representatives are re-executed on the target
// silicon and weighted by their original group populations. This is the
// paper's cross-generation validation (Section 5.2.2).
func ProjectOnDevice(dev gpu.Device, w *workload.Workload, sel *Selection) (CrossGenResult, error) {
	var out CrossGenResult
	for _, g := range sel.Groups {
		k := w.Kernel(g.RepIndex)
		res, err := silicon.ExecuteKernel(dev, &k)
		if err != nil {
			return out, fmt.Errorf("pks: representative %d on %s: %w", g.RepIndex, dev.Name, err)
		}
		out.Projected += res.Cycles * int64(g.Count())
		out.RepCycles += res.Cycles
	}
	next := w.Iterator()
	for k := next(); k != nil; k = next() {
		res, err := silicon.ExecuteKernel(dev, k)
		if err != nil {
			return out, err
		}
		out.Truth += res.Cycles
	}
	return out, nil
}

// SampleIndices returns up to max indices evenly strided across n items.
// Exported for the suite-level dedup pass, which subsamples its pooled
// feature set the same way the per-workload sweep does.
func SampleIndices(n, max int) []int {
	if n <= max {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, max)
	stride := float64(n) / float64(max)
	for i := range out {
		out[i] = int(float64(i) * stride)
	}
	return out
}

// ScaleFeature compresses count-type Table-2 features with log1p;
// ratio-type features (index 10, divergence efficiency) pass through.
// Exported so the suite-level dedup pass clusters in exactly the feature
// space PKS clusters in — the cross-workload clusters are only
// comparable to per-app ones because the scaling is shared.
func ScaleFeature(v float64, featureIdx int) float64 {
	if featureIdx == 10 {
		return v
	}
	return math.Log1p(v)
}

// ScaleFeatures scales one full Table-2 feature row with ScaleFeature,
// writing into dst when it already has the right length and allocating
// otherwise. Every consumer that builds a cluster-space row — per-app
// PKS, suite-level dedup, the predictor — goes through this one
// helper, so the feature spaces stay identical by construction.
func ScaleFeatures(dst, src []float64) []float64 {
	if len(dst) != len(src) {
		dst = make([]float64, len(src))
	}
	for j, v := range src {
		dst[j] = ScaleFeature(v, j)
	}
	return dst
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
