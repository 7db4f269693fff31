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
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"pka/internal/cluster"
	"pka/internal/gpu"
	"pka/internal/obs"
	"pka/internal/parallel"
	"pka/internal/profiler"
	"pka/internal/silicon"
	"pka/internal/stats"
	"pka/internal/trace"
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

// Select runs Principal Kernel Selection for the workload on the device: the
// one-segment SelectSegments, its sweep stopped at the first K whose projected
// cycle error meets the target.
func Select(dev gpu.Device, w *workload.Workload, opts Options) (*Selection, error) {
	o := opts.filled()
	seg, err := SelectSegments(dev, []*workload.Workload{w}, o, projectionScore)
	if err != nil {
		return nil, fmt.Errorf("pks: %w", err)
	}
	o.Delivered(seg.Sels[0])
	return seg.Sels[0], nil
}

// projectionScore is PKS's own stop: the projected cycle error of the
// clustered records, under the target.
func projectionScore(o Options, p *Pool) ScoreFunc {
	return func(k int, clusters []Cluster) (float64, bool) {
		projected, total := ProjectedCycles(clusters, p)
		errPct := stats.AbsPctErr(float64(projected), float64(total))
		if m := o.Metrics; m != nil {
			m.SweepSteps.Inc()
		}
		return errPct, errPct <= o.TargetErrorPct
	}
}

// SegmentScore builds the K sweep's ScoreFunc from the filled options and the
// pool of detailed launches.
type SegmentScore func(o Options, p *Pool) ScoreFunc

// Segments is one selection over several workloads, a segment each: one
// clustering of their pooled detailed records, so a group's representative
// may stand for launches of every segment.
type Segments struct {
	// Sels holds each segment's own selection over the shared groups (group g
	// is Groups[g] in each, of population 0 where the segment has no member).
	Sels []*Selection
	// Owner[g] is the segment that launched group g's representative.
	Owner []int
	// ProfilingSeconds is both profiling passes' modeled cost, all segments.
	ProfilingSeconds float64
	// ClassifierAccuracy is the tail ensemble's holdout accuracy, if any.
	ClassifierAccuracy float64
}

// SelectSegments runs Principal Kernel Selection over the workloads at once,
// one segment each: every segment is profiled in detail under its own budget
// and MaxDetailed, the pool is clustered once with score deciding where the
// sweep stops, every two-level segment's tail is mapped onto the shared
// groups by one classifier, and each segment is accounted on its own. Every
// profiling cost joins one running total as it arrives, segment by segment,
// detailed passes before tails, so the float sum keeps that order. It reports
// no audit or metrics: that is its caller's, through score and Delivered.
func SelectSegments(dev gpu.Device, ws []*workload.Workload, opts Options, score SegmentScore) (*Segments, error) {
	o := opts.filled()
	seg := &Segments{Sels: make([]*Selection, len(ws))}
	p := newPool(detailedBound(ws, o))
	features := make([]float64, 0, trace.NumFeatures) // every launch's Table-2 vector, in turn
	for s, w := range ws {
		sel := &Selection{Workload: w.FullName(), Device: dev.Name, TotalKernels: w.N}
		seg.Sels[s] = sel
		// Pass 1: detailed profiling until the budget (or cap) is exhausted.
		budget := o.DetailedBudgetSeconds
		for i := 0; i < w.N; i++ {
			k := w.Kernel(i)
			rec, cost, err := profiler.DetailedInto(dev, &k, features)
			if err != nil {
				return nil, fmt.Errorf("%s: detailed profiling: %w", sel.Workload, err)
			}
			p.add(rec, k.SharedMemPerBlock)
			sel.DetailedKernels++
			sel.SiliconTotalCycles += rec.Cycles // ground truth: the detailed prefix, then the tail
			sel.ProfilingSeconds += cost
			seg.ProfilingSeconds += cost
			if budget -= cost; budget <= 0 || sel.DetailedKernels == o.MaxDetailed {
				break
			}
		}
		if sel.DetailedKernels == 0 {
			return nil, fmt.Errorf("workload %s has no kernels", sel.Workload)
		}
		sel.TwoLevel = sel.DetailedKernels < sel.TotalKernels
		p.endSegment()
	}
	if err := seg.finish(dev, ws, p, o, score); err != nil {
		return nil, err
	}
	return seg, nil
}

// detailedBound bounds how many launches the detailed pass pools: in each
// segment at most its N, MaxDetailed when set, and as many as the budget
// admits, since every detailed launch costs at least
// profiler.DetailedFixedSeconds. The pool is sized to it once.
func detailedBound(ws []*workload.Workload, o Options) int {
	budget := math.Ceil(o.DetailedBudgetSeconds / profiler.DetailedFixedSeconds)
	n := 0
	for _, w := range ws {
		m := w.N
		if float64(m) > budget {
			m = int(budget)
		}
		if o.MaxDetailed > 0 {
			m = min(m, o.MaxDetailed)
		}
		n += m
	}
	return n
}

// finish runs everything downstream of the detailed-profiling pass, which
// filled seg's selections up to TwoLevel: the PCA + K-Means sweep over the
// pool, the two-level classifier mapping over the light profiles of the
// segments' remaining launches, and each segment's projection accounting.
func (seg *Segments) finish(dev gpu.Device, ws []*workload.Workload, p *Pool, o Options, score SegmentScore) error {
	c, err := ClusterRecords(p, o, score(o, p))
	if err != nil {
		return err
	}
	seg.Owner = make([]int, len(c.Clusters))
	for g, cl := range c.Clusters {
		seg.Owner[g] = sort.SearchInts(p.ends, cl.Rep+1)
	}
	for _, sel := range seg.Sels {
		sel.K, sel.SweepErrors = len(c.Clusters), c.SweepErrors
		sel.Groups = make([]Group, sel.K)
		for g, cl := range c.Clusters {
			rep := p.record(cl.Rep)
			sel.Groups[g] = Group{Representative: rep, RepIndex: rep.KernelID, NameCounts: map[string]int{}}
		}
	}
	s := 0
	for i, g := range c.GroupOf {
		for i >= p.ends[s] {
			s++
		}
		grp := &seg.Sels[s].Groups[g]
		grp.DetailedCount++
		grp.NameCounts[p.kind(i).Name]++
	}

	if slices.ContainsFunc(seg.Sels, func(sel *Selection) bool { return sel.TwoLevel }) {
		if err := seg.mapLightKernels(dev, ws, p, c.GroupOf, o); err != nil {
			return err
		}
	}

	for _, sel := range seg.Sels {
		if sel.TwoLevel {
			sel.ClassifierAccuracy = seg.ClassifierAccuracy
		}
		var repCycles int64
		for _, g := range sel.Groups {
			if g.Count() == 0 {
				continue
			}
			sel.ProjectedCycles += g.Representative.Cycles * int64(g.Count())
			repCycles += g.Representative.Cycles
		}
		sel.SelectionErrorPct = stats.AbsPctErr(float64(sel.ProjectedCycles), float64(sel.SiliconTotalCycles))
		if repCycles > 0 {
			sel.SiliconSpeedup = float64(sel.SiliconTotalCycles) / float64(repCycles)
		}
	}
	return nil
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
			"sampled_kernels":  float64(min(sel.DetailedKernels, o.ClusterSampleMax)),
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
// the classifier ensemble on the whole pool, then light-profile every
// segment's remaining launches on dev, segment by segment, and map each onto
// a group, extending the segment's ground-truth cycle total to all of them.
//
// The holdout probe fits its own ensemble beside the tail's fit and the
// light pass, the two joined by parallel.Map (a panic in either is re-raised
// here, the probe's first); the tail's error wins over the probe's.
func (seg *Segments) mapLightKernels(dev gpu.Device, ws []*workload.Workload, p *Pool, groupOf []int, o Options) error {
	tail := newTailClassifier(p, groupOf, len(seg.Owner), o.Seed)
	seg.ClassifierAccuracy = 1
	if p.Len() < 10 || len(seg.Owner) <= 1 {
		return seg.lightPass(dev, ws, tail)
	}
	var accuracy float64
	jobs := []func() error{
		func() (err error) {
			accuracy, err = tail.HoldoutAccuracy()
			return err
		},
		func() error { return seg.lightPass(dev, ws, tail) },
	}
	// Each job's error rides in its result, so Map's own error is only a
	// contained panic (the probe's first) and the tail's error can win.
	errs, err := parallel.Map(len(jobs), jobs, func(_ int, job func() error) (error, error) { return job(), nil })
	if pe, ok := err.(*parallel.PanicError); ok {
		panic(pe.Value)
	}
	seg.ClassifierAccuracy = accuracy
	return cmp.Or(errs[1], errs[0])
}

// lightPass fits the tail classifier, then light-profiles and maps every
// segment's launches past its detailed prefix.
func (seg *Segments) lightPass(dev gpu.Device, ws []*workload.Workload, tail *TailClassifier) error {
	if err := tail.fit(); err != nil {
		return err
	}
	for s, sel := range seg.Sels {
		for i := sel.DetailedKernels; i < sel.TotalKernels; i++ {
			k := ws[s].Kernel(i)
			rec, cost, err := profiler.Light(dev, &k)
			if err != nil {
				return fmt.Errorf("%s: light profiling kernel %d: %w", sel.Workload, i, err)
			}
			sel.ProfilingSeconds += cost
			seg.ProfilingSeconds += cost
			g := tail.Group(rec)
			sel.Groups[g].MappedCount++
			sel.Groups[g].NameCounts[rec.Name]++
			sel.SiliconTotalCycles += rec.Cycles
		}
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

// SampleIndices returns up to max indices evenly strided across n items, the
// way the K sweep subsamples the records it clusters.
func SampleIndices(n, max int) []int {
	out := make([]int, min(n, max))
	stride := float64(n) / float64(len(out)) // exactly 1 when every item fits
	for i := range out {
		out[i] = int(float64(i) * stride)
	}
	return out
}

// ScaleFeatures scales one full Table-2 feature row into cluster space:
// count-type features are compressed with log1p, ratio-type ones (index 10,
// divergence efficiency) pass through. It writes into dst when it already
// has the right length and allocates otherwise. Every consumer that builds a
// cluster-space row — PKS and the benchmark's replay of its layers — goes
// through this one helper, so the feature spaces stay identical by
// construction.
func ScaleFeatures(dst, src []float64) []float64 {
	if len(dst) != len(src) {
		dst = make([]float64, len(src))
	}
	for j, v := range src {
		if j != 10 {
			v = math.Log1p(v)
		}
		dst[j] = v
	}
	return dst
}
