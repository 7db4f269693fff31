// Package tbpoint implements the TBPoint baseline (Huang et al., IPDPS
// 2014) the paper compares against in Section 5.1. TBPoint reduces the
// kernels simulated by hierarchically clustering per-kernel feature
// vectors gathered from full functional simulation, sweeping a merge
// threshold instead of an interpretable K, and reducing intra-kernel work
// conservatively by simulating a fixed fraction of each representative's
// thread blocks. This package selects; the simulation is core's, which runs
// each representative as a sampling.ModeBlocks task and weights it by its
// group's population, as it does PKS's.
//
// Two deliberate fidelity points from the paper are preserved:
//
//   - TBPoint needs statistics for *every* kernel from functional
//     simulation before it can cluster, and hierarchical clustering has a
//     quadratic memory footprint — so the implementation refuses
//     workloads beyond the scaling wall (cluster.MaxHierarchicalPoints),
//     exactly the reason the paper gives for why TBPoint cannot handle
//     MLPerf-scale applications.
//
//   - In lieu of the original's hand-tuned threshold, the paper's
//     comparison sweeps 20 thresholds in [0.01, 0.2] and applies the same
//     target-error criterion Principal Kernel Selection uses; this
//     implementation does the same.
package tbpoint

import (
	"errors"
	"fmt"
	"math"

	"pka/internal/cluster"
	"pka/internal/gpu"
	"pka/internal/linalg"
	"pka/internal/pks"
	"pka/internal/profiler"
	"pka/internal/stats"
	"pka/internal/trace"
	"pka/internal/workload"
)

// The baseline's one configuration (Section 5.1): PKS's selection
// criterion, 20 merge thresholds swept over [0.01, 0.2], and the
// conservative intra-kernel reduction — the fraction of each
// representative's thread blocks simulated before linear projection. The
// float thresholds are typed, so the sweep's maxThreshold-minThreshold
// rounds to float64 as a run-time subtraction does.
const (
	targetErrorPct float64 = 5
	numThresholds          = 20
	minThreshold   float64 = 0.01
	maxThreshold   float64 = 0.2
	BlockFraction          = 0.5
)

// ErrTooLarge reports that the workload exceeds TBPoint's scaling wall.
var ErrTooLarge = errors.New("tbpoint: workload too large for hierarchical clustering")

// Group is one cluster with its first-chronological representative.
type Group struct {
	RepIndex int
	Count    int
	// RepCycles is the representative's functional-simulation cycle count
	// used during selection.
	RepCycles int64
}

// Selection is TBPoint's kernel-reduction output.
type Selection struct {
	Workload  string
	Threshold float64
	K         int
	Groups    []Group
	// SelectionErrorPct is the projected-vs-actual error over the
	// functional-simulation totals.
	SelectionErrorPct float64
	SweepErrors       []float64
}

// Select runs TBPoint's kernel clustering for the workload. The per-kernel
// statistics that the original gathers via full functional simulation
// (Ocelot) come from the detailed profiler here — the same information at
// the same "must touch every kernel" cost structure.
func Select(dev gpu.Device, w *workload.Workload) (*Selection, error) {
	if w.N > cluster.MaxHierarchicalPoints {
		return nil, fmt.Errorf("%w: %s has %d kernels", ErrTooLarge, w.FullName(), w.N)
	}

	recs := make([]profiler.DetailedRecord, 0, w.N)
	next := w.Iterator()
	for k := next(); k != nil; k = next() {
		rec, _, err := profiler.Detailed(dev, k)
		if err != nil {
			return nil, fmt.Errorf("tbpoint: functional simulation: %w", err)
		}
		recs = append(recs, rec)
	}
	if len(recs) == 0 {
		return nil, errors.New("tbpoint: workload has no kernels")
	}

	// Standardized log-compressed feature vectors, scaled as PKS scales
	// them; distances are normalized by the maximum pairwise distance so
	// the paper's [0.01, 0.2] threshold range is scale-free.
	raw := linalg.NewMatrix(len(recs), trace.NumFeatures)
	for i, rec := range recs {
		pks.ScaleFeatures(raw.Row(i), rec.Features)
	}
	std := raw.Standardize()
	points := make([][]float64, len(recs))
	for i := range points {
		points[i] = std.Row(i)
	}
	maxDist := maxPairwiseDistance(points)
	if maxDist == 0 {
		maxDist = 1
	}

	var total int64
	for _, rec := range recs {
		total += rec.Cycles
	}

	// Build the dendrogram once, then sweep cut thresholds from coarsest
	// (fewest groups) to finest, keeping the first that meets the target
	// — the same "most reduction at acceptable error" criterion PKS
	// applies.
	dendro, err := cluster.BuildDendrogram(points)
	if err != nil {
		return nil, err
	}
	sel := &Selection{Workload: w.FullName()}
	bestErr := math.Inf(1)
	var bestAssign []int
	var bestK int
	for i := 0; i < numThresholds; i++ {
		frac := maxThreshold - float64(i)*(maxThreshold-minThreshold)/float64(numThresholds-1)
		assign, k := dendro.Cut(frac * maxDist)
		errPct := projectionError(assign, k, recs, total)
		sel.SweepErrors = append(sel.SweepErrors, errPct)
		if errPct < bestErr {
			bestErr = errPct
			bestAssign, bestK = assign, k
			sel.Threshold = frac
		}
		if errPct <= targetErrorPct {
			bestAssign, bestK, bestErr = assign, k, errPct
			sel.Threshold = frac
			break
		}
	}

	sel.K = bestK
	sel.SelectionErrorPct = bestErr
	sel.Groups = buildGroups(bestAssign, bestK, recs)
	return sel, nil
}

func projectionError(assign []int, k int, recs []profiler.DetailedRecord, total int64) float64 {
	groups := buildGroups(assign, k, recs)
	var projected int64
	for _, g := range groups {
		projected += g.RepCycles * int64(g.Count)
	}
	return stats.AbsPctErr(float64(projected), float64(total))
}

func buildGroups(assign []int, k int, recs []profiler.DetailedRecord) []Group {
	groups := make([]Group, k)
	for i := range groups {
		groups[i].RepIndex = -1
	}
	for i, c := range assign {
		groups[c].Count++
		if groups[c].RepIndex < 0 || recs[i].KernelID < groups[c].RepIndex {
			groups[c].RepIndex = recs[i].KernelID
			groups[c].RepCycles = recs[i].Cycles
		}
	}
	out := groups[:0]
	for _, g := range groups {
		if g.Count > 0 {
			out = append(out, g)
		}
	}
	return out
}

// maxPairwiseDistance samples pairwise distances (capped at ~1e6 pairs)
// and returns the maximum observed.
func maxPairwiseDistance(points [][]float64) float64 {
	n := len(points)
	stride := 1
	for n/stride > 1000 {
		stride++
	}
	var maxD float64
	for i := 0; i < n; i += stride {
		for j := i + stride; j < n; j += stride {
			var d float64
			for k := range points[i] {
				diff := points[i][k] - points[j][k]
				d += diff * diff
			}
			if d > maxD {
				maxD = d
			}
		}
	}
	return math.Sqrt(maxD)
}
