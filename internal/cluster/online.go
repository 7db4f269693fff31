// Streaming clustering support: an appendable Dataset plus a mini-batch
// online K-Means learner that tracks cluster structure between full
// K-sweeps. The streaming PKS layer appends each kernel's projected
// feature point as it arrives, lets OnlineKMeans assign and drift the
// centers per event, and only re-runs the (exact, deterministic) Sweep
// when its running error estimate degrades — so the expensive machinery
// runs rarely while the per-event cost stays at one early-exiting nearest-
// center scan.
//
// Everything here is advisory by construction: the streaming layer uses
// online assignments only to pick speculation targets, and the final
// reconciliation pass re-runs the exact batch sweep. Nothing in this file
// can therefore influence study results.
package cluster

import (
	"errors"
	"math"
)

// NewEmptyDataset returns a Dataset with no points, ready for Append. The
// dimensionality is fixed up front; KMeans and Sweep require at least one
// appended point.
func NewEmptyDataset(dim int) (*Dataset, error) {
	if dim < 1 {
		return nil, errors.New("cluster: dataset dimension must be >= 1")
	}
	return &Dataset{dim: dim, ids: map[string]int32{}}, nil
}

// Append adds one point to the dataset. Scratch buffers are grown lazily
// by the next KMeans call, so appending between fits of a K-sweep reuses
// all previously grown scratch — the reason the streaming layer keeps one
// Dataset alive across cluster revisions instead of rebuilding it.
// Append must not run concurrently with a KMeans call on the same Dataset.
func (ds *Dataset) Append(p []float64) error {
	if len(p) != ds.dim {
		return errors.New("cluster: appended point has wrong dimension")
	}
	ds.add(p)
	return nil
}

// OnlineKMeans is a mini-batch (one point per batch) K-Means learner
// seeded from a fitted KMeansResult. Observe assigns each new point to its
// nearest center and moves that center toward the point with a 1/count
// learning rate — the classic Sculley web-scale update — so centers track
// distribution drift between full sweeps.
//
// The nearest-center scan reuses the Hamerly half-distance bound from the
// batch Lloyd loop: s[c] is half the distance from center c to its nearest
// other center, so as soon as the scan holds a candidate whose distance is
// below s[candidate] minus the accumulated center movement, no remaining
// center can be closer and the scan stops. Bounds are recomputed lazily
// when cumulative movement erodes their slack.
//
// OnlineKMeans is deterministic (a pure function of the seed result and
// the observation sequence) and not safe for concurrent use.
type OnlineKMeans struct {
	k, dim  int
	centers []float64 // k*dim, row-major
	counts  []int64   // per-center observation weight (seeded from Sizes)
	s       []float64 // Hamerly half-distance to nearest other center
	sMin    float64   // min over s, gates lazy recomputation
	slack   float64   // max cumulative per-center movement since s was computed
}

// NewOnlineKMeans seeds a learner from a fitted clustering. The result's
// centers are copied; the learner never aliases or mutates res.
func NewOnlineKMeans(res *KMeansResult) (*OnlineKMeans, error) {
	if res == nil || res.K < 1 || len(res.Centers) != res.K {
		return nil, errors.New("cluster: online seed needs a fitted result")
	}
	dim := len(res.Centers[0])
	o := &OnlineKMeans{
		k:       res.K,
		dim:     dim,
		centers: make([]float64, res.K*dim),
		counts:  make([]int64, res.K),
		s:       make([]float64, res.K),
	}
	for c, ctr := range res.Centers {
		if len(ctr) != dim {
			return nil, errors.New("cluster: ragged centers in online seed")
		}
		copy(o.centers[c*dim:], ctr)
		if c < len(res.Sizes) {
			o.counts[c] = int64(res.Sizes[c])
		}
		if o.counts[c] < 1 {
			o.counts[c] = 1
		}
	}
	o.refreshBounds()
	return o, nil
}

// K returns the number of centers.
func (o *OnlineKMeans) K() int { return o.k }

// Center returns a copy of center c.
func (o *OnlineKMeans) Center(c int) []float64 {
	out := make([]float64, o.dim)
	copy(out, o.centers[c*o.dim:(c+1)*o.dim])
	return out
}

// refreshBounds recomputes the Hamerly half-distances and resets the
// movement slack.
func (o *OnlineKMeans) refreshBounds() {
	o.sMin = math.Inf(1)
	for c := 0; c < o.k; c++ {
		minD := math.Inf(1)
		cc := o.centers[c*o.dim : (c+1)*o.dim]
		for n := 0; n < o.k; n++ {
			if n == c {
				continue
			}
			if d := sqDist(cc, o.centers[n*o.dim:(n+1)*o.dim]); d < minD {
				minD = d
			}
		}
		o.s[c] = 0.5 * math.Sqrt(minD) * (1 - boundsPad)
		if o.s[c] < o.sMin {
			o.sMin = o.s[c]
		}
	}
	o.slack = 0
}

// Assign returns the nearest center to p without updating anything. The
// scan early-exits on the Hamerly bound: if the best candidate so far is
// within s[best]-slack of p, no other center can beat it. Ties break to
// the lowest index, matching the batch assignment step. Allocation-free.
func (o *OnlineKMeans) Assign(p []float64) int {
	// Centers have drifted by at most slack each since s was computed, so
	// every pairwise half-gap is still at least s[c]-slack. Once the slack
	// eats half the smallest gap the bound stops pruning; refresh it.
	if o.slack > 0.5*o.sMin {
		o.refreshBounds()
	}
	dim := o.dim
	best, bestD := 0, math.Inf(1)
	for c := 0; c < o.k; c++ {
		ctr := o.centers[c*dim : (c+1)*dim]
		var d float64
		for j, v := range p {
			diff := v - ctr[j]
			d += diff * diff
		}
		if d < bestD {
			best, bestD = c, d
			if math.Sqrt(d) < o.s[c]-o.slack {
				// p is strictly inside best's Hamerly radius: every other
				// center is provably farther, stop scanning.
				break
			}
		}
	}
	return best
}

// Observe assigns p to its nearest center, moves that center toward p with
// a 1/count learning rate, and returns the assignment.
func (o *OnlineKMeans) Observe(p []float64) int {
	c := o.Assign(p)
	o.counts[c]++
	eta := 1 / float64(o.counts[c])
	ctr := o.centers[c*o.dim : (c+1)*o.dim]
	var moved float64
	for j := range ctr {
		d := eta * (p[j] - ctr[j])
		ctr[j] += d
		moved += d * d
	}
	o.slack += math.Sqrt(moved) * (1 + boundsPad)
	return c
}
