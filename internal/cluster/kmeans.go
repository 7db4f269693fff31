// Package cluster implements the two clustering algorithms the paper
// contrasts: K-Means (used by Principal Kernel Selection, chosen because it
// scales to millions of kernels and exposes an interpretable K parameter)
// and agglomerative hierarchical clustering (used by the TBPoint baseline,
// which the paper shows does not scale).
package cluster

import (
	"encoding/binary"
	"errors"
	"math"

	"pka/internal/parallel"
	"pka/internal/stats"
)

// KMeansResult holds a fitted clustering.
type KMeansResult struct {
	K          int
	Centers    [][]float64
	Assignment []int   // Assignment[i] is the cluster of point i
	Sizes      []int   // points per cluster
	Inertia    float64 // sum of squared distances to assigned centers
	Iterations int
	Repairs    int // empty clusters re-seeded during the run

	// flat is the contiguous backing array behind Centers when the result
	// came out of KMeans (Centers[c] == flat[c*dim:(c+1)*dim]). It lets
	// NearestCenter walk the centers with one bounds check per coordinate
	// instead of a slice-header load per center. Hand-built results leave it
	// nil and fall back to the row walk.
	flat []float64
}

// The Lloyd iteration stops after maxIterations rounds, or earlier once no
// point changes cluster or no center moves by tolerance or more.
const (
	maxIterations = 100
	tolerance     = 1e-7
)

// KMeansOptions controls the Lloyd iteration.
type KMeansOptions struct {
	Seed uint64 // RNG seed for k-means++ initialization
	// Workers bounds the parallelism of the assignment step; <= 0 uses
	// GOMAXPROCS. The result is byte-identical for any worker count.
	Workers int
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// boundsPad is the relative safety margin applied to the Hamerly bounds:
// upper bounds are inflated and lower bounds deflated by this factor so
// that floating-point rounding in sqDist/Sqrt can never make a bound claim
// more than the exact arithmetic would. It dwarfs the ~dim·2⁻⁵² relative
// error of the distance computations while still pruning essentially every
// settled point.
const boundsPad = 1e-10

// assignChunk is the row range one assignment task covers. Chosen so a
// chunk's points, bounds, and assignments stay cache-resident within one
// worker while leaving enough chunks to balance load.
const assignChunk = 1024

// Dataset is a set of points plus the scratch buffers a K-Means run needs.
// Reusing one Dataset across the K-sweep (k = 1..maxK over the same points)
// reuses every buffer, so later fits allocate only their returned result.
//
// Points are interned by the raw bits of their coordinates (±0 and NaN
// payloads stay distinct): a scaled workload is a handful of kernels launched
// thousands of times. What is a pure function of one point — its distances,
// Hamerly bounds and nearest center — is computed once per distinct row, on
// the operands the per-point code would use; every float reduction (the
// k-means++ mass, the update step, the inertia) still adds one term per
// point in point order, since m·v and v+…+v round differently.
//
// A Dataset is not safe for concurrent KMeans calls; the engine gives each
// sweep its own.
type Dataset struct {
	dim   int
	rows  []float64        // distinct rows in first-seen order, row r at rows[r*dim : (r+1)*dim]
	rowOf []int32          // point i is row rowOf[i]
	ids   map[string]int32 // a row's coordinate bits -> its index in rows
	key   []byte           // scratch for one ids key

	// Per-run scratch, grown on demand and reused across calls.
	centers []float64 // k*dim current centers
	next    []float64 // k*dim update-step accumulator
	s       []float64 // k: half distance to each center's nearest neighbor
	moved   []float64 // k: center movement in the latest update step
	near    []int32   // per row: its points' center; split when a repair left them on several
	u       []float64 // per row: upper bound on distance to assigned center
	l       []float64 // per row: lower bound on distance to second-closest center
	d2      []float64 // per row: k-means++ squared distances, then the inertia terms
	dist    []float64 // n: squared distance to assigned center (repair only)
	chunks  []int     // assignment chunk start offsets
}

// split marks a row whose points an empty-cluster repair left on different
// centers. No center equals it, so the full scan that follows every repair
// reports the row as changed — as the per-point scan would, since at least
// one of its points must move.
const split = -1

// NewDataset validates points and interns them.
func NewDataset(points [][]float64) (*Dataset, error) {
	n := len(points)
	if n == 0 {
		return nil, errors.New("cluster: no points")
	}
	dim := len(points[0])
	for _, p := range points {
		if len(p) != dim {
			return nil, errors.New("cluster: ragged point dimensions")
		}
	}
	ds := &Dataset{dim: dim, rowOf: make([]int32, 0, n), ids: map[string]int32{}}
	for _, p := range points {
		ds.add(p)
	}
	return ds, nil
}

// add appends one point of the right dimension.
func (ds *Dataset) add(p []float64) {
	key := ds.key[:0]
	for _, v := range p {
		key = binary.LittleEndian.AppendUint64(key, math.Float64bits(v))
	}
	ds.key = key
	r, ok := ds.ids[string(key)]
	if !ok {
		r = int32(len(ds.ids))
		ds.ids[string(key)] = r
		ds.rows = append(ds.rows, p...)
	}
	ds.rowOf = append(ds.rowOf, r)
}

// N returns the number of points.
func (ds *Dataset) N() int { return len(ds.rowOf) }

// row returns point i's coordinates.
func (ds *Dataset) row(i int) []float64 { return ds.distinct(int(ds.rowOf[i])) }

func (ds *Dataset) distinct(r int) []float64 { return ds.rows[r*ds.dim : (r+1)*ds.dim] }

func grow[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// KMeans clusters points into k groups using k-means++ seeding followed by
// Lloyd's iterations. Empty clusters are repaired by re-seeding them with
// the point farthest from every current center, so the result always has
// exactly k non-degenerate groups when k <= len(points) distinct points
// exist. The run is deterministic for a given seed.
//
// This is the convenience form; it builds a throwaway Dataset. Sweeps over
// k should build one Dataset and call its KMeans method so scratch buffers
// carry over.
func KMeans(points [][]float64, k int, opts KMeansOptions) (*KMeansResult, error) {
	if k < 1 {
		return nil, errors.New("cluster: k must be >= 1")
	}
	ds, err := NewDataset(points)
	if err != nil {
		return nil, err
	}
	return ds.KMeans(k, opts)
}

// KMeans fits k clusters over the dataset. See the package-level KMeans.
//
// The Lloyd loop is accelerated with Hamerly-style center-movement bounds:
// a point whose upper bound to its assigned center is strictly below both
// half the gap to the nearest other center and its lower bound on the
// second-closest center provably cannot change assignment, and is skipped
// without touching any center. Strict inequalities plus the boundsPad
// margin mean a skip never overrides the exact scan's lowest-index
// tie-breaking, so assignments — and therefore every returned float — are
// bit-identical to the plain full-scan implementation.
func (ds *Dataset) KMeans(k int, opts KMeansOptions) (*KMeansResult, error) {
	n, m, dim := ds.N(), len(ds.ids), ds.dim
	if k < 1 {
		return nil, errors.New("cluster: k must be >= 1")
	}
	if k > n {
		k = n
	}
	rng := stats.NewRNG(opts.Seed ^ 0xC0FFEE)

	ds.centers = grow(ds.centers, k*dim)
	ds.next = grow(ds.next, k*dim)
	ds.s = grow(ds.s, k)
	ds.moved = grow(ds.moved, k)
	ds.u = grow(ds.u, m)
	ds.l = grow(ds.l, m)
	ds.d2 = grow(ds.d2, m)
	ds.dist = grow(ds.dist, n)
	ds.near = grow(ds.near, m)
	ds.seedPlusPlus(k, rng)

	centers, next := ds.centers, ds.next
	near, u, l, dist := ds.near, ds.u, ds.l, ds.dist
	for r := 0; r < m; r++ {
		near[r] = 0
		u[r] = math.Inf(1)
		l[r] = 0
	}
	assign := make([]int, n)
	sizes := make([]int, k)
	repairs := 0

	workers := parallel.Workers(opts.Workers)
	if workers > 1 && m > assignChunk {
		ds.chunks = grow(ds.chunks, (m+assignChunk-1)/assignChunk)
		for c := range ds.chunks {
			ds.chunks[c] = c * assignChunk
		}
	}

	var iter int
	for iter = 0; iter < maxIterations; iter++ {
		// Half distance from each center to its nearest other center: any
		// point closer to its center than this cannot prefer another one.
		for c := 0; c < k; c++ {
			minD := math.Inf(1)
			cc := centers[c*dim : (c+1)*dim]
			for o := 0; o < k; o++ {
				if o == c {
					continue
				}
				if d := sqDist(cc, centers[o*dim:(o+1)*dim]); d < minD {
					minD = d
				}
			}
			ds.s[c] = 0.5 * math.Sqrt(minD) * (1 - boundsPad)
		}

		// Assignment step, once per distinct row: per-row writes are
		// independent and the merge of per-chunk changed flags is an OR, so
		// the outcome is identical for any worker count or interleaving.
		changed := false
		if workers > 1 && m > assignChunk {
			chg, err := parallel.Map(workers, ds.chunks, func(_ int, lo int) (bool, error) {
				hi := lo + assignChunk
				if hi > m {
					hi = m
				}
				return ds.assignRange(lo, hi, k), nil
			})
			if err != nil {
				return nil, err
			}
			for _, c := range chg {
				changed = changed || c
			}
		} else {
			changed = ds.assignRange(0, m, k)
		}

		for c := range sizes {
			sizes[c] = 0
		}
		for i, r := range ds.rowOf {
			assign[i] = int(near[r])
			sizes[near[r]]++
		}

		// Repair empty clusters, point by point: a repair moves one point,
		// not its row. dist is materialized lazily — identical values to
		// what the full scan would have cached, recomputed only on the rare
		// iteration that actually repairs.
		repaired := false
		for c := 0; c < k; c++ {
			if sizes[c] == 0 {
				for i := 0; i < n; i++ {
					dist[i] = sqDist(ds.row(i), centers[assign[i]*dim:(assign[i]+1)*dim])
				}
				if r := ds.repairEmpty(k, assign, sizes, dist); r > 0 {
					repairs += r
					changed = true
					repaired = true
					// A row keeps a center only if all its points still do.
					for i, r := range ds.rowOf {
						near[r] = int32(assign[i])
					}
					for i, r := range ds.rowOf {
						if near[r] != int32(assign[i]) {
							near[r] = split
						}
					}
				}
				break
			}
		}

		// Update step: serial, in the same point and coordinate order as
		// the reference implementation, so the float64 summations round
		// identically.
		for j := range next[:k*dim] {
			next[j] = 0
		}
		for i := 0; i < n; i++ {
			c := next[assign[i]*dim : (assign[i]+1)*dim]
			for j, v := range ds.row(i) {
				c[j] += v
			}
		}
		var shift, maxMoved float64
		for c := 0; c < k; c++ {
			nc := next[c*dim : (c+1)*dim]
			oc := centers[c*dim : (c+1)*dim]
			if sizes[c] == 0 {
				copy(nc, oc)
				ds.moved[c] = 0
				continue
			}
			inv := 1 / float64(sizes[c])
			for j := range nc {
				nc[j] *= inv
			}
			ms := sqDist(nc, oc)
			shift += ms
			mv := math.Sqrt(ms) * (1 + boundsPad)
			ds.moved[c] = mv
			if mv > maxMoved {
				maxMoved = mv
			}
		}
		centers, next = next, centers
		ds.centers, ds.next = centers, next
		if !changed || shift < tolerance {
			iter++
			break
		}

		if repaired {
			// A re-seeded center teleported; movement-based bound updates
			// do not cover that, so force a full scan next iteration.
			for r := 0; r < m; r++ {
				u[r] = math.Inf(1)
				l[r] = 0
			}
		} else {
			for r := 0; r < m; r++ {
				u[r] += ds.moved[near[r]]
				l[r] -= maxMoved
			}
		}
	}

	// Inertia: one distance per row, one term per point. A run that ends on
	// a repair leaves split rows, whose points are measured one by one.
	d2 := ds.d2
	for r := 0; r < m; r++ {
		if a := int(near[r]); a != split {
			d2[r] = sqDist(ds.distinct(r), centers[a*dim:(a+1)*dim])
		}
	}
	var inertia float64
	for i, r := range ds.rowOf {
		if near[r] == split {
			inertia += sqDist(ds.row(i), centers[assign[i]*dim:(assign[i]+1)*dim])
		} else {
			inertia += d2[r]
		}
	}
	// Materialize the centers as an independent snapshot (one flat backing
	// array) so the result survives subsequent fits on this Dataset.
	flat := make([]float64, k*dim)
	copy(flat, centers[:k*dim])
	rows := make([][]float64, k)
	for c := range rows {
		rows[c] = flat[c*dim : (c+1)*dim : (c+1)*dim]
	}
	return &KMeansResult{
		K:          k,
		Centers:    rows,
		Assignment: assign,
		Sizes:      sizes,
		Inertia:    inertia,
		Iterations: iter,
		Repairs:    repairs,
		flat:       flat,
	}, nil
}

// assignRange runs the assignment step over distinct rows [lo, hi),
// returning whether any row's center changed. Writes only to near/u/l
// entries in the range, so disjoint ranges can run concurrently.
func (ds *Dataset) assignRange(lo, hi, k int) bool {
	dim := ds.dim
	centers, s, near, u, l := ds.centers, ds.s, ds.near, ds.u, ds.l
	changed := false
	for r := lo; r < hi; r++ {
		a := near[r]
		if ui := u[r]; a != split && (ui < s[a] || ui < l[r]) {
			// Strictly closer to its center than any other can be: the
			// full scan would keep a, with the same tie-breaking.
			continue
		}
		p := ds.distinct(r)
		best, bestD := 0, math.Inf(1)
		second := math.Inf(1)
		for c := 0; c < k; c++ {
			d := sqDist(p, centers[c*dim:(c+1)*dim])
			if d < bestD {
				second = bestD
				best, bestD = c, d
			} else if d < second {
				second = d
			}
		}
		if int32(best) != a {
			changed = true
		}
		near[r] = int32(best)
		u[r] = math.Sqrt(bestD) * (1 + boundsPad)
		l[r] = math.Sqrt(second) * (1 - boundsPad)
	}
	return changed
}

// repairEmpty re-seeds every empty cluster with the point farthest from
// all current centers, preferring points whose donor cluster keeps at
// least one member. dist must hold each point's squared distance to its
// assigned center; repairEmpty keeps it current as centers are re-seeded —
// after each repair, dist[i] is lowered to the distance to the new center
// when that is nearer, so a second repair in the same pass ranks points
// against the post-repair geometry instead of stale distances. Returns the
// number of clusters repaired.
func (ds *Dataset) repairEmpty(k int, assign, sizes []int, dist []float64) int {
	n, dim := ds.N(), ds.dim
	repairs := 0
	for c := 0; c < k; c++ {
		if sizes[c] > 0 {
			continue
		}
		far, farD := -1, -1.0
		for i := 0; i < n; i++ {
			if sizes[assign[i]] > 1 && dist[i] > farD {
				far, farD = i, dist[i]
			}
		}
		if far < 0 {
			continue // fewer distinct points than clusters
		}
		sizes[assign[far]]--
		assign[far] = c
		sizes[c] = 1
		ctr := ds.centers[c*dim : (c+1)*dim]
		copy(ctr, ds.row(far))
		dist[far] = 0
		for i := 0; i < n; i++ {
			if d := sqDist(ds.row(i), ctr); d < dist[i] {
				dist[i] = d
			}
		}
		repairs++
	}
	return repairs
}

// seedPlusPlus implements k-means++ initialization into ds.centers: the
// squared distances are kept per distinct row, the mass they weigh is summed
// and walked per point.
func (ds *Dataset) seedPlusPlus(k int, rng *stats.RNG) {
	n, m, dim := ds.N(), len(ds.ids), ds.dim
	d2 := ds.d2
	first := rng.Intn(n)
	copy(ds.centers[:dim], ds.row(first))
	for r := 0; r < m; r++ {
		d2[r] = sqDist(ds.distinct(r), ds.centers[:dim])
	}
	for c := 1; c < k; c++ {
		var total float64
		for _, r := range ds.rowOf {
			total += d2[r]
		}
		var idx int
		if total <= 0 {
			idx = rng.Intn(n) // all points coincide with some center
		} else {
			idx = pickWeighted(d2, ds.rowOf, rng.Float64()*total)
		}
		ctr := ds.centers[c*dim : (c+1)*dim]
		copy(ctr, ds.row(idx))
		for r := 0; r < m; r++ {
			if d := sqDist(ds.distinct(r), ctr); d < d2[r] {
				d2[r] = d
			}
		}
	}
}

// pickWeighted samples a point proportionally to its row's weight in d2,
// given target uniform in [0, sum of the points' weights): the first point
// where the running sum reaches target. If accumulated rounding leaves the
// running sum short of target even at the end, the draw falls back to the
// last point with nonzero weight — never silently point 0, which would bias
// re-seeding toward whatever point happens to be first.
func pickWeighted(d2 []float64, rowOf []int32, target float64) int {
	var cum float64
	for i, r := range rowOf {
		cum += d2[r]
		if cum >= target {
			return i
		}
	}
	for i := len(rowOf) - 1; i >= 0; i-- {
		if d2[rowOf[i]] > 0 {
			return i
		}
	}
	return 0
}

// NearestCenter returns the index of the center closest to p. It performs
// no allocations. Results produced by KMeans take the flat-backing fast
// path; hand-built results fall back to walking the center rows, with
// identical tie-breaking (lowest index wins).
func (r *KMeansResult) NearestCenter(p []float64) int {
	if flat := r.flat; flat != nil {
		dim := len(p)
		best, bestD := 0, math.Inf(1)
		for c := 0; c*dim < len(flat); c++ {
			ctr := flat[c*dim : (c+1)*dim]
			var d float64
			for j, v := range p {
				diff := v - ctr[j]
				d += diff * diff
			}
			if d < bestD {
				best, bestD = c, d
			}
		}
		return best
	}
	best, bestD := 0, math.Inf(1)
	for c, ctr := range r.Centers {
		if d := sqDist(p, ctr); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// Members returns the point indices belonging to cluster c, in input order.
func (r *KMeansResult) Members(c int) []int {
	var out []int
	for i, a := range r.Assignment {
		if a == c {
			out = append(out, i)
		}
	}
	return out
}
