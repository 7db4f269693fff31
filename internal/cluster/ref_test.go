package cluster

import (
	"fmt"
	"math"
	"testing"

	"pka/internal/stats"
)

// refKMeans is the Lloyd loop as it ran before rows were interned: one
// state (assignment, Hamerly bounds, k-means++ distance) per point, every
// scan and every sum over points. Dataset.KMeans must reproduce it bit for
// bit; it is kept serial, since worker count never moved a result.
func refKMeans(points [][]float64, k int, opts KMeansOptions) *KMeansResult {
	n, dim := len(points), len(points[0])
	if k > n {
		k = n
	}
	rng := stats.NewRNG(opts.Seed ^ 0xC0FFEE)
	center := func(cs []float64, c int) []float64 { return cs[c*dim : (c+1)*dim] }

	centers, next := make([]float64, k*dim), make([]float64, k*dim)
	s, moved := make([]float64, k), make([]float64, k)
	u, l, dist, d2 := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)

	// k-means++ seeding.
	copy(center(centers, 0), points[rng.Intn(n)])
	for i, p := range points {
		d2[i] = sqDist(p, center(centers, 0))
	}
	for c := 1; c < k; c++ {
		var total float64
		for _, d := range d2 {
			total += d
		}
		var idx int
		if total <= 0 {
			idx = rng.Intn(n)
		} else {
			idx = refPickWeighted(d2, rng.Float64()*total)
		}
		copy(center(centers, c), points[idx])
		for i, p := range points {
			if d := sqDist(p, center(centers, c)); d < d2[i] {
				d2[i] = d
			}
		}
	}

	for i := range u {
		u[i] = math.Inf(1)
	}
	assign := make([]int, n)
	sizes := make([]int, k)
	repairs := 0
	var iter int
	for iter = 0; iter < maxIterations; iter++ {
		for c := 0; c < k; c++ {
			minD := math.Inf(1)
			for o := 0; o < k; o++ {
				if o == c {
					continue
				}
				if d := sqDist(center(centers, c), center(centers, o)); d < minD {
					minD = d
				}
			}
			s[c] = 0.5 * math.Sqrt(minD) * (1 - boundsPad)
		}

		changed := false
		for i, p := range points {
			a := assign[i]
			if ui := u[i]; ui < s[a] || ui < l[i] {
				continue
			}
			best, bestD := 0, math.Inf(1)
			second := math.Inf(1)
			for c := 0; c < k; c++ {
				d := sqDist(p, center(centers, c))
				if d < bestD {
					second = bestD
					best, bestD = c, d
				} else if d < second {
					second = d
				}
			}
			if best != a {
				changed = true
			}
			assign[i] = best
			u[i] = math.Sqrt(bestD) * (1 + boundsPad)
			l[i] = math.Sqrt(second) * (1 - boundsPad)
		}

		for c := range sizes {
			sizes[c] = 0
		}
		for _, a := range assign {
			sizes[a]++
		}

		repaired := false
		for c := 0; c < k; c++ {
			if sizes[c] == 0 {
				for i, p := range points {
					dist[i] = sqDist(p, center(centers, assign[i]))
				}
				r := refRepairEmpty(points, centers, k, assign, sizes, dist)
				repairs += r
				if r > 0 {
					changed = true
					repaired = true
				}
				break
			}
		}

		for j := range next {
			next[j] = 0
		}
		for i, p := range points {
			c := center(next, assign[i])
			for j, v := range p {
				c[j] += v
			}
		}
		var shift, maxMoved float64
		for c := 0; c < k; c++ {
			nc, oc := center(next, c), center(centers, c)
			if sizes[c] == 0 {
				copy(nc, oc)
				moved[c] = 0
				continue
			}
			inv := 1 / float64(sizes[c])
			for j := range nc {
				nc[j] *= inv
			}
			ms := sqDist(nc, oc)
			shift += ms
			m := math.Sqrt(ms) * (1 + boundsPad)
			moved[c] = m
			if m > maxMoved {
				maxMoved = m
			}
		}
		centers, next = next, centers
		if !changed || shift < tolerance {
			iter++
			break
		}
		for i := range u {
			if repaired {
				u[i], l[i] = math.Inf(1), 0
			} else {
				u[i] += moved[assign[i]]
				l[i] -= maxMoved
			}
		}
	}

	var inertia float64
	for i, p := range points {
		inertia += sqDist(p, center(centers, assign[i]))
	}
	rows := make([][]float64, k)
	for c := range rows {
		rows[c] = center(centers, c)
	}
	return &KMeansResult{K: k, Centers: rows, Assignment: assign, Sizes: sizes,
		Inertia: inertia, Iterations: iter, Repairs: repairs}
}

func refRepairEmpty(points [][]float64, centers []float64, k int, assign, sizes []int, dist []float64) int {
	dim := len(points[0])
	repairs := 0
	for c := 0; c < k; c++ {
		if sizes[c] > 0 {
			continue
		}
		far, farD := -1, -1.0
		for i := range points {
			if sizes[assign[i]] > 1 && dist[i] > farD {
				far, farD = i, dist[i]
			}
		}
		if far < 0 {
			continue
		}
		sizes[assign[far]]--
		assign[far] = c
		sizes[c] = 1
		ctr := centers[c*dim : (c+1)*dim]
		copy(ctr, points[far])
		dist[far] = 0
		for i, p := range points {
			if d := sqDist(p, ctr); d < dist[i] {
				dist[i] = d
			}
		}
		repairs++
	}
	return repairs
}

func refPickWeighted(d2 []float64, target float64) int {
	var cum float64
	for i, d := range d2 {
		cum += d
		if cum >= target {
			return i
		}
	}
	for i := len(d2) - 1; i >= 0; i-- {
		if d2[i] > 0 {
			return i
		}
	}
	return 0
}

// firstDivergence names the first field on which got and want differ,
// floats compared by bit pattern, or returns "".
func firstDivergence(got, want *KMeansResult) string {
	switch {
	case got.K != want.K:
		return fmt.Sprintf("K = %d, want %d", got.K, want.K)
	case got.Iterations != want.Iterations:
		return fmt.Sprintf("Iterations = %d, want %d", got.Iterations, want.Iterations)
	case got.Repairs != want.Repairs:
		return fmt.Sprintf("Repairs = %d, want %d", got.Repairs, want.Repairs)
	case len(got.Assignment) != len(want.Assignment):
		return fmt.Sprintf("len(Assignment) = %d, want %d", len(got.Assignment), len(want.Assignment))
	}
	for i, a := range want.Assignment {
		if got.Assignment[i] != a {
			return fmt.Sprintf("Assignment[%d] = %d, want %d", i, got.Assignment[i], a)
		}
	}
	for c, s := range want.Sizes {
		if got.Sizes[c] != s {
			return fmt.Sprintf("Sizes[%d] = %d, want %d", c, got.Sizes[c], s)
		}
	}
	for c, ctr := range want.Centers {
		for j, v := range ctr {
			if g := got.Centers[c][j]; math.Float64bits(g) != math.Float64bits(v) {
				return fmt.Sprintf("Centers[%d][%d] = %v, want %v", c, j, g, v)
			}
		}
	}
	if math.Float64bits(got.Inertia) != math.Float64bits(want.Inertia) {
		return fmt.Sprintf("Inertia = %v, want %v", got.Inertia, want.Inertia)
	}
	return ""
}

// drawPoints draws n points from a pool of distinct rows (distinct >= n:
// every point its own row). Coordinates are small integers plus noise, with
// exact zeros of both signs mixed in, so two rows can differ in nothing but
// the sign of a zero.
func drawPoints(rng *stats.RNG, n, distinct, dim int) [][]float64 {
	row := func() []float64 {
		p := make([]float64, dim)
		for j := range p {
			switch rng.Intn(6) {
			case 0:
				p[j] = 0
			case 1:
				p[j] = math.Copysign(0, -1)
			default:
				p[j] = float64(rng.Intn(5)) + rng.NormFloat64()*0.1
			}
		}
		return p
	}
	if distinct >= n {
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = row()
		}
		return pts
	}
	pool := make([][]float64, distinct)
	for r := range pool {
		pool[r] = row()
	}
	if distinct >= 2 {
		// Force the case outright: the second row is the first but for the
		// sign of a leading zero.
		pool[1] = append([]float64(nil), pool[0]...)
		pool[0][0], pool[1][0] = 0, math.Copysign(0, -1)
	}
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = pool[rng.Intn(distinct)]
	}
	return pts
}

// TestKMeansMatchesPerPointReference drives the interned Lloyd loop and
// refKMeans from one seeded generator and requires equal results, field by
// field. The cases cover what interning could get wrong: every duplicate
// ratio from one row to all-distinct, rows equal up to the sign of zero,
// k above the distinct count (each pass then repairs, several clusters at
// once, and the run ends on a repair with rows split across centers).
func TestKMeansMatchesPerPointReference(t *testing.T) {
	rng := stats.NewRNG(20211018)
	sizes := []int{1, 2, 3, 7, 40, 333, 1500, 5000}
	var endedSplit, multiRepair, chunked int
	for trial := 0; trial < 120; trial++ {
		n := sizes[trial%len(sizes)]
		if trial >= 2*len(sizes) {
			n = 1 + rng.Intn(sizes[trial%len(sizes)])
		}
		dim := 1 + rng.Intn(12)
		k := 1 + rng.Intn(12)
		distinct := []int{1, 2, k - 1, k, 40, n}[trial%6]
		if distinct < 1 {
			distinct = 1
		}
		pts := drawPoints(rng, n, distinct, dim)
		opts := KMeansOptions{Seed: rng.Uint64(), Workers: []int{1, 2, 8}[trial%3]}
		name := fmt.Sprintf("trial %d (n=%d distinct=%d dim=%d k=%d workers=%d)", trial, n, distinct, dim, k, opts.Workers)

		ds, err := NewDataset(pts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ds.KMeans(k, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := refKMeans(pts, k, opts)
		if d := firstDivergence(got, want); d != "" {
			t.Fatalf("%s: %s", name, d)
		}

		for _, a := range ds.near {
			if a == split {
				endedSplit++
				break
			}
		}
		if want.Repairs >= 2 && want.Iterations == 1 {
			multiRepair++
		}
		if len(ds.ids) > assignChunk && opts.Workers > 1 {
			chunked++
		}
	}
	// The generator must keep reaching the paths this test exists for.
	if endedSplit == 0 || multiRepair == 0 || chunked == 0 {
		t.Errorf("coverage lost: %d runs ended on a split row, %d repaired twice in one pass, %d chunked the assignment",
			endedSplit, multiRepair, chunked)
	}
}
