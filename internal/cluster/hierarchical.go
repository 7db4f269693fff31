package cluster

import (
	"errors"
	"math"
)

// MaxHierarchicalPoints bounds hierarchical clustering's input size. At
// this size the distance matrix alone costs ~3.2 GB of float64s; beyond it
// the TBPoint baseline is declared intractable, mirroring the paper's
// scalability argument against hierarchical approaches.
const MaxHierarchicalPoints = 20000

// ErrTooManyPoints reports that hierarchical clustering was asked to
// handle more points than its quadratic memory footprint allows.
var ErrTooManyPoints = errors.New("cluster: too many points for hierarchical clustering")

// Merge records one dendrogram join: clusters rooted at A and B (original
// point indices) joined at the given average-linkage height.
type Merge struct {
	A, B   int
	Height float64
}

// Dendrogram is the full average-linkage merge tree of a point set. Build
// it once, then Cut it at any number of thresholds — the access pattern of
// TBPoint's 20-point threshold sweep.
type Dendrogram struct {
	n      int
	merges []Merge
}

// BuildDendrogram computes the average-linkage dendrogram using a
// nearest-neighbour cache over an explicit distance matrix (O(n²) memory).
func BuildDendrogram(points [][]float64) (*Dendrogram, error) {
	n := len(points)
	if n == 0 {
		return nil, errors.New("cluster: no points")
	}
	if n > MaxHierarchicalPoints {
		return nil, ErrTooManyPoints
	}

	size := make([]int, n)
	active := make([]bool, n)
	for i := range size {
		size[i] = 1
		active[i] = true
	}
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
		for j := 0; j < i; j++ {
			d := math.Sqrt(sqDist(points[i], points[j]))
			dist[i][j] = d
			dist[j][i] = d
		}
	}

	nn := make([]int, n)
	nnDist := make([]float64, n)
	refreshNN := func(i int) {
		nn[i] = -1
		nnDist[i] = math.Inf(1)
		row := dist[i]
		for j := 0; j < n; j++ {
			if j == i || !active[j] {
				continue
			}
			if row[j] < nnDist[i] {
				nn[i], nnDist[i] = j, row[j]
			}
		}
	}
	for i := 0; i < n; i++ {
		refreshNN(i)
	}

	d := &Dendrogram{n: n, merges: make([]Merge, 0, n-1)}
	for remaining := n; remaining > 1; remaining-- {
		bi, bd := -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if active[i] && nn[i] >= 0 && nnDist[i] < bd {
				bi, bd = i, nnDist[i]
			}
		}
		if bi < 0 {
			break
		}
		bj := nn[bi]
		d.merges = append(d.merges, Merge{A: bi, B: bj, Height: bd})

		// Lance-Williams average-linkage update, folding bj into bi.
		ni, nj := float64(size[bi]), float64(size[bj])
		for k := 0; k < n; k++ {
			if !active[k] || k == bi || k == bj {
				continue
			}
			v := (ni*dist[bi][k] + nj*dist[bj][k]) / (ni + nj)
			dist[bi][k] = v
			dist[k][bi] = v
		}
		size[bi] += size[bj]
		active[bj] = false

		refreshNN(bi)
		for k := 0; k < n; k++ {
			if !active[k] || k == bi {
				continue
			}
			if nn[k] == bi || nn[k] == bj {
				refreshNN(k)
			} else if dist[k][bi] < nnDist[k] {
				nn[k], nnDist[k] = bi, dist[k][bi]
			}
		}
	}
	return d, nil
}

// Cut returns the flat clustering obtained by applying every merge at or
// below the threshold: an assignment vector (cluster ids are dense,
// 0-based, ordered by first appearance) and the cluster count.
func (d *Dendrogram) Cut(threshold float64) ([]int, int) {
	parent := make([]int, d.n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, m := range d.merges {
		if m.Height > threshold {
			// Average-linkage merge heights are monotone non-decreasing,
			// so everything beyond this point is above the cut.
			break
		}
		ra, rb := find(m.A), find(m.B)
		if ra != rb {
			parent[rb] = ra
		}
	}
	assign := make([]int, d.n)
	label := map[int]int{}
	k := 0
	for i := 0; i < d.n; i++ {
		r := find(i)
		id, ok := label[r]
		if !ok {
			id = k
			label[r] = id
			k++
		}
		assign[i] = id
	}
	return assign, k
}

// Agglomerative performs average-linkage hierarchical clustering, merging
// until the nearest pair of clusters is farther apart than threshold. It
// returns the assignment vector and the number of clusters formed. For
// repeated cuts of the same point set, build a Dendrogram once instead.
func Agglomerative(points [][]float64, threshold float64) ([]int, int, error) {
	d, err := BuildDendrogram(points)
	if err != nil {
		return nil, 0, err
	}
	assign, k := d.Cut(threshold)
	return assign, k, nil
}
