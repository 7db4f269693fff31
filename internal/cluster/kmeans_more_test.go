package cluster

import (
	"testing"

	"pka/internal/stats"
)

// TestPickWeightedFallback pins the k-means++ sampling edge: when
// accumulated rounding leaves the running sum short of the target, the
// draw must fall back to the last point with nonzero weight instead of
// silently returning index 0.
func TestPickWeightedFallback(t *testing.T) {
	d2 := []float64{1, 2, 0, 3, 0}
	each := []int32{0, 1, 2, 3, 4} // one point per row
	// Normal operation: target inside the mass picks by running sum.
	if got := pickWeighted(d2, each, 0.5); got != 0 {
		t.Errorf("target 0.5: picked %d, want 0", got)
	}
	if got := pickWeighted(d2, each, 1.5); got != 1 {
		t.Errorf("target 1.5: picked %d, want 1", got)
	}
	if got := pickWeighted(d2, each, 6.0); got != 3 {
		t.Errorf("target 6.0 (== total): picked %d, want 3", got)
	}
	// Unreachable target (only possible through float rounding): must land
	// on the last nonzero-weight point, here index 3, not index 0.
	if got := pickWeighted(d2, each, 7.0); got != 3 {
		t.Errorf("unreachable target: picked %d, want 3 (last nonzero weight)", got)
	}
	// Degenerate all-zero weights: index 0 is the only sane answer.
	if got := pickWeighted([]float64{0, 0}, each[:2], 1.0); got != 0 {
		t.Errorf("all-zero weights: picked %d, want 0", got)
	}
}

// TestRepairEmptyRefreshesDistances pins the empty-cluster repair: after
// the first empty cluster is re-seeded, the distances used to choose the
// next repair point must reflect the new center. Points 1 (at x=10) and 2
// (at x=10.1) are both far from center 0; under stale distances the second
// repair would pick point 2 (10.1 > 10 from origin), but after the first
// repair plants a center at x=20, point 2 sits nearer that center than
// point 1 does, so the refreshed metric picks point 1.
func TestRepairEmptyRefreshesDistances(t *testing.T) {
	pts := [][]float64{{0}, {10}, {10.1}, {20}}
	ds, err := NewDataset(pts)
	if err != nil {
		t.Fatal(err)
	}
	k := 3
	ds.centers = grow(ds.centers, k*ds.dim)
	ds.centers[0] = 0 // cluster 0 centered at origin; clusters 1, 2 empty
	assign := []int{0, 0, 0, 0}
	sizes := []int{4, 0, 0}
	dist := []float64{0, 100, 102.01, 400}

	if got := ds.repairEmpty(k, assign, sizes, dist); got != 2 {
		t.Fatalf("repaired %d clusters, want 2", got)
	}
	// First repair: the globally farthest point (x=20) seeds cluster 1.
	if ds.centers[1] != 20 {
		t.Errorf("cluster 1 center = %v, want 20", ds.centers[1])
	}
	// Second repair: with distances refreshed against the new center,
	// point 1 (x=10) is farther from everything than point 2 (x=10.1).
	if ds.centers[2] != 10 {
		t.Errorf("cluster 2 center = %v, want 10 (stale distances would give 10.1)", ds.centers[2])
	}
	for c, want := range []int{2, 1, 1} {
		if sizes[c] != want {
			t.Errorf("sizes[%d] = %d, want %d", c, sizes[c], want)
		}
	}
	if assign[3] != 1 || assign[1] != 2 {
		t.Errorf("assignments after repair = %v", assign)
	}
	// The repaired points' own distances are now zero.
	if dist[3] != 0 || dist[1] != 0 {
		t.Errorf("repaired points keep nonzero dist: %v", dist)
	}
}

// TestKMeansRepairsSurfaced verifies the Repairs counter: a dataset with
// far more requested clusters than natural ones forces re-seeding, and the
// result still has no empty cluster.
func TestKMeansRepairsSurfaced(t *testing.T) {
	// Two tight blobs, k=6: at least four clusters start empty-prone.
	rng := stats.NewRNG(3)
	var pts [][]float64
	for i := 0; i < 40; i++ {
		base := 0.0
		if i >= 20 {
			base = 100
		}
		pts = append(pts, []float64{base + rng.NormFloat64()*0.01})
	}
	res, err := KMeans(pts, 6, KMeansOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for c, s := range res.Sizes {
		if s == 0 {
			t.Errorf("cluster %d empty despite repair", c)
		}
	}
	if res.Repairs == 0 {
		t.Log("no repairs triggered for this seed; counter still zero-valid")
	}
}

// TestKMeansWorkerInvariance verifies the parallel assignment step: any
// worker count must produce results bit-identical to the serial run.
func TestKMeansWorkerInvariance(t *testing.T) {
	rng := stats.NewRNG(21)
	pts := make([][]float64, 3000) // > assignChunk so chunking engages
	for i := range pts {
		pts[i] = []float64{rng.NormFloat64() * 5, rng.NormFloat64() * 5, rng.Float64()}
	}
	for k := 1; k <= 5; k++ {
		serial, err := KMeans(pts, k, KMeansOptions{Seed: uint64(k), Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 3, 8} {
			par, err := KMeans(pts, k, KMeansOptions{Seed: uint64(k), Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if kmHash(par) != kmHash(serial) {
				t.Errorf("k=%d workers=%d: result differs from serial run", k, w)
			}
		}
	}
}

// TestDatasetReuseAcrossSweep verifies that interleaved fits on one
// Dataset match fresh-Dataset fits: scratch reuse must not leak state
// between calls.
func TestDatasetReuseAcrossSweep(t *testing.T) {
	pts, _ := threeBlobs(40, 13)
	ds, err := NewDataset(pts)
	if err != nil {
		t.Fatal(err)
	}
	// Descending then ascending k stresses buffer shrink/grow paths.
	for _, k := range []int{6, 2, 5, 1, 6, 3} {
		got, err := ds.KMeans(k, KMeansOptions{Seed: uint64(10 + k)})
		if err != nil {
			t.Fatal(err)
		}
		want, err := KMeans(pts, k, KMeansOptions{Seed: uint64(10 + k)})
		if err != nil {
			t.Fatal(err)
		}
		if kmHash(got) != kmHash(want) {
			t.Errorf("k=%d: reused Dataset differs from fresh fit", k)
		}
	}
}
