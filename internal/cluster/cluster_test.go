package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"pka/internal/stats"
)

// threeBlobs returns 3*per points in well-separated clusters around the
// given centers.
func threeBlobs(per int, seed uint64) ([][]float64, [][]float64) {
	centers := [][]float64{{0, 0}, {10, 10}, {-10, 8}}
	rng := stats.NewRNG(seed)
	var pts [][]float64
	for _, c := range centers {
		for i := 0; i < per; i++ {
			pts = append(pts, []float64{c[0] + rng.NormFloat64()*0.5, c[1] + rng.NormFloat64()*0.5})
		}
	}
	return pts, centers
}

func TestKMeansSeparatesBlobs(t *testing.T) {
	pts, trueCenters := threeBlobs(50, 1)
	res, err := KMeans(pts, 3, KMeansOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 3 {
		t.Fatalf("K = %d", res.K)
	}
	// Each blob of 50 consecutive points must be in a single cluster.
	for b := 0; b < 3; b++ {
		first := res.Assignment[b*50]
		for i := 1; i < 50; i++ {
			if res.Assignment[b*50+i] != first {
				t.Fatalf("blob %d split across clusters", b)
			}
		}
	}
	// Each fitted center should be near some true center.
	for _, ctr := range res.Centers {
		best := math.Inf(1)
		for _, tc := range trueCenters {
			best = math.Min(best, math.Sqrt(sqDist(ctr, tc)))
		}
		if best > 1.0 {
			t.Errorf("fitted center %v far from any true center (%.2f)", ctr, best)
		}
	}
}

func TestKMeansDeterministic(t *testing.T) {
	pts, _ := threeBlobs(30, 9)
	a, err := KMeans(pts, 4, KMeansOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMeans(pts, 4, KMeansOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assignment {
		if a.Assignment[i] != b.Assignment[i] {
			t.Fatal("same seed produced different assignments")
		}
	}
	if a.Inertia != b.Inertia {
		t.Fatal("same seed produced different inertia")
	}
}

func TestKMeansEdgeCases(t *testing.T) {
	if _, err := KMeans(nil, 2, KMeansOptions{}); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := KMeans([][]float64{{1}}, 0, KMeansOptions{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := KMeans([][]float64{{1, 2}, {1}}, 1, KMeansOptions{}); err == nil {
		t.Error("ragged points accepted")
	}
	// k greater than n clamps to n.
	res, err := KMeans([][]float64{{0}, {5}}, 10, KMeansOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 2 {
		t.Errorf("K clamped to %d, want 2", res.K)
	}
	// All-identical points: must not loop forever or produce NaNs.
	same := [][]float64{{3, 3}, {3, 3}, {3, 3}, {3, 3}}
	res, err = KMeans(same, 2, KMeansOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia != 0 {
		t.Errorf("identical points inertia = %v", res.Inertia)
	}
}

func TestKMeansK1EqualsMean(t *testing.T) {
	pts := [][]float64{{0, 0}, {2, 2}, {4, 4}}
	res, err := KMeans(pts, 1, KMeansOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Centers[0][0]-2) > 1e-9 || math.Abs(res.Centers[0][1]-2) > 1e-9 {
		t.Errorf("k=1 center = %v, want [2 2]", res.Centers[0])
	}
	for _, a := range res.Assignment {
		if a != 0 {
			t.Fatal("k=1 produced assignment != 0")
		}
	}
}

func TestKMeansMembersAndNearest(t *testing.T) {
	pts, _ := threeBlobs(10, 4)
	res, err := KMeans(pts, 3, KMeansOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for c := 0; c < res.K; c++ {
		ms := res.Members(c)
		total += len(ms)
		for _, i := range ms {
			if res.Assignment[i] != c {
				t.Fatal("Members returned a point assigned elsewhere")
			}
		}
	}
	if total != len(pts) {
		t.Errorf("Members cover %d points, want %d", total, len(pts))
	}
	if got := res.NearestCenter(pts[0]); got != res.Assignment[0] {
		t.Errorf("NearestCenter = %d, assignment = %d", got, res.Assignment[0])
	}
}

// Property: every cluster returned by KMeans is non-empty whenever there
// are at least k distinct points, and inertia never exceeds the k=1
// inertia.
func TestKMeansInvariantsProperty(t *testing.T) {
	f := func(seed uint32, kRaw uint8) bool {
		rng := stats.NewRNG(uint64(seed))
		n := 20 + rng.Intn(30)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{rng.Float64() * 100, rng.Float64() * 100}
		}
		k := int(kRaw%5) + 1
		res, err := KMeans(pts, k, KMeansOptions{Seed: uint64(seed) + 1})
		if err != nil {
			return false
		}
		for _, s := range res.Sizes {
			if s == 0 {
				return false
			}
		}
		base, err := KMeans(pts, 1, KMeansOptions{Seed: uint64(seed) + 1})
		if err != nil {
			return false
		}
		return res.Inertia <= base.Inertia+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestAgglomerativeMergesBlobs(t *testing.T) {
	pts, _ := threeBlobs(15, 5)
	assign, k, err := Agglomerative(pts, 5.0)
	if err != nil {
		t.Fatal(err)
	}
	if k != 3 {
		t.Fatalf("clusters = %d, want 3", k)
	}
	for b := 0; b < 3; b++ {
		first := assign[b*15]
		for i := 1; i < 15; i++ {
			if assign[b*15+i] != first {
				t.Fatalf("blob %d split", b)
			}
		}
	}
}

func TestAgglomerativeThresholdExtremes(t *testing.T) {
	pts, _ := threeBlobs(5, 6)
	// Tiny threshold: nothing merges.
	_, k, err := Agglomerative(pts, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if k != len(pts) {
		t.Errorf("tiny threshold gave %d clusters, want %d", k, len(pts))
	}
	// Huge threshold: everything merges.
	_, k, err = Agglomerative(pts, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if k != 1 {
		t.Errorf("huge threshold gave %d clusters, want 1", k)
	}
}

func TestAgglomerativeScalingWall(t *testing.T) {
	pts := make([][]float64, MaxHierarchicalPoints+1)
	for i := range pts {
		pts[i] = []float64{0}
	}
	if _, _, err := Agglomerative(pts, 1); err != ErrTooManyPoints {
		t.Errorf("err = %v, want ErrTooManyPoints", err)
	}
	if _, _, err := Agglomerative(nil, 1); err == nil {
		t.Error("empty input accepted")
	}
}

func TestAgglomerativeSinglePoint(t *testing.T) {
	assign, k, err := Agglomerative([][]float64{{1, 2}}, 1)
	if err != nil || k != 1 || assign[0] != 0 {
		t.Errorf("single point: assign=%v k=%d err=%v", assign, k, err)
	}
}

// TestNearestCenterAllocFree pins the nearest-centre assignment at zero
// allocations per call, on both the flat fast path (results from KMeans)
// and the row fallback (hand-built results).
func TestNearestCenterAllocFree(t *testing.T) {
	pts, _ := threeBlobs(30, 7)
	res, err := KMeans(pts, 3, KMeansOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	manual := &KMeansResult{K: res.K, Centers: res.Centers}
	p := []float64{1.5, -2.5}
	if got, want := res.NearestCenter(p), manual.NearestCenter(p); got != want {
		t.Fatalf("flat path picked %d, row path %d", got, want)
	}
	for name, r := range map[string]*KMeansResult{"flat": res, "rows": manual} {
		if allocs := testing.AllocsPerRun(100, func() { r.NearestCenter(p) }); allocs != 0 {
			t.Errorf("%s NearestCenter allocates %.0f per call, want 0", name, allocs)
		}
	}
}

// BenchmarkNearestCenter measures the cost of one nearest-center lookup at a
// PKS-typical K and dimensionality.
func BenchmarkNearestCenter(b *testing.B) {
	rng := stats.NewRNG(21)
	pts := make([][]float64, 4096)
	for i := range pts {
		pts[i] = []float64{rng.NormFloat64() * 5, rng.NormFloat64() * 5, rng.NormFloat64() * 5}
	}
	res, err := KMeans(pts, 16, KMeansOptions{Seed: 8})
	if err != nil {
		b.Fatal(err)
	}
	p := []float64{0.5, -1.5, 2.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res.NearestCenter(p)
	}
}
