package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanBasics(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{}, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEq(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEq(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := Variance([]float64{42}); got != 0 {
		t.Errorf("Variance of single sample = %v, want 0", got)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4, 16}); !almostEq(got, 4, 1e-9) {
		t.Errorf("GeoMean = %v, want 4", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %v, want 0", got)
	}
	// Non-positive entries are clamped, not fatal.
	if got := GeoMean([]float64{0, 4}); got <= 0 {
		t.Errorf("GeoMean with zero entry = %v, want > 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	in := []float64{9, 1, 5}
	Median(in)
	if in[0] != 9 || in[1] != 1 || in[2] != 5 {
		t.Error("Median mutated its input")
	}
}

func TestAbsPctErr(t *testing.T) {
	if got := AbsPctErr(110, 100); !almostEq(got, 10, 1e-12) {
		t.Errorf("AbsPctErr = %v, want 10", got)
	}
	if got := AbsPctErr(90, 100); !almostEq(got, 10, 1e-12) {
		t.Errorf("AbsPctErr = %v, want 10", got)
	}
	if got := AbsPctErr(0, 0); got != 0 {
		t.Errorf("AbsPctErr(0,0) = %v, want 0", got)
	}
	if got := AbsPctErr(5, 0); got != 100 {
		t.Errorf("AbsPctErr(5,0) = %v, want 100", got)
	}
}

func TestMAPE(t *testing.T) {
	m, err := MAPE([]float64{110, 90}, []float64{100, 100})
	if err != nil || !almostEq(m, 10, 1e-12) {
		t.Errorf("MAPE = %v, %v; want 10, nil", m, err)
	}
	if _, err := MAPE([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("MAPE length mismatch did not error")
	}
	if _, err := MAPE(nil, nil); err == nil {
		t.Error("MAPE on empty input did not error")
	}
}

func TestRollingWindowSemantics(t *testing.T) {
	r := NewRolling(3)
	if r.Full() {
		t.Error("fresh window reports full")
	}
	r.Push(1)
	r.Push(2)
	if r.Full() || r.Count() != 2 {
		t.Errorf("count = %d, full = %v; want 2, false", r.Count(), r.Full())
	}
	r.Push(3)
	if !r.Full() {
		t.Error("window of 3 after 3 pushes not full")
	}
	if got := r.Mean(); !almostEq(got, 2, 1e-12) {
		t.Errorf("mean = %v, want 2", got)
	}
	r.Push(10) // evicts the 1 -> window {2,3,10}
	if got := r.Mean(); !almostEq(got, 5, 1e-12) {
		t.Errorf("mean after eviction = %v, want 5", got)
	}
}

func TestRollingMatchesBatch(t *testing.T) {
	rng := NewRNG(7)
	const window = 50
	r := NewRolling(window)
	var series []float64
	for i := 0; i < 500; i++ {
		x := rng.NormFloat64()*3 + 10
		series = append(series, x)
		r.Push(x)
		lo := 0
		if len(series) > window {
			lo = len(series) - window
		}
		tail := series[lo:]
		if !almostEq(r.Mean(), Mean(tail), 1e-9) {
			t.Fatalf("step %d: rolling mean %v != batch %v", i, r.Mean(), Mean(tail))
		}
		if !almostEq(r.StdDev(), StdDev(tail), 1e-7) {
			t.Fatalf("step %d: rolling std %v != batch %v", i, r.StdDev(), StdDev(tail))
		}
	}
}

func TestRollingCoefVar(t *testing.T) {
	r := NewRolling(4)
	for i := 0; i < 4; i++ {
		r.Push(5)
	}
	if got := r.CoefVar(); got != 0 {
		t.Errorf("constant window CoefVar = %v, want 0", got)
	}
	r2 := NewRolling(2)
	r2.Push(-1)
	r2.Push(1)
	if got := r2.CoefVar(); !math.IsInf(got, 1) {
		t.Errorf("zero-mean window CoefVar = %v, want +Inf", got)
	}
	if got := NewRolling(3).CoefVar(); got != 0 {
		t.Errorf("empty window CoefVar = %v, want 0", got)
	}
}

func TestNewRollingPanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewRolling(0) did not panic")
		}
	}()
	NewRolling(0)
}

// Property: the rolling mean always lies within the min/max of the window
// contents, for any input sequence.
func TestRollingMeanBoundedProperty(t *testing.T) {
	f := func(raw []int16, w uint8) bool {
		window := int(w%32) + 1
		r := NewRolling(window)
		var series []float64
		for _, v := range raw {
			x := float64(v)
			series = append(series, x)
			r.Push(x)
			lo := 0
			if len(series) > window {
				lo = len(series) - window
			}
			minV, maxV := math.Inf(1), math.Inf(-1)
			for _, y := range series[lo:] {
				minV = math.Min(minV, y)
				maxV = math.Max(maxV, y)
			}
			m := r.Mean()
			if m < minV-1e-9 || m > maxV+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: GeoMean of positive inputs lies between min and max and is
// scale-equivariant: GeoMean(c*xs) == c*GeoMean(xs).
func TestGeoMeanProperties(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		minV, maxV := math.Inf(1), math.Inf(-1)
		for i, v := range raw {
			xs[i] = float64(v%1000) + 1
			minV = math.Min(minV, xs[i])
			maxV = math.Max(maxV, xs[i])
		}
		g := GeoMean(xs)
		if g < minV-1e-9 || g > maxV+1e-9 {
			return false
		}
		scaled := make([]float64, len(xs))
		for i := range xs {
			scaled[i] = xs[i] * 3
		}
		return almostEq(GeoMean(scaled), 3*g, 1e-6*g+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(123), NewRNG(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("identically seeded RNGs diverged")
		}
	}
	c := NewRNG(124)
	same := 0
	for i := 0; i < 100; i++ {
		if NewRNG(123).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Error("differently seeded RNGs look identical")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(99)
	for i := 0; i < 10000; i++ {
		x := r.Float64()
		if x < 0 || x >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", x)
		}
	}
}

func TestRNGIntnUniformish(t *testing.T) {
	r := NewRNG(5)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Intn(10)]++
	}
	for b, c := range counts {
		frac := float64(c) / n
		if frac < 0.08 || frac > 0.12 {
			t.Errorf("bucket %d frequency %v far from 0.1", b, frac)
		}
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(3)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

// refPerm is Perm as first written, allocating its result: the reference
// PermInto and Perm are held to.
func refPerm(r *RNG, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// TestPermIntoMatchesPerm: over seeds and lengths 0–5 000, PermInto into one
// reused, dirty buffer and Perm give refPerm's permutation and leave the
// generator where refPerm leaves it.
func TestPermIntoMatchesPerm(t *testing.T) {
	buf := make([]int, 5000)
	for _, seed := range []uint64{0, 1, 0x5D6D, 0xAB1E ^ 43} {
		ref, into, perm := NewRNG(seed), NewRNG(seed), NewRNG(seed)
		for n := 0; n <= 5000; n += 1 + n/8 {
			want := refPerm(ref, n)
			dst := buf[:n]
			into.PermInto(dst)
			got := perm.Perm(n)
			for i := range want {
				if dst[i] != want[i] || got[i] != want[i] {
					t.Fatalf("seed %#x, n %d, index %d: PermInto %d, Perm %d, want %d", seed, n, i, dst[i], got[i], want[i])
				}
			}
		}
		if a, b, c := ref.Uint64(), into.Uint64(), perm.Uint64(); a != b || a != c {
			t.Fatalf("seed %#x: generators diverged after the sweep", seed)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}
