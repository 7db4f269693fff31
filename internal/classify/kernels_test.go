package classify

import (
	"math"
	"testing"

	"pka/internal/stats"
)

// kernelSets is every MLP kernel set this CPU runs: AVX2 where it has it,
// and the Go reference.
func kernelSets(t testing.TB) []*mlpKernels {
	if avx2Kernels == nil {
		t.Log("no AVX2 kernel set on this CPU or target: the Go reference alone")
		return []*mlpKernels{goKernels}
	}
	return []*mlpKernels{avx2Kernels, goKernels}
}

// useKernels makes MLP.Fit train through ks until the returned func puts
// the set before it back.
func useKernels(ks *mlpKernels) (restore func()) {
	prev := kernels
	kernels = ks
	return func() { kernels = prev }
}

// kernelInputs draws kernel operands across the float range: magnitudes from
// 1e-5 to 1e5 of either sign, ±0 and subnormals.
type kernelInputs struct{ rng *stats.RNG }

func (in kernelInputs) value() float64 {
	var v float64
	switch in.rng.Intn(8) {
	case 0:
		v = 0
	case 1:
		v = float64(1+in.rng.Intn(1<<20)) * math.SmallestNonzeroFloat64 // subnormal
	default:
		v = math.Pow(10, -5+10*in.rng.Float64()) * (0.5 + in.rng.Float64())
	}
	if in.rng.Intn(2) == 0 {
		v = -v
	}
	return v
}

func (in kernelInputs) fill(vs []float64) []float64 {
	for i := range vs {
		vs[i] = in.value()
	}
	return vs
}

// hidden draws hidden activations, a quarter of them ±0 and one in sixteen
// NaN: the values where the ReLU mask's edge lies.
func (in kernelInputs) hidden() *[mlpHidden]float64 {
	var h [mlpHidden]float64
	for i := range h {
		switch in.rng.Intn(16) {
		case 0, 1:
			h[i] = 0
		case 2, 3:
			h[i] = math.Copysign(0, -1)
		case 4:
			h[i] = math.NaN()
		default:
			h[i] = in.value()
		}
	}
	return &h
}

// sameFloats reports the first index where a and b differ in bits, or -1.
func sameFloats(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestAVX2KernelsMatchGo runs each AVX2 kernel against its Go reference on
// the same random operands and wants every output bit equal: hidden units at
// ±0 and NaN, subnormals, sums that land on -0, rows 0 to 17 wide and 1 to
// 20 classes. The AVX2 set reads w1 transposed, so it gets a transposed copy
// and its result is transposed back before the compare. NaN enters from one
// operand of any operation only: which NaN two NaN operands yield is not
// part of the exactness argument.
func TestAVX2KernelsMatchGo(t *testing.T) {
	if avx2Kernels == nil {
		t.Skip("no AVX2 kernel set on this CPU or target")
	}
	in := kernelInputs{stats.NewRNG(48)}
	for trial := 0; trial < 500; trial++ {
		dim := []int{0, 1, 3, 10, 17}[trial%5]
		classes := 1 + trial%20
		x := in.fill(make([]float64, dim))
		if trial%7 == 0 { // every product ±0, so a ±0 bias sums to ±0
			for j := range x {
				x[j] = math.Copysign(0, float64(j%2*2-1))
			}
		}
		w1 := in.fill(make([]float64, mlpHidden*dim))
		w1t := make([]float64, len(w1))
		transpose(w1t, w1, mlpHidden, dim)
		b1 := (*[mlpHidden]float64)(in.fill(make([]float64, mlpHidden)))
		if trial%3 == 0 {
			b1[trial%mlpHidden] = math.NaN()
		}
		lr := in.value()

		var want, got [mlpHidden]float64
		hiddenForwardGo(&want, w1, b1, x)
		avx2Kernels.hiddenForward(&got, w1t, b1, x)
		if i := sameFloats(got[:], want[:]); i >= 0 {
			t.Fatalf("trial %d (dim %d): hiddenForward unit %d = %v, Go %v", trial, dim, i, got[i], want[i])
		}

		hidden := in.hidden()
		w2 := in.fill(make([]float64, classes*mlpHidden))
		w2Got := append([]float64(nil), w2...)
		probs := in.fill(make([]float64, classes))
		var dWant, dGot [mlpHidden]float64
		outputBackwardGo(&dWant, w2, hidden, probs, lr)
		avx2Kernels.outputBackward(&dGot, w2Got, hidden, probs, lr)
		if i := sameFloats(dGot[:], dWant[:]); i >= 0 {
			t.Fatalf("trial %d (K %d): outputBackward dHidden[%d] = %v, Go %v", trial, classes, i, dGot[i], dWant[i])
		}
		if i := sameFloats(w2Got, w2); i >= 0 {
			t.Fatalf("trial %d (K %d): outputBackward w2[%d] = %v, Go %v", trial, classes, i, w2Got[i], w2[i])
		}

		b1Got := *b1
		hiddenUpdateGo(w1, b1, hidden, &dWant, x, lr)
		avx2Kernels.hiddenUpdate(w1t, &b1Got, hidden, &dWant, x, lr)
		if i := sameFloats(b1Got[:], b1[:]); i >= 0 {
			t.Fatalf("trial %d (dim %d): hiddenUpdate b1[%d] = %v, Go %v (hidden %v)", trial, dim, i, b1Got[i], b1[i], hidden[i])
		}
		back := make([]float64, len(w1))
		transpose(back, w1t, dim, mlpHidden)
		if i := sameFloats(back, w1); i >= 0 {
			t.Fatalf("trial %d (dim %d): hiddenUpdate w1[%d] = %v, Go %v (hidden %v)", trial, dim, i, back[i], w1[i], hidden[i/max(dim, 1)])
		}
	}
}
