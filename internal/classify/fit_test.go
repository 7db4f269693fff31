package classify

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"pka/internal/profiler"
	"pka/internal/stats"
	"pka/internal/trace"
)

// goldenDataset builds k classes of perClass rows over dim features: each
// class a random centre with unit noise around it, so neighbouring classes
// overlap, and column 1 constant (the scaler's exact-zero path).
func goldenDataset(seed uint64, dim, k, perClass int) ([][]float64, []int) {
	rng := stats.NewRNG(seed*1000 + uint64(dim*16+k))
	centres := make([][]float64, k)
	for c := range centres {
		centres[c] = make([]float64, dim)
		for j := range centres[c] {
			centres[c][j] = 3 * rng.NormFloat64()
		}
	}
	var X [][]float64
	var y []int
	for i := 0; i < perClass*k; i++ {
		c := i % k
		row := make([]float64, dim)
		for j := range row {
			row[j] = centres[c][j] + rng.NormFloat64()
		}
		row[1] = 0.1
		X, y = append(X, row), append(y, c)
	}
	return X, y
}

// putFloats feeds the bits of every value to h, slice after slice.
func putFloats(h hash.Hash64, vals ...[]float64) {
	var b [8]byte
	for _, v := range vals {
		for _, f := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
			h.Write(b[:])
		}
	}
}

// TestClassifierFitGolden pins every fitted parameter of the three models to
// the float bit: the SGD weights, the Naive Bayes priors, means and
// variances, the MLP's two layers and biases, both scalers, and Predict of
// each model and of their ensemble on every training row. The datasets cover
// every remainder of a four-wide block of classes (K = 1…5 and 13) on a
// narrow row, the light-profile width and a row wider than the scaler's
// stack buffer, each with a constant column, over two seeds. The hash was
// recorded before the fits were laid out on flat weight rows; a kernel
// rewrite must keep it. It runs once per MLP kernel set this CPU has.
func TestClassifierFitGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the fit hash is pinned on amd64 only, not %s: 386 computes math.Exp in pure Go, "+
			"not the amd64 assembly, and arm64 and others may fuse x*y + z", runtime.GOARCH)
	}
	for _, ks := range kernelSets(t) {
		t.Run(ks.name, func(t *testing.T) {
			defer useKernels(ks)()
			const want uint64 = 0x47064185ea8c056a
			if got := fitGoldenHash(t); got != want {
				t.Errorf("fitted parameters hash to %#x, want %#x", got, want)
			}
		})
	}
}

func fitGoldenHash(t *testing.T) uint64 {
	h := fnv.New64a()
	for _, seed := range []uint64{3, 8} {
		for _, dim := range []int{3, profiler.NumLightFeatures, stackDim + 1} {
			for _, k := range []int{1, 2, 3, 4, 5, 13} {
				X, y := goldenDataset(seed, dim, k, 9)
				sgd, gnb, mlp := NewSGD(seed), NewGaussianNB(), NewMLP(seed+1)
				for _, m := range []Classifier{sgd, gnb, mlp} {
					if err := m.Fit(X, y, k); err != nil {
						t.Fatalf("seed %d dim %d K %d: %s: %v", seed, dim, k, m.Name(), err)
					}
				}
				putFloats(h, sgd.weights)
				putFloats(h, sgd.scaler.Mean, sgd.scaler.Scale)
				putFloats(h, gnb.priors)
				putFloats(h, gnb.means...)
				putFloats(h, gnb.variances...)
				putFloats(h, mlp.w1)
				putFloats(h, mlp.b1)
				putFloats(h, mlp.w2)
				putFloats(h, mlp.b2)
				putFloats(h, mlp.scaler.Mean, mlp.scaler.Scale)
				e := &Ensemble{Members: []Classifier{sgd, gnb, mlp}}
				for _, x := range X {
					for _, m := range []Classifier{sgd, gnb, mlp, e} {
						fmt.Fprintf(h, "%d,", m.Predict(x))
					}
				}
			}
		}
	}
	return h.Sum64()
}

var fitSink Classifier

// The shape of a two-level tail's training set: rows rows that repeat
// distinct light-profile rows, each distinct row one shared slice.
const tailDistinct, tailRows = 40, 800

// tailShaped builds such a set: profiler.LightFeatures of tailDistinct
// launch configurations, labelled into k groups.
func tailShaped(k int) ([][]float64, []int) {
	light := make([][]float64, tailDistinct)
	for i := range light {
		grid := trace.Dim3{X: 64 << (i % 6), Y: 1 + i%3, Z: 1}
		block := trace.Dim3{X: 32 << (i % 4), Y: 1, Z: 1}
		light[i] = profiler.LightFeatures(fmt.Sprintf("layer%d_kernel", i), grid, block, 1024*(i%5))
	}
	X, y := make([][]float64, tailRows), make([]int, tailRows)
	for i := range X {
		X[i], y[i] = light[i%tailDistinct], i%tailDistinct%k
	}
	return X, y
}

// BenchmarkClassifierFit times one fit per model on a tail-shaped training
// set (tailShaped) at K = 2, 4 and 13, through each MLP kernel set this CPU
// has (the last name element; SGD and Naive Bayes use none).
func BenchmarkClassifierFit(b *testing.B) {
	for _, k := range []int{2, 4, 13} {
		X, y := tailShaped(k)
		for _, model := range []struct {
			name string
			new  func() Classifier
		}{
			{"sgd", func() Classifier { return NewSGD(1) }},
			{"gnb", func() Classifier { return NewGaussianNB() }},
			{"mlp", func() Classifier { return NewMLP(2) }},
			{"ensemble", func() Classifier { return NewEnsemble(1) }},
		} {
			for _, ks := range kernelSets(b) {
				b.Run(fmt.Sprintf("%s/K=%d/%s", model.name, k, ks.name), func(b *testing.B) {
					defer useKernels(ks)()
					for i := 0; i < b.N; i++ {
						m := model.new()
						if err := m.Fit(X, y, k); err != nil {
							b.Fatal(err)
						}
						fitSink = m
					}
				})
			}
		}
	}
}

// TestFitScalesSharedRowsOnce: SGD and MLP standardize each distinct row of
// a tail-shaped set once, not once per row — a fit allocates about one
// scaled row per distinct row, plus a fixed handful.
func TestFitScalesSharedRowsOnce(t *testing.T) {
	X, y := tailShaped(4)
	for _, m := range []Classifier{NewSGD(1), NewMLP(2)} {
		allocs := testing.AllocsPerRun(2, func() {
			if err := m.Fit(X, y, 4); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tailDistinct+40 {
			t.Errorf("%s.Fit on %d rows of %d shared slices allocates %v times, want <= %d", m.Name(), tailRows, tailDistinct, allocs, tailDistinct+40)
		}
	}
}

// TestPredictAllocatesNothing: each model's Predict, and the ensemble's,
// scores a light-profile row on stack buffers.
func TestPredictAllocatesNothing(t *testing.T) {
	X, y := tailShaped(13)
	e := NewEnsemble(1)
	if err := e.Fit(X, y, 13); err != nil {
		t.Fatal(err)
	}
	for _, m := range append([]Classifier{e}, e.Members...) {
		if allocs := testing.AllocsPerRun(100, func() { m.Predict(X[7]) }); allocs != 0 {
			t.Errorf("%s.Predict allocates %v times per call, want 0", m.Name(), allocs)
		}
	}
}
