package classify

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
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
// rewrite must keep it.
func TestClassifierFitGolden(t *testing.T) {
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
	const want = 0x47064185ea8c056a
	if got := h.Sum64(); got != want {
		t.Errorf("fitted parameters hash to %#x, want %#x", got, want)
	}
}

var fitSink Classifier

// BenchmarkClassifierFit times one fit per model on a training set shaped
// like a two-level tail's: 800 rows that repeat 40 distinct light-profile
// rows (profiler.LightFeatures of 40 launch configurations), labelled into K
// groups.
func BenchmarkClassifierFit(b *testing.B) {
	const distinct, rows = 40, 800
	light := make([][]float64, distinct)
	for i := range light {
		grid := trace.Dim3{X: 64 << (i % 6), Y: 1 + i%3, Z: 1}
		block := trace.Dim3{X: 32 << (i % 4), Y: 1, Z: 1}
		light[i] = profiler.LightFeatures(fmt.Sprintf("layer%d_kernel", i), grid, block, 1024*(i%5))
	}
	for _, k := range []int{2, 4, 13} {
		X, y := make([][]float64, rows), make([]int, rows)
		for i := range X {
			X[i], y[i] = light[i%distinct], i%distinct%k
		}
		for _, model := range []struct {
			name string
			new  func() Classifier
		}{
			{"sgd", func() Classifier { return NewSGD(1) }},
			{"gnb", func() Classifier { return NewGaussianNB() }},
			{"mlp", func() Classifier { return NewMLP(2) }},
			{"ensemble", func() Classifier { return NewEnsemble(1) }},
		} {
			b.Run(fmt.Sprintf("%s/K=%d", model.name, k), func(b *testing.B) {
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
