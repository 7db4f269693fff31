package classify

import (
	"math"

	"pka/internal/stats"
)

// MLP is a one-hidden-layer perceptron with ReLU activations and a softmax
// output, trained by plain backpropagation with SGD.
//
// Each layer's weights are one row-major slice. Fit trains through a kernel
// set (mlpKernels): the Go loops, or AVX2 kernels that do the same float
// operations, in the same order, four hidden units at a time.
type MLP struct {
	seed       uint64
	numClasses int
	dim        int
	scaler     *Scaler
	w1         []float64 // hidden × dim
	b1         []float64
	w2         []float64 // classes × hidden
	b2         []float64
}

// The MLP's width and training schedule, sized for profiler feature
// vectors.
const (
	mlpHidden       = 32
	mlpEpochs       = 80
	mlpLearningRate = 0.05
)

// NewMLP returns an MLP seeded with seed.
func NewMLP(seed uint64) *MLP {
	return &MLP{seed: seed}
}

// Name implements Classifier.
func (m *MLP) Name() string { return "mlp" }

// Fit implements Classifier.
func (m *MLP) Fit(X [][]float64, y []int, numClasses int) error {
	dim, err := validate(X, y, numClasses)
	if err != nil {
		return err
	}
	m.numClasses, m.dim = numClasses, dim
	m.scaler = FitScaler(X)
	scaled := m.scaler.applyRows(X)

	rng := stats.NewRNG(m.seed ^ 0xAB1E)
	initLayer := func(rows, cols int) []float64 {
		w := make([]float64, rows*cols)
		scale := math.Sqrt(2 / float64(cols))
		for i := range w {
			w[i] = rng.NormFloat64() * scale
		}
		return w
	}
	nh := mlpHidden
	m.w1 = initLayer(nh, dim)
	m.b1 = make([]float64, nh)
	m.w2 = initLayer(numClasses, nh)
	m.b2 = make([]float64, numClasses)

	ks := kernels
	w1 := m.w1
	if ks.transposed {
		w1 = make([]float64, len(m.w1))
		transpose(w1, m.w1, nh, dim)
	}
	b1 := (*[mlpHidden]float64)(m.b1)
	hidden, dHidden := new([mlpHidden]float64), new([mlpHidden]float64)
	probs := make([]float64, numClasses)
	order := make([]int, len(scaled))

	for epoch := 0; epoch < mlpEpochs; epoch++ {
		lr := mlpLearningRate / (1 + 0.02*float64(epoch))
		rng.PermInto(order)
		for _, i := range order {
			x := scaled[i]
			ks.hiddenForward(hidden, w1, b1, x)
			m.output(probs, hidden)
			probs[y[i]] -= 1 // the softmax + cross-entropy gradient
			ks.outputBackward(dHidden, m.w2, hidden, probs, lr)
			for c, g := range probs {
				m.b2[c] -= lr * g
			}
			ks.hiddenUpdate(w1, b1, hidden, dHidden, x, lr)
		}
	}
	if ks.transposed {
		transpose(m.w1, w1, dim, nh)
	}
	return nil
}

// forward computes hidden activations and class probabilities in place,
// through the Go kernels and m.w1's row-major layout.
func (m *MLP) forward(x, hidden, probs []float64) {
	h := (*[mlpHidden]float64)(hidden)
	hiddenForwardGo(h, m.w1, (*[mlpHidden]float64)(m.b1), x)
	m.output(probs, h)
}

// output sets probs to the class probabilities of the hidden activations.
func (m *MLP) output(probs []float64, hidden *[mlpHidden]float64) {
	affine(probs, m.w2, mlpHidden, m.b2, 1, hidden[:])
	normalize(probs)
}

// Predict implements Classifier.
func (m *MLP) Predict(x []float64) int {
	if m.w1 == nil {
		return 0
	}
	checkRow(m.Name(), len(x), m.dim)
	var buf [stackDim]float64
	var hidden [mlpHidden]float64
	var scores [stackClasses]float64
	probs := scoresOn(&scores, m.numClasses)
	m.forward(m.scaler.applyOn(&buf, x), hidden[:], probs)
	return argmax(probs)
}

// transpose sets dst to src transposed, src being rows × cols row-major.
func transpose(dst, src []float64, rows, cols int) {
	for r := 0; r < rows; r++ {
		for c, v := range src[r*cols:][:cols] {
			dst[c*rows+r] = v
		}
	}
}
