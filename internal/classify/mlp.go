package classify

import (
	"math"

	"pka/internal/stats"
)

// MLP is a one-hidden-layer perceptron with ReLU activations and a softmax
// output, trained by plain backpropagation with SGD.
//
// Each layer's weights are one row-major slice. The forward sums (affine)
// and the output layer's backward pass run four rows side by side, each row
// with the float operations, in the order, of one row at a time.
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
	scaled := make([][]float64, len(X))
	for i, row := range X {
		scaled[i] = m.scaler.Apply(row)
	}

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

	hidden := make([]float64, nh)
	probs := make([]float64, numClasses)
	dHidden := make([]float64, nh)
	order := make([]int, len(scaled))

	for epoch := 0; epoch < mlpEpochs; epoch++ {
		lr := mlpLearningRate / (1 + 0.02*float64(epoch))
		rng.PermInto(order)
		for _, i := range order {
			x := scaled[i]
			m.forward(x, hidden, probs)
			probs[y[i]] -= 1 // the softmax + cross-entropy gradient

			// Output layer. dHidden takes its class terms in class order, each
			// from the weight before that class's update.
			for h := range dHidden {
				dHidden[h] = 0
			}
			c := 0
			for ; c+4 <= numClasses; c += 4 {
				g0, g1, g2, g3 := probs[c], probs[c+1], probs[c+2], probs[c+3]
				l0, l1, l2, l3 := lr*g0, lr*g1, lr*g2, lr*g3
				w0, w1, w2, w3 := m.w2[c*nh:][:nh], m.w2[(c+1)*nh:][:nh], m.w2[(c+2)*nh:][:nh], m.w2[(c+3)*nh:][:nh]
				for h, v := range hidden {
					a0, a1, a2, a3 := w0[h], w1[h], w2[h], w3[h]
					d := dHidden[h]
					d += g0 * a0
					d += g1 * a1
					d += g2 * a2
					d += g3 * a3
					dHidden[h] = d
					w0[h] = a0 - l0*v
					w1[h] = a1 - l1*v
					w2[h] = a2 - l2*v
					w3[h] = a3 - l3*v
				}
				m.b2[c] -= l0
				m.b2[c+1] -= l1
				m.b2[c+2] -= l2
				m.b2[c+3] -= l3
			}
			for ; c < numClasses; c++ {
				g := probs[c]
				l := lr * g
				w := m.w2[c*nh:][:nh]
				for h, v := range hidden {
					dHidden[h] += g * w[h]
					w[h] -= l * v
				}
				m.b2[c] -= l
			}
			// Hidden layer gradient through ReLU.
			for h, v := range hidden {
				if v <= 0 {
					continue
				}
				l := lr * dHidden[h]
				w := m.w1[h*dim:][:len(x)]
				for j, xj := range x {
					w[j] -= l * xj
				}
				m.b1[h] -= l
			}
		}
	}
	return nil
}

// forward computes hidden activations and class probabilities in place.
func (m *MLP) forward(x, hidden, probs []float64) {
	affine(hidden, m.w1, len(x), m.b1, 1, x)
	for h, sum := range hidden {
		if sum < 0 { // ReLU; not max(sum, 0), which turns a -0 sum into +0
			hidden[h] = 0
		}
	}
	affine(probs[:m.numClasses], m.w2, mlpHidden, m.b2, 1, hidden)
	normalize(probs[:m.numClasses])
}

// Predict implements Classifier.
func (m *MLP) Predict(x []float64) int {
	if m.w1 == nil {
		return 0
	}
	checkRow(m.Name(), len(x), m.dim)
	hidden := make([]float64, mlpHidden)
	probs := make([]float64, m.numClasses)
	var buf [stackDim]float64
	m.forward(m.scaler.applyOn(&buf, x), hidden, probs)
	return argmax(probs)
}
