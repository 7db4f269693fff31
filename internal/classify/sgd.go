package classify

import "pka/internal/stats"

// SGD is multiclass logistic regression (softmax) trained with mini-batch
// stochastic gradient descent and L2 regularization. Its logits are
// affine's four-wide sums, as the MLP's are.
type SGD struct {
	seed       uint64
	numClasses int
	dim        int
	scaler     *Scaler
	weights    []float64 // numClasses × (dim+1), the last column of a row its bias
}

// SGD's training schedule, tuned for the small, well-separated feature
// spaces produced by kernel profiling.
const (
	sgdEpochs       = 60
	sgdLearningRate = 0.1
	sgdL2           = 1e-4
)

// NewSGD returns an SGD classifier seeded with seed.
func NewSGD(seed uint64) *SGD {
	return &SGD{seed: seed}
}

// Name implements Classifier.
func (s *SGD) Name() string { return "sgd" }

// Fit implements Classifier.
func (s *SGD) Fit(X [][]float64, y []int, numClasses int) error {
	dim, err := validate(X, y, numClasses)
	if err != nil {
		return err
	}
	s.numClasses, s.dim = numClasses, dim
	s.scaler = FitScaler(X)
	scaled := s.scaler.applyRows(X)
	s.weights = make([]float64, numClasses*(dim+1))

	rng := stats.NewRNG(s.seed ^ 0x5D6D)
	probs := make([]float64, numClasses)
	order := make([]int, len(scaled))
	for epoch := 0; epoch < sgdEpochs; epoch++ {
		lr := sgdLearningRate / (1 + 0.05*float64(epoch))
		rng.PermInto(order)
		for _, i := range order {
			x := scaled[i]
			s.softmax(x, probs)
			probs[y[i]] -= 1 // the softmax + cross-entropy gradient
			for c, grad := range probs {
				w := s.weights[c*(dim+1):][:dim+1]
				for j, v := range x {
					w[j] -= lr * (grad*v + sgdL2*w[j])
				}
				w[dim] -= lr * grad
			}
		}
	}
	return nil
}

// softmax fills out with class probabilities for standardized features x.
func (s *SGD) softmax(x []float64, out []float64) {
	dim, nc := len(x), s.numClasses
	affine(out[:nc], s.weights, dim+1, s.weights[dim:], dim+1, x)
	normalize(out[:nc])
}

// Predict implements Classifier.
func (s *SGD) Predict(x []float64) int {
	if s.weights == nil {
		return 0
	}
	checkRow(s.Name(), len(x), s.dim)
	var buf [stackDim]float64
	var scores [stackClasses]float64
	probs := scoresOn(&scores, s.numClasses)
	s.softmax(s.scaler.applyOn(&buf, x), probs)
	return argmax(probs)
}
