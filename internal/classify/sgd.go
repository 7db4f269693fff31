package classify

import (
	"math"

	"pka/internal/stats"
)

// SGD is multiclass logistic regression (softmax) trained with mini-batch
// stochastic gradient descent and L2 regularization.
type SGD struct {
	Epochs       int
	LearningRate float64
	L2           float64

	seed       uint64
	numClasses int
	scaler     *Scaler
	weights    [][]float64 // numClasses × (dim+1), last column is bias
}

// NewSGD returns an SGD classifier with defaults tuned for the small,
// well-separated feature spaces produced by kernel profiling.
func NewSGD(seed uint64) *SGD {
	return &SGD{Epochs: 60, LearningRate: 0.1, L2: 1e-4, seed: seed}
}

// Name implements Classifier.
func (s *SGD) Name() string { return "sgd" }

// Fit implements Classifier.
func (s *SGD) Fit(X [][]float64, y []int, numClasses int) error {
	dim, err := validate(X, y, numClasses)
	if err != nil {
		return err
	}
	s.numClasses = numClasses
	s.scaler = FitScaler(X)
	scaled := make([][]float64, len(X))
	for i, row := range X {
		scaled[i] = s.scaler.Apply(row)
	}

	s.weights = make([][]float64, numClasses)
	for c := range s.weights {
		s.weights[c] = make([]float64, dim+1)
	}

	rng := stats.NewRNG(s.seed ^ 0x5D6D)
	probs := make([]float64, numClasses)
	order := make([]int, len(scaled))
	for epoch := 0; epoch < s.Epochs; epoch++ {
		lr := s.LearningRate / (1 + 0.05*float64(epoch))
		rng.PermInto(order)
		for _, i := range order {
			x := scaled[i]
			s.softmax(x, probs)
			for c := 0; c < numClasses; c++ {
				grad := probs[c]
				if c == y[i] {
					grad -= 1
				}
				w := s.weights[c]
				for j, v := range x {
					w[j] -= lr * (grad*v + s.L2*w[j])
				}
				w[dim] -= lr * grad
			}
		}
	}
	return nil
}

// softmax fills out with class probabilities for standardized features x.
func (s *SGD) softmax(x []float64, out []float64) {
	maxLogit := math.Inf(-1)
	for c := 0; c < s.numClasses; c++ {
		w := s.weights[c]
		logit := w[len(x)]
		for j, v := range x {
			logit += w[j] * v
		}
		out[c] = logit
		if logit > maxLogit {
			maxLogit = logit
		}
	}
	var sum float64
	for c := range out[:s.numClasses] {
		out[c] = math.Exp(out[c] - maxLogit)
		sum += out[c]
	}
	for c := range out[:s.numClasses] {
		out[c] /= sum
	}
}

// Predict implements Classifier.
func (s *SGD) Predict(x []float64) int {
	if s.weights == nil {
		return 0
	}
	probs := make([]float64, s.numClasses)
	var buf [stackDim]float64
	s.softmax(s.scaler.applyOn(&buf, x), probs)
	return argmax(probs)
}
