// Package classify implements the supervised models PKA's two-level
// profiling uses to map lightly-profiled kernels onto the groups discovered
// by detailed profiling: multiclass logistic regression trained with
// stochastic gradient descent, Gaussian Naive Bayes, and a one-hidden-layer
// multilayer perceptron, plus a majority-vote ensemble over all three
// (mirroring the paper, which runs all three models).
package classify

import (
	"errors"
	"fmt"
	"math"

	"pka/internal/parallel"
)

// Classifier is a multiclass model over dense feature vectors.
type Classifier interface {
	// Fit trains on rows X with labels y in [0, numClasses).
	Fit(X [][]float64, y []int, numClasses int) error
	// Predict returns the most likely class for x.
	Predict(x []float64) int
	// Name identifies the model in reports.
	Name() string
}

var (
	errNoData   = errors.New("classify: no training data")
	errBadLabel = errors.New("classify: label out of range")
	errRagged   = errors.New("classify: ragged feature dimensions")
	errNotFit   = errors.New("classify: model not fitted")
)

func validate(X [][]float64, y []int, numClasses int) (dim int, err error) {
	if len(X) == 0 || len(X) != len(y) {
		return 0, errNoData
	}
	if numClasses < 1 {
		return 0, errors.New("classify: numClasses must be >= 1")
	}
	dim = len(X[0])
	for _, row := range X {
		if len(row) != dim {
			return 0, errRagged
		}
	}
	for _, label := range y {
		if label < 0 || label >= numClasses {
			return 0, errBadLabel
		}
	}
	return dim, nil
}

// checkRow panics unless a row to predict has the width the model was fitted
// on: a short row would read a weight as the bias or drop terms, a long one
// index past the fitted statistics. Predict has no error return, and a row of
// another width is a caller's bug.
func checkRow(model string, got, want int) {
	if got != want {
		panic(fmt.Sprintf("classify: %s.Predict: row has %d features, the model was fitted on %d", model, got, want))
	}
}

// affine sets out[r] = b[r*bstride] + w_r·x for each row r of the row-major
// matrix w, whose rows start stride floats apart and hold len(x) weights.
// Every sum starts from its bias and adds its terms in index order, as one
// sum at a time would, so the result is the same to the bit. Four rows run
// side by side so that their sums are independent chains and the FP adder
// does not wait out each add's latency; the rows left over run one at a time.
func affine(out, w []float64, stride int, b []float64, bstride int, x []float64) {
	n := len(x)
	r := 0
	for ; r+4 <= len(out); r += 4 {
		w0, w1, w2, w3 := w[r*stride:][:n], w[(r+1)*stride:][:n], w[(r+2)*stride:][:n], w[(r+3)*stride:][:n]
		s0, s1, s2, s3 := b[r*bstride], b[(r+1)*bstride], b[(r+2)*bstride], b[(r+3)*bstride]
		for j, v := range x {
			s0 += w0[j] * v
			s1 += w1[j] * v
			s2 += w2[j] * v
			s3 += w3[j] * v
		}
		out[r], out[r+1], out[r+2], out[r+3] = s0, s1, s2, s3
	}
	for ; r < len(out); r++ {
		wr := w[r*stride:][:n]
		sum := b[r*bstride]
		for j, v := range x {
			sum += wr[j] * v
		}
		out[r] = sum
	}
}

// normalize turns logits into softmax probabilities in place.
func normalize(logits []float64) {
	maxLogit := math.Inf(-1)
	for _, v := range logits {
		if v > maxLogit {
			maxLogit = v
		}
	}
	var total float64
	for c, v := range logits {
		logits[c] = math.Exp(v - maxLogit)
		total += logits[c]
	}
	for c := range logits {
		logits[c] /= total
	}
}

// stackClasses is the most classes Predict scores without allocating; a
// selection's K sweep stops at MaxK, 20 by default.
const stackClasses = 32

// scoresOn returns n class scores for a Predict call: the caller's stack
// buffer when they fit it, a fresh slice otherwise.
func scoresOn(buf *[stackClasses]float64, n int) []float64 {
	if n > stackClasses {
		return make([]float64, n)
	}
	return buf[:n]
}

// argmax returns the index of the largest value.
func argmax(xs []float64) int {
	best, bestV := 0, math.Inf(-1)
	for i, v := range xs {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// Ensemble predicts with a majority vote over its members; ties break
// toward the member listed first (the paper's pipeline treats the three
// models as interchangeable, so tie policy only needs to be deterministic).
type Ensemble struct {
	Members []Classifier
}

// NewEnsemble builds the paper's three-model ensemble with a shared seed.
func NewEnsemble(seed uint64) *Ensemble {
	return &Ensemble{Members: []Classifier{
		NewSGD(seed),
		NewGaussianNB(),
		NewMLP(seed + 1),
	}}
}

// Name implements Classifier.
func (e *Ensemble) Name() string { return "ensemble(sgd,gnb,mlp)" }

// Fit trains every member on the same data, all at once through
// parallel.Map. A member owns its RNG, scaler and scaled copy and only reads
// X and y, so each fit is bit-identical to fitting it alone. All are
// joined; the first error (or panic, re-raised here) in member order wins.
func (e *Ensemble) Fit(X [][]float64, y []int, numClasses int) error {
	if len(e.Members) == 0 {
		return errors.New("classify: ensemble has no members")
	}
	_, err := parallel.Map(len(e.Members), e.Members, func(_ int, m Classifier) (struct{}, error) {
		return struct{}{}, m.Fit(X, y, numClasses)
	})
	if pe, ok := err.(*parallel.PanicError); ok {
		panic(pe.Value)
	}
	return err
}

// Predict returns the majority vote of the members. A class must beat the
// best count so far to take over, so a tie stays with the class voted first.
func (e *Ensemble) Predict(x []float64) int {
	var buf [3]int // the paper's ensemble; a longer member list spills to the heap
	votes := buf[:0]
	for _, m := range e.Members {
		votes = append(votes, m.Predict(x))
	}
	best, bestV := 0, 0
	for _, p := range votes {
		v := 0
		for _, q := range votes {
			if q == p {
				v++
			}
		}
		if v > bestV {
			best, bestV = p, v
		}
	}
	return best
}

// Accuracy returns the fraction of rows the model classifies correctly.
func Accuracy(m Classifier, X [][]float64, y []int) float64 {
	if len(X) == 0 {
		return 0
	}
	correct := 0
	for i, row := range X {
		if m.Predict(row) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(X))
}
