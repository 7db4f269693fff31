package classify

import "math"

// GaussianNB is a Gaussian Naive Bayes classifier: per-class feature means
// and variances with a log-likelihood decision rule.
type GaussianNB struct {
	numClasses int
	dim        int
	priors     []float64   // log class priors
	means      [][]float64 // class × feature
	variances  [][]float64 // class × feature, floored
}

// NewGaussianNB returns an untrained Gaussian Naive Bayes model.
func NewGaussianNB() *GaussianNB { return &GaussianNB{} }

// Name implements Classifier.
func (g *GaussianNB) Name() string { return "gnb" }

// Fit implements Classifier.
func (g *GaussianNB) Fit(X [][]float64, y []int, numClasses int) error {
	dim, err := validate(X, y, numClasses)
	if err != nil {
		return err
	}
	g.numClasses, g.dim = numClasses, dim
	counts := make([]float64, numClasses)
	g.means = make([][]float64, numClasses)
	g.variances = make([][]float64, numClasses)
	for c := range g.means {
		g.means[c] = make([]float64, dim)
		g.variances[c] = make([]float64, dim)
	}
	for i, row := range X {
		counts[y[i]]++
		for j, v := range row {
			g.means[y[i]][j] += v
		}
	}
	for c := 0; c < numClasses; c++ {
		if counts[c] == 0 {
			continue
		}
		for j := range g.means[c] {
			g.means[c][j] /= counts[c]
		}
	}
	// Global variance floor keeps zero-variance features from producing
	// infinities; sklearn uses the same trick (var_smoothing).
	var globalVar float64
	for i, row := range X {
		for j, v := range row {
			d := v - g.means[y[i]][j]
			g.variances[y[i]][j] += d * d
			globalVar += d * d
		}
	}
	globalVar /= float64(len(X) * dim)
	floor := 1e-9*globalVar + 1e-12
	for c := 0; c < numClasses; c++ {
		for j := range g.variances[c] {
			if counts[c] > 0 {
				g.variances[c][j] /= counts[c]
			}
			if g.variances[c][j] < floor {
				g.variances[c][j] = floor
			}
		}
	}
	g.priors = make([]float64, numClasses)
	for c := range g.priors {
		if counts[c] == 0 {
			g.priors[c] = math.Inf(-1) // unseen class can never win
			continue
		}
		g.priors[c] = math.Log(counts[c] / float64(len(X)))
	}
	return nil
}

// Predict implements Classifier.
func (g *GaussianNB) Predict(x []float64) int {
	if g.means == nil {
		return 0
	}
	checkRow(g.Name(), len(x), g.dim)
	var buf [stackClasses]float64
	scores := scoresOn(&buf, g.numClasses)
	for c := 0; c < g.numClasses; c++ {
		ll := g.priors[c]
		if math.IsInf(ll, -1) {
			scores[c] = ll
			continue
		}
		for j, v := range x {
			d := v - g.means[c][j]
			ll += -0.5*math.Log(2*math.Pi*g.variances[c][j]) - d*d/(2*g.variances[c][j])
		}
		scores[c] = ll
	}
	return argmax(scores)
}
