package classify

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"pka/internal/stats"
)

// gaussianDataset builds a 3-class dataset with well-separated class means.
func gaussianDataset(perClass int, seed uint64) ([][]float64, []int) {
	centers := [][]float64{
		{0, 0, 0, 0},
		{6, 6, 0, -3},
		{-6, 3, 5, 4},
	}
	rng := stats.NewRNG(seed)
	var X [][]float64
	var y []int
	for c, ctr := range centers {
		for i := 0; i < perClass; i++ {
			row := make([]float64, len(ctr))
			for j, v := range ctr {
				row[j] = v + rng.NormFloat64()
			}
			X = append(X, row)
			y = append(y, c)
		}
	}
	return X, y
}

func allModels() []Classifier {
	return []Classifier{NewSGD(1), NewGaussianNB(), NewMLP(1), NewEnsemble(1)}
}

func TestClassifiersSeparateGaussians(t *testing.T) {
	Xtr, ytr := gaussianDataset(60, 11)
	Xte, yte := gaussianDataset(30, 99)
	for _, m := range allModels() {
		if err := m.Fit(Xtr, ytr, 3); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if acc := Accuracy(m, Xte, yte); acc < 0.9 {
			t.Errorf("%s held-out accuracy = %.2f, want >= 0.9", m.Name(), acc)
		}
	}
}

func TestClassifiersValidation(t *testing.T) {
	for _, m := range allModels() {
		if err := m.Fit(nil, nil, 2); err == nil {
			t.Errorf("%s accepted empty data", m.Name())
		}
		if err := m.Fit([][]float64{{1, 2}, {3}}, []int{0, 1}, 2); err == nil {
			t.Errorf("%s accepted ragged rows", m.Name())
		}
		if err := m.Fit([][]float64{{1}, {2}}, []int{0, 5}, 2); err == nil {
			t.Errorf("%s accepted out-of-range label", m.Name())
		}
		if err := m.Fit([][]float64{{1}}, []int{0}, 0); err == nil {
			t.Errorf("%s accepted numClasses=0", m.Name())
		}
	}
}

func TestUnfittedPredictIsSafe(t *testing.T) {
	for _, m := range []Classifier{NewSGD(0), NewGaussianNB(), NewMLP(0)} {
		if got := m.Predict([]float64{1, 2, 3}); got != 0 {
			t.Errorf("%s unfitted Predict = %d, want 0", m.Name(), got)
		}
	}
}

// TestPredictRejectsWrongWidth: a fitted model refuses a row shorter or
// longer than the rows it was fitted on with a panic naming both widths,
// where it used to read a feature weight as the bias, drop terms or index
// past its statistics; a row of the fitted width predicts, and an unfitted
// model still returns 0 for any row.
func TestPredictRejectsWrongWidth(t *testing.T) {
	X, y := gaussianDataset(20, 5) // four features
	for _, m := range []Classifier{NewSGD(1), NewGaussianNB(), NewMLP(1)} {
		if got := m.Predict(make([]float64, 7)); got != 0 {
			t.Errorf("%s unfitted Predict = %d, want 0", m.Name(), got)
		}
		if err := m.Fit(X, y, 3); err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			row  []float64
			want string // the panic, "" for none
		}{
			{"short", X[0][:3], "classify: " + m.Name() + ".Predict: row has 3 features, the model was fitted on 4"},
			{"empty", nil, "classify: " + m.Name() + ".Predict: row has 0 features, the model was fitted on 4"},
			{"long", append(append([]float64(nil), X[0]...), 1), "classify: " + m.Name() + ".Predict: row has 5 features, the model was fitted on 4"},
			{"wider than the stack buffer", make([]float64, stackDim+1), fmt.Sprintf("classify: %s.Predict: row has %d features, the model was fitted on 4", m.Name(), stackDim+1)},
			{"exact", X[0], ""},
		} {
			got := func() (v any) {
				defer func() { v = recover() }()
				m.Predict(tc.row)
				return nil
			}()
			if tc.want == "" && got != nil {
				t.Errorf("%s %s row: panicked %v", m.Name(), tc.name, got)
			}
			if tc.want != "" && got != tc.want {
				t.Errorf("%s %s row: recovered %v, want panic %q", m.Name(), tc.name, got, tc.want)
			}
		}
	}
}

func TestSingleClassDataset(t *testing.T) {
	X := [][]float64{{1, 2}, {2, 3}, {0, 1}}
	y := []int{0, 0, 0}
	for _, m := range allModels() {
		if err := m.Fit(X, y, 1); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if got := m.Predict([]float64{99, -42}); got != 0 {
			t.Errorf("%s single-class Predict = %d", m.Name(), got)
		}
	}
}

func TestGNBHandlesUnseenClass(t *testing.T) {
	// numClasses = 3 but class 2 never appears in training data.
	X := [][]float64{{0, 0}, {0, 1}, {10, 10}, {10, 11}}
	y := []int{0, 0, 1, 1}
	g := NewGaussianNB()
	if err := g.Fit(X, y, 3); err != nil {
		t.Fatal(err)
	}
	if got := g.Predict([]float64{0, 0.5}); got != 0 {
		t.Errorf("Predict = %d, want 0", got)
	}
	if got := g.Predict([]float64{10, 10.5}); got != 1 {
		t.Errorf("Predict = %d, want 1", got)
	}
}

func TestGNBZeroVarianceFeature(t *testing.T) {
	// Feature 1 is constant; the variance floor must prevent Inf/NaN.
	X := [][]float64{{0, 7}, {1, 7}, {10, 7}, {11, 7}}
	y := []int{0, 0, 1, 1}
	g := NewGaussianNB()
	if err := g.Fit(X, y, 2); err != nil {
		t.Fatal(err)
	}
	if got := g.Predict([]float64{0.5, 7}); got != 0 {
		t.Errorf("Predict = %d, want 0", got)
	}
}

func TestDeterministicTraining(t *testing.T) {
	X, y := gaussianDataset(40, 3)
	probe, _ := gaussianDataset(10, 77)
	for _, build := range []func() Classifier{
		func() Classifier { return NewSGD(42) },
		func() Classifier { return NewMLP(42) },
	} {
		a, b := build(), build()
		if err := a.Fit(X, y, 3); err != nil {
			t.Fatal(err)
		}
		if err := b.Fit(X, y, 3); err != nil {
			t.Fatal(err)
		}
		for _, p := range probe {
			if a.Predict(p) != b.Predict(p) {
				t.Errorf("%s: identical seeds diverged", a.Name())
				break
			}
		}
	}
}

func TestEnsembleMajority(t *testing.T) {
	// Stub members with fixed outputs to verify vote counting.
	e := &Ensemble{Members: []Classifier{fixed(2), fixed(1), fixed(1)}}
	if got := e.Predict(nil); got != 1 {
		t.Errorf("majority vote = %d, want 1", got)
	}
	// Tie: first-listed member wins.
	e = &Ensemble{Members: []Classifier{fixed(5), fixed(3)}}
	if got := e.Predict(nil); got != 5 {
		t.Errorf("tie break = %d, want 5", got)
	}
	empty := &Ensemble{}
	if err := empty.Fit([][]float64{{1}}, []int{0}, 1); err == nil {
		t.Error("empty ensemble Fit did not error")
	}
}

type fixed int

func (f fixed) Fit([][]float64, []int, int) error { return nil }
func (f fixed) Predict([]float64) int             { return int(f) }
func (f fixed) Name() string                      { return "fixed" }

// sameBits reports whether two matrices are equal float bit for float bit.
func sameBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestEnsembleFitMatchesSerialMembers: the ensemble's concurrent fit leaves
// every member exactly as fitting it alone does — the SGD and MLP weights
// and the Naive Bayes means, variances and priors to the float bit, and the
// same Predict on every training row.
func TestEnsembleFitMatchesSerialMembers(t *testing.T) {
	for _, seed := range []uint64{0, 7} {
		X, y := gaussianDataset(80, seed+1)
		e := NewEnsemble(seed)
		if err := e.Fit(X, y, 3); err != nil {
			t.Fatal(err)
		}
		sgd, gnb, mlp := NewSGD(seed), NewGaussianNB(), NewMLP(seed+1)
		for _, m := range []Classifier{sgd, gnb, mlp} {
			if err := m.Fit(X, y, 3); err != nil {
				t.Fatal(err)
			}
		}
		es, eg, em := e.Members[0].(*SGD), e.Members[1].(*GaussianNB), e.Members[2].(*MLP)
		for what, pair := range map[string][2][][]float64{
			"sgd weights":   {{es.weights}, {sgd.weights}},
			"sgd scaler":    {{es.scaler.Mean, es.scaler.Scale}, {sgd.scaler.Mean, sgd.scaler.Scale}},
			"gnb means":     {eg.means, gnb.means},
			"gnb variances": {eg.variances, gnb.variances},
			"gnb priors":    {{eg.priors}, {gnb.priors}},
			"mlp w1":        {{em.w1}, {mlp.w1}},
			"mlp w2":        {{em.w2}, {mlp.w2}},
			"mlp biases":    {{em.b1, em.b2}, {mlp.b1, mlp.b2}},
			"mlp scaler":    {{em.scaler.Mean, em.scaler.Scale}, {mlp.scaler.Mean, mlp.scaler.Scale}},
		} {
			if !sameBits(pair[0], pair[1]) {
				t.Errorf("seed %d: %s differ from the member fitted alone", seed, what)
			}
		}
		alone := &Ensemble{Members: []Classifier{sgd, gnb, mlp}}
		for i, x := range X {
			if got, want := e.Predict(x), alone.Predict(x); got != want {
				t.Fatalf("seed %d, row %d: Predict = %d, members fitted alone vote %d", seed, i, got, want)
			}
			for m := range e.Members {
				if got, want := e.Members[m].Predict(x), alone.Members[m].Predict(x); got != want {
					t.Fatalf("seed %d, row %d: %s Predict = %d, fitted alone %d", seed, i, e.Members[m].Name(), got, want)
				}
			}
		}
	}
}

// stubFit is an ensemble member whose Fit waits for wait (when non-nil),
// closes done (when non-nil), then fails with err or panics with boom.
type stubFit struct {
	fixed
	err        error
	boom       any
	wait, done chan struct{}
}

func (s stubFit) Fit([][]float64, []int, int) error {
	if s.wait != nil {
		<-s.wait
	}
	if s.done != nil {
		defer close(s.done)
	}
	if s.boom != nil {
		panic(s.boom)
	}
	return s.err
}

// TestEnsembleFitErrorInMemberOrder: whichever member's goroutine finishes
// first, Fit returns the error of the first failing member in member order,
// and re-raises a member's panic on the caller's goroutine.
func TestEnsembleFitErrorInMemberOrder(t *testing.T) {
	X, y := [][]float64{{1}}, []int{0}
	first, second := errors.New("first member"), errors.New("second member")
	// The second member fails and returns before the first one starts.
	secondDone := make(chan struct{})
	e := &Ensemble{Members: []Classifier{
		fixed(0),
		stubFit{err: first, wait: secondDone},
		stubFit{err: second, done: secondDone},
	}}
	if err := e.Fit(X, y, 1); err != first {
		t.Errorf("Fit = %v, want the first failing member's %v", err, first)
	}

	// A panic ahead of an error is re-raised; an error ahead of a panic wins.
	panicked := func(e *Ensemble) (v any, err error) {
		defer func() { v = recover() }()
		return nil, e.Fit(X, y, 1)
	}
	if v, _ := panicked(&Ensemble{Members: []Classifier{stubFit{boom: "fit bug"}, stubFit{err: second}}}); v != "fit bug" {
		t.Errorf("recovered %v, want the member's panic", v)
	}
	if v, err := panicked(&Ensemble{Members: []Classifier{stubFit{err: first}, stubFit{boom: "fit bug"}}}); v != nil || err != first {
		t.Errorf("recovered %v, err %v; want no panic and %v", v, err, first)
	}
}

func TestAccuracyEmpty(t *testing.T) {
	if got := Accuracy(fixed(0), nil, nil); got != 0 {
		t.Errorf("Accuracy on empty = %v", got)
	}
}

// Grid-dimension-like integer features: the actual shape of the two-level
// mapping problem (lightweight profiles carry grid/block dims and name
// hashes). Verify the classifiers handle that distribution.
func TestClassifiersOnGridDimFeatures(t *testing.T) {
	rng := stats.NewRNG(5)
	var X [][]float64
	var y []int
	// Class 0: big grids, small blocks. Class 1: small grids, big blocks.
	for i := 0; i < 120; i++ {
		if i%2 == 0 {
			X = append(X, []float64{float64(4000 + rng.Intn(2000)), 64, 1, float64(rng.Intn(3))})
			y = append(y, 0)
		} else {
			X = append(X, []float64{float64(8 + rng.Intn(16)), 512, 2, float64(rng.Intn(3))})
			y = append(y, 1)
		}
	}
	for _, m := range allModels() {
		if err := m.Fit(X, y, 2); err != nil {
			t.Fatal(err)
		}
		if acc := Accuracy(m, X, y); acc < 0.95 {
			t.Errorf("%s training accuracy on grid features = %.2f", m.Name(), acc)
		}
	}
}

// refVote is the ensemble's vote as it was first written — a count per
// class, classes kept in first-voted order, a tie going to the first —
// kept as the reference for the array tally that replaced it.
func refVote(preds []int) int {
	votes := map[int]int{}
	var order []int
	for _, p := range preds {
		if votes[p] == 0 {
			order = append(order, p)
		}
		votes[p]++
	}
	best, bestV := order[0], votes[order[0]]
	for _, p := range order[1:] {
		if votes[p] > bestV {
			best, bestV = p, votes[p]
		}
	}
	return best
}

// TestEnsemblePredictMatchesReferenceVote pins the allocation-free Predict
// paths to the ones they replaced: every vote pattern of one to four members
// over four classes against refVote, and the fitted models' stack-buffer
// standardization against Scaler.Apply — on the light-profile width and on
// a row too wide for the buffer.
func TestEnsemblePredictMatchesReferenceVote(t *testing.T) {
	for members := 1; members <= 4; members++ {
		preds := make([]int, members)
		e := &Ensemble{Members: make([]Classifier, members)}
		for code := 0; code < 1<<(2*members); code++ {
			for i := range preds {
				preds[i] = code >> (2 * i) & 3
				e.Members[i] = fixed(preds[i])
			}
			if got, want := e.Predict(nil), refVote(preds); got != want {
				t.Fatalf("votes %v: Predict = %d, want %d", preds, got, want)
			}
		}
	}

	for _, dim := range []int{4, stackDim + 3} {
		rng := stats.NewRNG(uint64(dim))
		var X [][]float64
		var y []int
		for i := 0; i < 150; i++ {
			row := make([]float64, dim)
			for j := range row {
				row[j] = float64(i%3)*2 + rng.NormFloat64()
			}
			X, y = append(X, row), append(y, i%3)
		}
		sgd, mlp := NewSGD(1), NewMLP(2)
		e := &Ensemble{Members: []Classifier{sgd, NewGaussianNB(), mlp}}
		if err := e.Fit(X, y, 3); err != nil {
			t.Fatal(err)
		}
		probs, hidden := make([]float64, 3), make([]float64, mlpHidden)
		for _, x := range X {
			sgd.softmax(sgd.scaler.Apply(x), probs)
			if got, want := sgd.Predict(x), argmax(probs); got != want {
				t.Fatalf("dim %d: sgd.Predict = %d, want %d", dim, got, want)
			}
			mlp.forward(mlp.scaler.Apply(x), hidden, probs)
			if got, want := mlp.Predict(x), argmax(probs); got != want {
				t.Fatalf("dim %d: mlp.Predict = %d, want %d", dim, got, want)
			}
			preds := []int{sgd.Predict(x), e.Members[1].Predict(x), mlp.Predict(x)}
			if got, want := e.Predict(x), refVote(preds); got != want {
				t.Fatalf("dim %d: ensemble = %d, want %d of %v", dim, got, want, preds)
			}
		}
		if dim > stackDim {
			continue
		}
		// What is left is each model's class scores (and the MLP's hidden
		// layer): 4 allocations, down from 7 with the vote's order slice and
		// the two standardized rows.
		if allocs := testing.AllocsPerRun(100, func() { e.Predict(X[7]) }); allocs > 4 {
			t.Errorf("Ensemble.Predict allocates %v times per call, want <= 4", allocs)
		}
	}
}
