// Package predict implements the Exec ladder's opt-in tier 0: a learned
// regressor that maps (device configuration, kernel Table-2 features,
// task spec) straight to a KernelOutcome, skipping simulation entirely
// for kernels a trained model already knows. The package follows the
// NeuroScalar observation that small learned models can stand in for
// cycle-level simulation when their confidence is measured honestly: a
// model artifact is trained offline from the content-addressed artifact
// store's accumulated (features → outcome) pairs, and at serve time a
// confidence gate — ensemble disagreement plus distance to the training
// manifold — decides per kernel whether to answer or fall through to the
// real ladder. An asynchronous verifier re-simulates a sampled fraction
// of served predictions and auto-disables the tier when observed error
// exceeds its bound, so a stale or over-extrapolating model degrades to
// exact simulation instead of silently wrong studies.
package predict

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sync/atomic"

	"pka/internal/classify"
	"pka/internal/gpu"
	"pka/internal/pks"
	"pka/internal/sampling"
	"pka/internal/stats"
	"pka/internal/trace"
)

// ModelSchema versions the persisted model artifact; Load rejects files
// written under any other schema.
const ModelSchema = "pka-predictor-model-v1"

// ensembleSize is the number of bootstrap-resampled ridge regressors per
// target. Their disagreement on a query is the model's own uncertainty
// signal: members agree where training data was dense and consistent,
// and fan out where the query extrapolates.
const ensembleSize = 4

// Regression targets, in index order: log-cycles, log simulated warp
// instructions, log thread instructions, and raw DRAM utilization.
const (
	tgtCycles = iota
	tgtSimWarpInstrs
	tgtThreadInstrs
	tgtDRAMUtil
	numTargets
)

// DefaultLambda is the ridge regularizer applied when TrainOptions leaves
// Lambda zero.
const DefaultLambda = 1e-3

// taskFeatures is how many task-spec features extend the Table-2 vector.
const taskFeatures = 5

// featureDim is the model's full input dimensionality.
const featureDim = trace.NumFeatures + taskFeatures

// Sample is one training example: a kernel task whose exact outcome is
// known (usually because the artifact store holds it).
type Sample struct {
	Key     string
	Kernel  trace.KernelDesc
	Task    sampling.KernelTask
	Outcome sampling.KernelOutcome
}

// featureRow builds the model input for one task: the kernel's Table-2
// vector compressed exactly like the PKS cluster space (log1p counts via
// pks.ScaleFeatures), extended with the task spec — mode, log cycle cap,
// and the PKP parameters — so the same kernel under different policies
// occupies different points.
func featureRow(dev gpu.Device, k *trace.KernelDesc, task sampling.KernelTask) []float64 {
	row := make([]float64, featureDim)
	pks.ScaleFeatures(row[:trace.NumFeatures], k.FeatureVector(dev))
	row[trace.NumFeatures] = float64(task.Mode)
	row[trace.NumFeatures+1] = math.Log1p(float64(task.MaxCycles))
	row[trace.NumFeatures+2] = task.PKP.Threshold
	row[trace.NumFeatures+3] = float64(task.PKP.Window)
	if task.PKP.DisableWaveConstraint {
		row[trace.NumFeatures+4] = 1
	}
	return row
}

// Model is a trained outcome predictor for one device configuration. It
// is immutable after Train/Load and safe for concurrent use.
type Model struct {
	deviceName string
	deviceFP   string
	seed       uint64
	lambda     float64

	scaler   *classify.Scaler
	rows     [][]float64 // standardized training inputs
	outcomes []sampling.KernelOutcome
	keys     []string
	byKey    map[string]int
	// weights[t][b] is member b's ridge solution for target t, length
	// featureDim+1 with the bias last.
	weights [numTargets][ensembleSize][]float64

	// devCheck caches the last device-fingerprint comparison; studies are
	// single-device, so Predict pays one hash per run, not per kernel.
	devCheck atomic.Pointer[deviceCheck]
}

type deviceCheck struct {
	dev gpu.Device
	ok  bool
}

// TrainOptions parameterizes Train. Zero values apply defaults.
type TrainOptions struct {
	Seed   uint64
	Lambda float64
}

// Train fits a model for dev on the given samples. Samples are deduped by
// content key (the store can only hold one outcome per key anyway), and
// the ensemble's bootstrap resampling is fully determined by Seed — the
// same samples and seed always produce the identical model.
func Train(dev gpu.Device, samples []Sample, o TrainOptions) (*Model, error) {
	if o.Lambda <= 0 {
		o.Lambda = DefaultLambda
	}
	m := &Model{
		deviceName: dev.Name,
		deviceFP:   sampling.DeviceFingerprint(dev),
		seed:       o.Seed,
		lambda:     o.Lambda,
		byKey:      map[string]int{},
	}
	for _, s := range samples {
		key := s.Key
		if key == "" {
			key = sampling.TaskKey(dev, &s.Kernel, s.Task)
		}
		if _, dup := m.byKey[key]; dup {
			continue
		}
		m.byKey[key] = len(m.rows)
		m.keys = append(m.keys, key)
		m.rows = append(m.rows, featureRow(dev, &s.Kernel, s.Task))
		m.outcomes = append(m.outcomes, s.Outcome)
	}
	if len(m.rows) == 0 {
		return nil, errors.New("predict: no training samples")
	}

	m.scaler = classify.FitScaler(m.rows)
	for _, row := range m.rows {
		m.scaler.ApplyInto(row, row)
	}

	targets := targetMatrix(m.outcomes)
	n := len(m.rows)
	for t := 0; t < numTargets; t++ {
		for b := 0; b < ensembleSize; b++ {
			rng := stats.NewRNG(o.Seed ^ (uint64(t)<<32 | uint64(b)<<16) ^ 0xC0FFEE)
			idx := make([]int, n)
			if b == 0 {
				// Member 0 always sees the full training set, so a
				// single-sample model still interpolates its own data.
				for i := range idx {
					idx[i] = i
				}
			} else {
				for i := range idx {
					idx[i] = rng.Intn(n)
				}
			}
			w, err := ridgeFit(m.rows, targets[t], idx, o.Lambda)
			if err != nil {
				return nil, fmt.Errorf("predict: target %d member %d: %w", t, b, err)
			}
			m.weights[t][b] = w
		}
	}
	return m, nil
}

// targetMatrix extracts the regression targets from the outcomes: log1p
// for the count-type targets, raw utilization for DRAM.
func targetMatrix(ocs []sampling.KernelOutcome) [numTargets][]float64 {
	var y [numTargets][]float64
	for t := range y {
		y[t] = make([]float64, len(ocs))
	}
	for i, oc := range ocs {
		y[tgtCycles][i] = math.Log1p(float64(oc.ProjCycles))
		y[tgtSimWarpInstrs][i] = math.Log1p(float64(oc.SimWarpInstrs))
		y[tgtThreadInstrs][i] = math.Log1p(oc.ThreadInstrs)
		y[tgtDRAMUtil][i] = oc.DRAMUtil
	}
	return y
}

// ridgeFit solves the regularized least squares (XᵀX + λI)w = Xᵀy over
// the selected row indices, with an appended bias column, by Gaussian
// elimination with partial pivoting. The normal-equations system is
// (featureDim+1)² — tiny — so exact elimination beats any iterative
// scheme and is bit-deterministic.
func ridgeFit(rows [][]float64, y []float64, idx []int, lambda float64) ([]float64, error) {
	d := featureDim + 1
	A := make([][]float64, d)
	for i := range A {
		A[i] = make([]float64, d+1) // augmented column holds Xᵀy
		A[i][i] = lambda
	}
	xi := make([]float64, d)
	for _, r := range idx {
		copy(xi, rows[r])
		xi[d-1] = 1
		for i := 0; i < d; i++ {
			for j := i; j < d; j++ {
				A[i][j] += xi[i] * xi[j]
			}
			A[i][d] += xi[i] * y[r]
		}
	}
	for i := 1; i < d; i++ {
		for j := 0; j < i; j++ {
			A[i][j] = A[j][i]
		}
	}
	// Elimination with partial pivoting.
	for col := 0; col < d; col++ {
		piv := col
		for r := col + 1; r < d; r++ {
			if math.Abs(A[r][col]) > math.Abs(A[piv][col]) {
				piv = r
			}
		}
		if A[piv][col] == 0 {
			return nil, errors.New("singular normal equations")
		}
		A[col], A[piv] = A[piv], A[col]
		for r := col + 1; r < d; r++ {
			f := A[r][col] / A[col][col]
			if f == 0 {
				continue
			}
			for c := col; c <= d; c++ {
				A[r][c] -= f * A[col][c]
			}
		}
	}
	w := make([]float64, d)
	for i := d - 1; i >= 0; i-- {
		s := A[i][d]
		for j := i + 1; j < d; j++ {
			s -= A[i][j] * w[j]
		}
		w[i] = s / A[i][i]
	}
	return w, nil
}

// dot evaluates one ridge member on a standardized row.
func dot(w, row []float64) float64 {
	s := w[len(w)-1] // bias
	for j, v := range row {
		s += w[j] * v
	}
	return s
}

// Rows reports the training-set size.
func (m *Model) Rows() int { return len(m.rows) }

// DeviceName names the device the model was trained for.
func (m *Model) DeviceName() string { return m.deviceName }

// DeviceFingerprint returns the trained device's content fingerprint.
func (m *Model) DeviceFingerprint() string { return m.deviceFP }

// matches reports whether dev is the device the model was trained on,
// caching the fingerprint comparison for the (single-device) common case.
func (m *Model) matches(dev gpu.Device) bool {
	if c := m.devCheck.Load(); c != nil && c.dev == dev {
		return c.ok
	}
	ok := sampling.DeviceFingerprint(dev) == m.deviceFP
	m.devCheck.Store(&deviceCheck{dev: dev, ok: ok})
	return ok
}

// Predict scores one task. exact reports the query hit a training key, in
// which case the stored outcome is returned verbatim with confidence 1 —
// the warm-path case where the predictor is a microsecond replacement for
// the disk tier. ok=false means the model cannot score this task at all
// (wrong device). conf is in (0, 1]: the minimum of an ensemble-agreement
// score and a training-manifold proximity score, so either extrapolation
// signal alone is enough to drop below a gate.
func (m *Model) Predict(dev gpu.Device, k *trace.KernelDesc, task sampling.KernelTask, key string) (oc sampling.KernelOutcome, conf float64, exact, ok bool) {
	if !m.matches(dev) {
		return sampling.KernelOutcome{}, 0, false, false
	}
	if key == "" {
		key = sampling.TaskKey(dev, k, task)
	}
	if i, hit := m.byKey[key]; hit {
		return m.outcomes[i], 1, true, true
	}

	row := featureRow(dev, k, task)
	m.scaler.ApplyInto(row, row)

	// Nearest training row: manifold distance for the gate, flag source
	// for the outcome. Linear scan — training sets are thousands of rows
	// and queries off the exact-match path are rare by construction.
	nearest, minSq := 0, math.Inf(1)
	for i, tr := range m.rows {
		var sq float64
		for j, v := range tr {
			d := row[j] - v
			sq += d * d
		}
		if sq < minSq {
			nearest, minSq = i, sq
		}
	}
	dist := math.Sqrt(minSq / featureDim) // RMS per-dimension distance

	var preds [numTargets]float64
	var spread float64
	for t := 0; t < numTargets; t++ {
		lo, hi, sum := math.Inf(1), math.Inf(-1), 0.0
		for b := 0; b < ensembleSize; b++ {
			p := dot(m.weights[t][b], row)
			sum += p
			if p < lo {
				lo = p
			}
			if p > hi {
				hi = p
			}
		}
		preds[t] = sum / ensembleSize
		if s := hi - lo; s > spread {
			spread = s
		}
	}
	agree := 1 / (1 + spread)
	near := 1 / (1 + dist)
	conf = agree
	if near < conf {
		conf = near
	}

	src := m.outcomes[nearest]
	oc = sampling.KernelOutcome{
		ProjCycles:    clampCount(math.Expm1(preds[tgtCycles])),
		SimWarpInstrs: clampCount(math.Expm1(preds[tgtSimWarpInstrs])),
		ThreadInstrs:  math.Max(0, math.Expm1(preds[tgtThreadInstrs])),
		DRAMUtil:      clamp01(preds[tgtDRAMUtil]),
		Capped:        src.Capped,
		Truncated:     src.Truncated,
	}
	return oc, conf, false, true
}

// FitError returns the regression's mean relative projected-cycle error
// over the training set, bypassing the exact-match shortcut — the
// in-sample accuracy the train CLI reports.
func (m *Model) FitError() float64 {
	if len(m.rows) == 0 {
		return 0
	}
	var sum float64
	for i, row := range m.rows {
		var p float64
		for b := 0; b < ensembleSize; b++ {
			p += dot(m.weights[tgtCycles][b], row)
		}
		pred := math.Expm1(p / ensembleSize)
		actual := float64(m.outcomes[i].ProjCycles)
		sum += math.Abs(pred-actual) / math.Max(1, math.Abs(actual))
	}
	return sum / float64(len(m.rows))
}

func clampCount(v float64) int64 {
	if v < 0 {
		return 0
	}
	return int64(math.Round(v))
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// --- Persistence ---------------------------------------------------------

// modelFile is the versioned JSON layout of a persisted model artifact.
type modelFile struct {
	Schema     string                              `json:"schema"`
	DeviceName string                              `json:"device_name"`
	DeviceFP   string                              `json:"device_fingerprint"`
	Seed       uint64                              `json:"seed"`
	Lambda     float64                             `json:"lambda"`
	Scaler     *classify.Scaler                    `json:"scaler"`
	Keys       []string                            `json:"keys"`
	Rows       [][]float64                         `json:"rows"`
	Outcomes   []outcomeJSON                       `json:"outcomes"`
	Weights    [numTargets][ensembleSize][]float64 `json:"weights"`
}

// outcomeJSON persists a KernelOutcome exactly: counts as integers,
// floats as IEEE-754 bit patterns so save/load round-trips bit-for-bit
// and exact-match serving stays byte-identical across processes.
type outcomeJSON struct {
	ProjCycles    int64  `json:"proj_cycles"`
	SimWarpInstrs int64  `json:"sim_warp_instrs"`
	ThreadInstrs  uint64 `json:"thread_instrs_bits"`
	DRAMUtil      uint64 `json:"dram_util_bits"`
	Capped        bool   `json:"capped,omitempty"`
	Truncated     bool   `json:"truncated,omitempty"`
}

// Save writes the model artifact as versioned JSON.
func (m *Model) Save(path string) error {
	f := modelFile{
		Schema:     ModelSchema,
		DeviceName: m.deviceName,
		DeviceFP:   m.deviceFP,
		Seed:       m.seed,
		Lambda:     m.lambda,
		Scaler:     m.scaler,
		Keys:       m.keys,
		Rows:       m.rows,
		Weights:    m.weights,
	}
	f.Outcomes = make([]outcomeJSON, len(m.outcomes))
	for i, oc := range m.outcomes {
		f.Outcomes[i] = outcomeJSON{
			ProjCycles:    oc.ProjCycles,
			SimWarpInstrs: oc.SimWarpInstrs,
			ThreadInstrs:  math.Float64bits(oc.ThreadInstrs),
			DRAMUtil:      math.Float64bits(oc.DRAMUtil),
			Capped:        oc.Capped,
			Truncated:     oc.Truncated,
		}
	}
	raw, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("predict: encode model: %w", err)
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// Load reads a model artifact written by Save, rejecting other schemas.
func Load(path string) (*Model, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("predict: %w", err)
	}
	var f modelFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("predict: parse model %s: %w", path, err)
	}
	if f.Schema != ModelSchema {
		return nil, fmt.Errorf("predict: model %s has schema %q, want %q", path, f.Schema, ModelSchema)
	}
	if len(f.Keys) != len(f.Rows) || len(f.Keys) != len(f.Outcomes) || len(f.Keys) == 0 {
		return nil, fmt.Errorf("predict: model %s is inconsistent (%d keys, %d rows, %d outcomes)",
			path, len(f.Keys), len(f.Rows), len(f.Outcomes))
	}
	if f.Scaler == nil || len(f.Scaler.Mean) != featureDim || len(f.Scaler.Scale) != featureDim {
		return nil, fmt.Errorf("predict: model %s scaler has wrong dimensionality", path)
	}
	m := &Model{
		deviceName: f.DeviceName,
		deviceFP:   f.DeviceFP,
		seed:       f.Seed,
		lambda:     f.Lambda,
		scaler:     f.Scaler,
		keys:       f.Keys,
		rows:       f.Rows,
		weights:    f.Weights,
		byKey:      make(map[string]int, len(f.Keys)),
	}
	for i, row := range f.Rows {
		if len(row) != featureDim {
			return nil, fmt.Errorf("predict: model %s row %d has %d features, want %d", path, i, len(row), featureDim)
		}
	}
	for t := range m.weights {
		for b := range m.weights[t] {
			if len(m.weights[t][b]) != featureDim+1 {
				return nil, fmt.Errorf("predict: model %s weight vector %d/%d malformed", path, t, b)
			}
		}
	}
	m.outcomes = make([]sampling.KernelOutcome, len(f.Outcomes))
	for i, oc := range f.Outcomes {
		// No simulation yields a NaN or infinite count or utilization; a
		// file that holds one is corrupt, and served exactly it would poison
		// every fold it reached.
		for _, bits := range []uint64{oc.ThreadInstrs, oc.DRAMUtil} {
			if v := math.Float64frombits(bits); math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("predict: model %s outcome %d holds %v", path, i, v)
			}
		}
		m.outcomes[i] = sampling.KernelOutcome{
			ProjCycles:    oc.ProjCycles,
			SimWarpInstrs: oc.SimWarpInstrs,
			ThreadInstrs:  math.Float64frombits(oc.ThreadInstrs),
			DRAMUtil:      math.Float64frombits(oc.DRAMUtil),
			Capped:        oc.Capped,
			Truncated:     oc.Truncated,
		}
	}
	for i, k := range f.Keys {
		m.byKey[k] = i
	}
	return m, nil
}
