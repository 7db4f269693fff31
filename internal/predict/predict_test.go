package predict

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pka/internal/gpu"
	"pka/internal/sampling"
	"pka/internal/trace"
	"pka/internal/workload"
)

// testSamples builds a training set from a workload's kernels with
// synthetic-but-consistent outcomes (no simulation needed).
func testSamples(t testing.TB, dev gpu.Device) []Sample {
	t.Helper()
	w := workload.Find("Rodinia/gauss_mat4")
	if w == nil {
		t.Fatal("study workload missing")
	}
	task := sampling.KernelTask{Mode: sampling.ModePKS, MaxCycles: 1 << 20}
	var samples []Sample
	for i := 0; i < w.N; i++ {
		k := w.Kernel(i)
		oc := sampling.KernelOutcome{
			ProjCycles:    int64(1000 * (i + 1)),
			SimWarpInstrs: int64(500 * (i + 1)),
			ThreadInstrs:  float64(32000 * (i + 1)),
			DRAMUtil:      0.25,
			Truncated:     true,
		}
		samples = append(samples, Sample{
			Key:     sampling.TaskKey(dev, &k, task),
			Kernel:  k,
			Task:    task,
			Outcome: oc,
		})
	}
	if len(samples) < 2 {
		t.Fatalf("workload too small for training test: %d kernels", len(samples))
	}
	return samples
}

func TestTrainExactMatchServesStoredOutcome(t *testing.T) {
	dev := gpu.VoltaV100()
	samples := testSamples(t, dev)
	m, err := Train(dev, samples, TrainOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		oc, conf, exact, ok := m.Predict(dev, &s.Kernel, s.Task, s.Key)
		if !ok || !exact {
			t.Fatalf("exact key not served: ok=%v exact=%v", ok, exact)
		}
		if conf != 1 {
			t.Fatalf("exact-match confidence %v, want 1", conf)
		}
		if oc != s.Outcome {
			t.Fatalf("exact-match outcome mutated: %+v vs %+v", oc, s.Outcome)
		}
	}
}

func TestModelRejectsOtherDevice(t *testing.T) {
	dev := gpu.VoltaV100()
	samples := testSamples(t, dev)
	m, err := Train(dev, samples, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	other := gpu.VoltaV100()
	other.NumSMs *= 2
	if _, _, _, ok := m.Predict(other, &samples[0].Kernel, samples[0].Task, ""); ok {
		t.Fatal("model served a device it was not trained on")
	}
	// The device-check cache must not poison subsequent matching queries.
	if _, _, _, ok := m.Predict(dev, &samples[0].Kernel, samples[0].Task, samples[0].Key); !ok {
		t.Fatal("trained device rejected after mismatch was cached")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dev := gpu.VoltaV100()
	samples := testSamples(t, dev)
	m, err := Train(dev, samples, TrainOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Rows() != m.Rows() || m2.DeviceFingerprint() != m.DeviceFingerprint() {
		t.Fatalf("round trip changed shape: %d/%s vs %d/%s",
			m2.Rows(), m2.DeviceFingerprint(), m.Rows(), m.DeviceFingerprint())
	}
	// Both exact-match and regression paths must be bit-identical across
	// the round trip.
	novel := samples[0].Kernel
	novel.Grid.X *= 3
	for _, q := range []struct {
		k   *trace.KernelDesc
		key string
	}{{&samples[1].Kernel, samples[1].Key}, {&novel, ""}} {
		oc1, c1, e1, ok1 := m.Predict(dev, q.k, samples[0].Task, q.key)
		oc2, c2, e2, ok2 := m2.Predict(dev, q.k, samples[0].Task, q.key)
		if ok1 != ok2 || e1 != e2 || c1 != c2 || oc1 != oc2 {
			t.Fatalf("loaded model diverges: (%+v %v %v %v) vs (%+v %v %v %v)",
				oc1, c1, e1, ok1, oc2, c2, e2, ok2)
		}
	}
}

// FuzzLoadModel: arbitrary bytes on disk never panic Load, and a model that
// loads survives Save and Load unchanged — equal as a value, and bit-identical
// in what it predicts for a fixed request on both the exact-key and the
// regression path.
func FuzzLoadModel(f *testing.F) {
	dev := gpu.VoltaV100()
	samples := testSamples(f, dev)
	m, err := Train(dev, samples, TrainOptions{Seed: 42})
	if err != nil {
		f.Fatal(err)
	}
	// Inputs run one at a time per fuzzing process, so one directory serves.
	dir := f.TempDir()
	seed := filepath.Join(dir, "model.json")
	if err := m.Save(seed); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	for _, n := range []int{0, len(raw) / 3, len(raw) / 2, len(raw) - 2} {
		f.Add(raw[:n])
	}
	// A NaN outcome parses; Load must refuse it (a NaN is not equal to
	// itself, so it could not survive the round trip below either).
	var mf modelFile
	if err := json.Unmarshal(raw, &mf); err != nil {
		f.Fatal(err)
	}
	mf.Outcomes[0].ThreadInstrs = math.Float64bits(math.NaN())
	nan, err := json.Marshal(mf)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(nan)
	novel := samples[0].Kernel
	novel.Grid.X *= 3
	task := samples[0].Task
	f.Fuzz(func(t *testing.T, b []byte) {
		in := filepath.Join(dir, "in.json")
		if err := os.WriteFile(in, b, 0o644); err != nil {
			t.Fatal(err)
		}
		first, err := Load(in)
		if err != nil {
			return
		}
		out := filepath.Join(dir, "out.json")
		if err := first.Save(out); err != nil {
			t.Fatalf("a loaded model does not save: %v", err)
		}
		second, err := Load(out)
		if err != nil {
			t.Fatalf("a saved model does not load: %v", err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatal("Save then Load changed the model")
		}
		bits := math.Float64bits
		for _, key := range []string{first.keys[0], ""} {
			oc1, c1, e1, ok1 := first.Predict(dev, &novel, task, key)
			oc2, c2, e2, ok2 := second.Predict(dev, &novel, task, key)
			if ok1 != ok2 || e1 != e2 || bits(c1) != bits(c2) || oc1.ProjCycles != oc2.ProjCycles ||
				oc1.SimWarpInstrs != oc2.SimWarpInstrs || bits(oc1.ThreadInstrs) != bits(oc2.ThreadInstrs) ||
				bits(oc1.DRAMUtil) != bits(oc2.DRAMUtil) || oc1.Capped != oc2.Capped || oc1.Truncated != oc2.Truncated {
				t.Fatalf("key %q: predictions differ after Save then Load: (%+v %v %v %v) vs (%+v %v %v %v)",
					key, oc1, c1, e1, ok1, oc2, c2, e2, ok2)
			}
		}
	})
}

func TestLoadRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"schema":"pka-predictor-model-v0"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("Load accepted wrong schema: %v", err)
	}
}

func TestTrainDeterministic(t *testing.T) {
	dev := gpu.VoltaV100()
	samples := testSamples(t, dev)
	m1, err := Train(dev, samples, TrainOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(dev, samples, TrainOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	novel := samples[0].Kernel
	novel.Grid.X += 17
	oc1, c1, _, _ := m1.Predict(dev, &novel, samples[0].Task, "")
	oc2, c2, _, _ := m2.Predict(dev, &novel, samples[0].Task, "")
	if oc1 != oc2 || c1 != c2 {
		t.Fatalf("same seed diverged: %+v/%v vs %+v/%v", oc1, c1, oc2, c2)
	}
}

func TestTierConfidenceGate(t *testing.T) {
	dev := gpu.VoltaV100()
	samples := testSamples(t, dev)
	m, err := Train(dev, samples, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// MinConfidence above 1 means only exact-key matches can serve.
	tier := NewTier(m, TierOptions{MinConfidence: 1.5, VerifyFraction: -1})
	if _, _, ok := tier.Predict(dev, &samples[0].Kernel, samples[0].Task, samples[0].Key); !ok {
		t.Fatal("exact match blocked by gate")
	}
	novel := samples[0].Kernel
	novel.Grid.X *= 5
	if _, _, ok := tier.Predict(dev, &novel, samples[0].Task, ""); ok {
		t.Fatal("non-exact prediction served above a >1 confidence gate")
	}
	s := tier.Stats()
	if s.Requests != 2 || s.Served != 1 || s.Exact != 1 || s.LowConf != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestTierAutoDisable(t *testing.T) {
	dev := gpu.VoltaV100()
	samples := testSamples(t, dev)
	m, err := Train(dev, samples, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tier := NewTier(m, TierOptions{MinConfidence: 1e-9, VerifyFraction: 1, ErrorBound: 0.05, MinVerified: 1})
	oc, verify, ok := tier.Predict(dev, &samples[0].Kernel, samples[0].Task, samples[0].Key)
	if !ok {
		t.Fatal("prediction not served")
	}
	if verify {
		t.Fatal("exact-key serve scheduled for verification")
	}
	novel := samples[0].Kernel
	novel.Grid.X *= 2
	oc, verify, ok = tier.Predict(dev, &novel, samples[0].Task, "")
	if !ok || !verify {
		t.Fatalf("non-exact serve at VerifyFraction=1: ok=%v verify=%v", ok, verify)
	}
	// Report a verification 10x off: the tier must latch disabled.
	actual := oc
	actual.ProjCycles = oc.ProjCycles*10 + 100
	tier.Verified("k", oc, actual)
	if !tier.Disabled() {
		t.Fatal("tier did not auto-disable past the error bound")
	}
	if _, _, ok := tier.Predict(dev, &samples[0].Kernel, samples[0].Task, samples[0].Key); ok {
		t.Fatal("disabled tier still serving")
	}
	s := tier.Stats()
	if !s.Disabled || s.Verified != 1 || s.MeanRelErr < 0.05 {
		t.Fatalf("stats %+v", s)
	}
	var sb strings.Builder
	if err := tier.WriteReport(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "AUTO-DISABLED") {
		t.Fatalf("report missing auto-disable notice:\n%s", sb.String())
	}
}

func TestVerifySamplerDeterministicFraction(t *testing.T) {
	dev := gpu.VoltaV100()
	samples := testSamples(t, dev)
	m, err := Train(dev, samples, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tier := NewTier(m, TierOptions{VerifyFraction: 0.5, VerifySeed: 9})
	n, hits := 4096, 0
	for i := 0; i < n; i++ {
		key := sampling.TaskKey(dev, &samples[0].Kernel, sampling.KernelTask{Mode: sampling.ModePKS, MaxCycles: int64(i + 1)})
		if tier.wantVerify(key) {
			hits++
		}
		if tier.wantVerify(key) != tier.wantVerify(key) {
			t.Fatal("verify draw not deterministic per key")
		}
	}
	frac := float64(hits) / float64(n)
	if math.Abs(frac-0.5) > 0.05 {
		t.Fatalf("verify sampler fraction %v, want ~0.5", frac)
	}
}
