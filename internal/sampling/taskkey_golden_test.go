package sampling

import (
	"testing"

	"pka/internal/gpu"
	"pka/internal/trace"
)

// goldenKernels are literal launches, not catalogue ones: the pins below
// must not move when a workload generator does.
var goldenKernels = []trace.KernelDesc{
	{
		ID: 3, Name: "golden_sgemm", Grid: trace.D2(32, 16), Block: trace.D1(256),
		RegsPerThread: 64, SharedMemPerBlock: 8192,
		Mix:              trace.InstrMix{Compute: 120, GlobalLoads: 12, GlobalStores: 4, SharedLoads: 30, SharedStores: 8, TensorOps: 2},
		CoalescingFactor: 4, WorkingSetBytes: 8 << 20, StridedFraction: 0.9,
		DivergenceEff: 1, BlockImbalance: 0.25, Seed: 3,
	},
	{
		ID: 9, Name: "golden_scatter", Grid: trace.D1(4096), Block: trace.Dim3{X: 8, Y: 8, Z: 2},
		RegsPerThread:    24,
		Mix:              trace.InstrMix{Compute: 9, GlobalLoads: 3, LocalLoads: 1, GlobalAtomics: 2},
		CoalescingFactor: 17.5, WorkingSetBytes: 3 << 30, StridedFraction: 0.125,
		DivergenceEff: 0.625, Seed: 0xfeedface,
	},
}

// TestTaskKeyGolden pins three content keys as hex literals. Persisted
// stores outlive binaries: a refactor of how the key bytes are assembled
// must reproduce these exactly, and a deliberate change of what a key covers
// bumps taskSchema and re-records them.
func TestTaskKeyGolden(t *testing.T) {
	dev := gpu.VoltaV100()
	cases := []struct {
		name string
		k    *trace.KernelDesc
		task KernelTask
		want string
	}{
		{"full", &goldenKernels[0], KernelTask{Mode: ModeFull},
			"a2ca761eb901c6bae54c8507a9d56d268291647fd74ce58d80b95a764c47032e"},
		{"pks", &goldenKernels[1], KernelTask{Mode: ModePKS, MaxCycles: 2_000_000},
			"6074d0fa42aca9646c69de11c8cee4ee99b72183a00179a31ea3c93dc044beee"},
		{"pka-custom-threshold", &goldenKernels[0],
			KernelTask{Mode: ModePKA, MaxCycles: 12345, PKP: PKPSpec{Threshold: 0.125, Window: 1500, DisableWaveConstraint: true}},
			"fed594813a615b8d658187375ba44966320523d890caa7d6b325b05e8d22e6a7"},
	}
	for _, c := range cases {
		if got := TaskKey(dev, c.k, c.task); got != c.want {
			t.Errorf("%s: key %s, want %s", c.name, got, c.want)
		}
	}
}
