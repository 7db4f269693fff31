package trace

import (
	"testing"
	"testing/quick"

	"pka/internal/gpu"
)

func validKernel() KernelDesc {
	return KernelDesc{
		ID:    0,
		Name:  "test_kernel",
		Grid:  D1(100),
		Block: D1(256),
		Mix: InstrMix{
			GlobalLoads: 8, GlobalStores: 4, SharedLoads: 6, SharedStores: 2,
			Compute: 60,
		},
		CoalescingFactor: 4,
		WorkingSetBytes:  1 << 20,
		StridedFraction:  0.8,
		DivergenceEff:    1.0,
	}
}

func TestDim3(t *testing.T) {
	if D1(5).Count() != 5 || D2(3, 4).Count() != 12 {
		t.Error("Dim3 counts wrong")
	}
	if (Dim3{X: 2, Y: 0, Z: 3}).Count() != 6 {
		t.Error("zero components should count as 1")
	}
	if D2(3, 4).String() != "(3,4,1)" {
		t.Errorf("String = %q", D2(3, 4).String())
	}
}

func TestInstrMixTotals(t *testing.T) {
	m := InstrMix{GlobalLoads: 1, GlobalStores: 2, LocalLoads: 3, SharedLoads: 4,
		SharedStores: 5, GlobalAtomics: 6, Compute: 7, TensorOps: 8}
	if m.Total() != 36 {
		t.Errorf("Total = %d", m.Total())
	}
	if m.GlobalOps() != 12 {
		t.Errorf("GlobalOps = %d", m.GlobalOps())
	}
}

func TestValidateAcceptsGoodKernel(t *testing.T) {
	k := validKernel()
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	mutations := map[string]func(*KernelDesc){
		"empty grid":      func(k *KernelDesc) { k.Grid = Dim3{} },
		"huge block":      func(k *KernelDesc) { k.Block = D1(2048) },
		"no instructions": func(k *KernelDesc) { k.Mix = InstrMix{} },
		"bad coalescing":  func(k *KernelDesc) { k.CoalescingFactor = 0.5 },
		"coalescing high": func(k *KernelDesc) { k.CoalescingFactor = 64 },
		"bad divergence":  func(k *KernelDesc) { k.DivergenceEff = 0 },
		"divergence high": func(k *KernelDesc) { k.DivergenceEff = 1.5 },
		"bad strided":     func(k *KernelDesc) { k.StridedFraction = -0.1 },
		"neg imbalance":   func(k *KernelDesc) { k.BlockImbalance = -1 },
	}
	for name, mutate := range mutations {
		k := validKernel()
		mutate(&k)
		if err := k.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid kernel", name)
		}
	}
}

func TestThreadsAndWarps(t *testing.T) {
	k := validKernel()
	if k.Threads() != 25600 {
		t.Errorf("Threads = %d", k.Threads())
	}
	if k.WarpsPerBlock() != 8 {
		t.Errorf("WarpsPerBlock = %d", k.WarpsPerBlock())
	}
	k.Block = D1(33)
	if k.WarpsPerBlock() != 2 {
		t.Errorf("33-thread block warps = %d, want 2", k.WarpsPerBlock())
	}
}

func TestResources(t *testing.T) {
	k := validKernel()
	k.RegsPerThread = 40
	k.SharedMemPerBlock = 1024
	r := k.Resources()
	if r.ThreadsPerBlock != 256 || r.RegsPerThread != 40 || r.SharedMemPerBlock != 1024 {
		t.Errorf("Resources = %+v", r)
	}
}

func TestTotalWarpInstructionsScalesWithISA(t *testing.T) {
	k := validKernel()
	v := k.TotalWarpInstructions(gpu.VoltaV100())
	warps := int64(100 * 8)
	if v != warps*int64(k.Mix.Total()) {
		t.Errorf("Volta warp instructions = %d", v)
	}
	tu := k.TotalWarpInstructions(gpu.TuringRTX2060())
	if tu >= v {
		t.Errorf("Turing (ISA 0.97) should execute fewer instructions: %d vs %d", tu, v)
	}
}

func TestFeatureVectorShapeAndNames(t *testing.T) {
	k := validKernel()
	f := k.AppendFeatureVector(nil, gpu.VoltaV100())
	if len(f) != NumFeatures || len(FeatureNames) != NumFeatures {
		t.Fatalf("feature length %d, names %d", len(f), len(FeatureNames))
	}
	// Blocks and divergence are ISA-independent and exactly known.
	if f[11] != 100 {
		t.Errorf("thread_blocks = %v", f[11])
	}
	if f[10] != 32 {
		t.Errorf("divergence_efficiency = %v, want 32 lanes", f[10])
	}
	// No local loads or atomics in this kernel.
	if f[2] != 0 || f[5] != 0 || f[8] != 0 {
		t.Error("zero-mix features should be zero")
	}
	// Coalesced sectors = warps * loads * factor.
	want := float64(100*8) * 8 * 4
	if f[0] != want {
		t.Errorf("coalesced_global_loads = %v, want %v", f[0], want)
	}
}

func TestFeatureVectorISAInvariance(t *testing.T) {
	k := validKernel()
	fv := k.AppendFeatureVector(nil, gpu.VoltaV100())
	fa := k.AppendFeatureVector(nil, gpu.AmpereRTX3070())
	// Instruction-derived metrics scale; structural metrics do not.
	if fa[9] <= fv[9] {
		t.Error("Ampere instruction count should exceed Volta (ISA 1.04)")
	}
	if fa[11] != fv[11] || fa[10] != fv[10] {
		t.Error("grid size and divergence must be generation-invariant")
	}
}

// Property: every feature is non-negative and scales linearly in the grid
// dimension (doubling blocks doubles count metrics, leaves ratios fixed).
func TestFeatureVectorScalingProperty(t *testing.T) {
	f := func(blocks uint8, loads, computeRaw uint8) bool {
		b := int(blocks%200) + 1
		k := validKernel()
		k.Grid = D1(b)
		k.Mix.GlobalLoads = int(loads % 20)
		k.Mix.Compute = int(computeRaw%50) + 1
		fv := k.AppendFeatureVector(nil, gpu.VoltaV100())
		for _, v := range fv {
			if v < 0 {
				return false
			}
		}
		k2 := k
		k2.Grid = D1(2 * b)
		fv2 := k2.AppendFeatureVector(nil, gpu.VoltaV100())
		for i := 0; i < 10; i++ { // count-type features
			if fv[i] == 0 {
				if fv2[i] != 0 {
					return false
				}
				continue
			}
			ratio := fv2[i] / fv[i]
			if ratio < 1.999 || ratio > 2.001 {
				return false
			}
		}
		return fv2[10] == fv[10] && fv2[11] == 2*fv[11]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
