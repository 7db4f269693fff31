package pka

import (
	"errors"
	"testing"
)

func TestPublicAPIPipeline(t *testing.T) {
	w := FindWorkload("Rodinia/gauss_208")
	if w == nil {
		t.Fatal("study workload missing")
	}
	cfg := Config{Device: VoltaV100()}
	ev, err := Evaluate(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Selection.K < 1 || ev.PKA.SimWarpInstrs <= 0 {
		t.Errorf("degenerate evaluation: %+v", ev.Selection)
	}
	if ev.Selection.SelectionErrorPct > 5 {
		t.Errorf("selection error %.2f%% over target", ev.Selection.SelectionErrorPct)
	}
}

func TestPublicAPICustomWorkload(t *testing.T) {
	// A downstream user's own application: two alternating kernels.
	kernels := []KernelDesc{}
	for i := 0; i < 40; i++ {
		k := KernelDesc{
			Name:  "stage_a",
			Grid:  D1(320),
			Block: D1(256),
			Mix:   InstrMix{Compute: 80, GlobalLoads: 4},

			CoalescingFactor: 4,
			WorkingSetBytes:  4 << 20,
			StridedFraction:  0.9,
			DivergenceEff:    1,
			Seed:             uint64(i + 1),
		}
		if i%2 == 1 {
			k.Name = "stage_b"
			k.Mix = InstrMix{Compute: 10, GlobalLoads: 30}
			k.WorkingSetBytes = 256 << 20
			k.StridedFraction = 0.3
		}
		kernels = append(kernels, k)
	}
	w := NewWorkload("user", "custom", len(kernels), func(i int) KernelDesc { return kernels[i] })
	sel, err := Select(VoltaV100(), w, SelectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sel.K != 2 {
		t.Errorf("K = %d, want 2 for two alternating kernel shapes", sel.K)
	}
	cg, err := ProjectOnDevice(TuringRTX2060(), w, sel)
	if err != nil {
		t.Fatal(err)
	}
	if cg.Truth <= 0 || cg.Projected <= 0 {
		t.Error("cross-generation projection degenerate")
	}
}

func TestPublicAPISimulatorAndProjector(t *testing.T) {
	k := KernelDesc{
		Name: "probe", Grid: D1(3200), Block: D1(256),
		Mix:              InstrMix{Compute: 100, GlobalLoads: 4},
		CoalescingFactor: 4, WorkingSetBytes: 1 << 20, StridedFraction: 0.9,
		DivergenceEff: 1, Seed: 7,
	}
	p := NewProjector(ProjectorOptions{})
	res, err := NewSimulator(VoltaV100()).RunKernel(&k, SimOptions{Controller: p})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Stable() {
		t.Skip("kernel did not stabilize; acceptable for the API smoke test")
	}
	proj := p.Projection(res)
	if proj.Cycles < res.Cycles {
		t.Error("projection shrank the kernel")
	}
	sil, err := ExecuteSilicon(VoltaV100(), &k)
	if err != nil {
		t.Fatal(err)
	}
	if sil.Cycles <= 0 {
		t.Error("silicon returned no cycles")
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	w := FindWorkload("Rodinia/gauss_mat4")
	if _, err := FullSim(VoltaV100(), w, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := FirstN(VoltaV100(), w, 100_000); err != nil {
		t.Fatal(err)
	}
	if _, err := TBPointSelect(VoltaV100(), w); err != nil {
		t.Fatal(err)
	}
	huge := FindWorkload("MLPerf/ssd_training")
	if _, err := FullSim(VoltaV100(), huge, 0); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestStudySurface(t *testing.T) {
	s := NewStudy()
	ws := AllWorkloads()
	if len(ws) != 147 {
		t.Fatalf("workload count = %d", len(ws))
	}
	s.SetWorkloads(ws[:3])
	tab, err := Table3(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Error("Table 3 empty")
	}
	if WorkloadsBySuite("MLPerf") == nil || FindWorkload("nope/nope") != nil {
		t.Error("lookup helpers misbehave")
	}
}
