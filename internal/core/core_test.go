package core

import (
	"testing"

	"pka/internal/gpu"
	"pka/internal/pks"
	"pka/internal/sampling"
	"pka/internal/workload"
)

func cfg() Config { return Config{Device: gpu.VoltaV100()} }

// evaluate is the complete plan's evaluation with its pack.
func evaluate(cfg Config, w *workload.Workload, sel *pks.Selection) (*Evaluation, *sampling.Pack, error) {
	return CompletePlan().evaluate(cfg, w, sel)
}

func TestEvaluateGaussian(t *testing.T) {
	w := workload.Find("Rodinia/gauss_208")
	ev, err := Evaluate(cfg(), w)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Full == nil {
		t.Fatal("gauss_208 should complete in full simulation")
	}
	if ev.PKS.SimWarpInstrs >= ev.Full.SimWarpInstrs {
		t.Error("PKS did not reduce simulated work")
	}
	if ev.PKS.SpeedupVsFull < 50 {
		t.Errorf("PKS speedup %.1fx, want large for 414 similar kernels", ev.PKS.SpeedupVsFull)
	}
	if ev.PKA.SimWarpInstrs > ev.PKS.SimWarpInstrs {
		t.Error("PKA simulated more than PKS")
	}
	// PKS's sampled-sim error should stay in the neighbourhood of the
	// simulator's own error vs silicon (Table 4's pattern).
	if diff := ev.PKS.ErrorPct - ev.Full.ErrorPct; diff > 40 {
		t.Errorf("PKS error %.1f%% far above sim error %.1f%%", ev.PKS.ErrorPct, ev.Full.ErrorPct)
	}
}

func TestEvaluateSingleKernelApp(t *testing.T) {
	w := workload.Find("Rodinia/hots_512")
	ev, err := Evaluate(cfg(), w)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Full == nil {
		t.Fatal("hotspot should complete in full simulation")
	}
	// One kernel, one group: PKS == full simulation.
	if ev.PKS.SpeedupVsFull < 0.99 || ev.PKS.SpeedupVsFull > 1.01 {
		t.Errorf("single-kernel PKS speedup = %.3f, want 1.0", ev.PKS.SpeedupVsFull)
	}
	if ev.PKS.ErrorPct > ev.Full.ErrorPct+1 {
		t.Errorf("PKS error %.2f%% vs sim error %.2f%%", ev.PKS.ErrorPct, ev.Full.ErrorPct)
	}
}

func TestEvaluateInfeasibleWorkloadStillProjects(t *testing.T) {
	w := workload.Find("MLPerf/3dunet_inf")
	c := cfg()
	// Keep the PKS profiling light for test speed.
	c.PKS = pks.Options{ClusterSampleMax: 2000}
	ev, err := Evaluate(c, w)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Full != nil {
		t.Skip("3dunet unexpectedly feasible; adjust budget expectations")
	}
	if ev.FullSimHours <= 0 {
		t.Error("infeasible workload should still get projected full-sim hours")
	}
	if ev.PKA.ProjCycles <= 0 || ev.PKA.SimWarpInstrs <= 0 {
		t.Error("PKA produced no projection")
	}
	if ev.PKA.SpeedupVsFull <= 1 {
		t.Errorf("PKA speedup %.2f on a huge workload", ev.PKA.SpeedupVsFull)
	}
	if ev.PKA.SimHours >= ev.FullSimHours {
		t.Error("PKA projected time should undercut full simulation")
	}
}

func TestSimHoursConversion(t *testing.T) {
	if got := SimHours(3000 * 3600); got != 1 {
		t.Errorf("SimHours = %v, want 1", got)
	}
}

func TestRunSampledWeightsGroups(t *testing.T) {
	w := workload.Find("Parboil/spmv") // 50 identical launches, 1 group
	c := cfg()
	sel, err := pks.Select(c.Device, w, c.PKS)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunSampled(c, w, sel, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.ProjCycles <= 0 {
		t.Fatal("no projection")
	}
	// One rep simulated, weighted ~50x: projected cycles should be on
	// the order of 50x the simulated kernel cycles.
	if sel.K == 1 {
		perKernel := (got.ProjCycles - int64(w.N)*2500) / int64(w.N)
		if perKernel <= 0 {
			t.Errorf("per-kernel projection %d", perKernel)
		}
	}
	if got.DRAMUtil < 0 || got.DRAMUtil > 1 {
		t.Errorf("DRAM util %v", got.DRAMUtil)
	}
}

func TestEvaluateNilWorkload(t *testing.T) {
	if _, err := Evaluate(cfg(), nil); err == nil {
		t.Error("nil workload accepted")
	}
}

func TestPKAFasterOnLongKernels(t *testing.T) {
	// syrk is one long kernel: PKS gains nothing, PKP is the only lever
	// (the paper's syr2k/syrk rows).
	w := workload.Find("Polybench/syrk")
	c := cfg()
	sel, err := pks.Select(c.Device, w, c.PKS)
	if err != nil {
		t.Fatal(err)
	}
	noPKP, err := RunSampled(c, w, sel, false)
	if err != nil {
		t.Fatal(err)
	}
	withPKP, err := RunSampled(c, w, sel, true)
	if err != nil {
		t.Fatal(err)
	}
	if withPKP.SimWarpInstrs >= noPKP.SimWarpInstrs {
		t.Errorf("PKP did not cut the long kernel: %d vs %d warp instrs",
			withPKP.SimWarpInstrs, noPKP.SimWarpInstrs)
	}
}
