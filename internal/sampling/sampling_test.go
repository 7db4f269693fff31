package sampling

import (
	"errors"
	"math"
	"testing"

	"pka/internal/gpu"
	"pka/internal/stats"
	"pka/internal/workload"
)

func TestFullSimSmallWorkload(t *testing.T) {
	w := workload.Find("Rodinia/gauss_mat4")
	res, err := FullSim(gpu.VoltaV100(), w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.KernelsSimulated != w.N {
		t.Errorf("simulated %d kernels, want %d", res.KernelsSimulated, w.N)
	}
	if res.Truncated {
		t.Error("full sim should not truncate")
	}
	if res.ProjCycles <= 0 || res.SimWarpInstrs <= 0 {
		t.Errorf("degenerate result: %+v", res)
	}
}

func TestFullSimInfeasibleOnHugeWorkload(t *testing.T) {
	w := workload.Find("MLPerf/ssd_training")
	_, err := FullSim(gpu.VoltaV100(), w, 0)
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
	// A tiny explicit budget makes even small apps infeasible.
	small := workload.Find("Rodinia/gauss_mat4")
	if _, err := FullSim(gpu.VoltaV100(), small, 10); !errors.Is(err, ErrInfeasible) {
		t.Errorf("tiny budget: err = %v", err)
	}
}

func TestFullSimTracksSilicon(t *testing.T) {
	w := workload.Find("Parboil/histo")
	res, err := FullSim(gpu.VoltaV100(), w, 0)
	if err != nil {
		t.Fatal(err)
	}
	sil, err := SiliconTotal(gpu.VoltaV100(), w)
	if err != nil {
		t.Fatal(err)
	}
	errPct := stats.AbsPctErr(float64(res.ProjCycles), float64(sil.Cycles))
	// The paper's simulator baseline averages 26.7% error vs silicon
	// with individual apps up to ~150%; our two models should land in
	// the same regime.
	if errPct > 150 {
		t.Errorf("full-sim error vs silicon = %.1f%%", errPct)
	}
}

// TestFirstNCoversSmallAppExactly: with a budget that covers the workload,
// 1B is full simulation bit for bit on every modeled device — the nominal
// budget rule never cuts a launch it covers, whatever a completed kernel
// really issues there.
func TestFirstNCoversSmallAppExactly(t *testing.T) {
	w := workload.Find("Rodinia/gauss_mat4")
	for _, dev := range []gpu.Device{gpu.VoltaV100(), gpu.TuringRTX2060(), gpu.AmpereRTX3070(), gpu.VoltaV100().WithSMs(40)} {
		full, err := FullSim(dev, w, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := FirstN(dev, w, 1<<40)
		if err != nil {
			t.Fatal(err)
		}
		if res.Truncated {
			t.Errorf("%s: huge budget should cover the whole app", dev.Name)
		}
		if *res != *full || math.Float64bits(res.IPC) != math.Float64bits(full.IPC) ||
			math.Float64bits(res.DRAMUtil) != math.Float64bits(full.DRAMUtil) {
			t.Errorf("%s: FirstN with full budget = %+v, full sim = %+v", dev.Name, *res, *full)
		}
	}
}

func TestFirstNTruncatesAndProjects(t *testing.T) {
	w := workload.Find("Polybench/fdtd2d")
	res, err := FirstN(gpu.VoltaV100(), w, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("2M-instruction budget should truncate fdtd2d")
	}
	if res.KernelsSimulated >= w.N {
		t.Errorf("entered %d kernels of %d", res.KernelsSimulated, w.N)
	}
	if res.SimWarpInstrs > 2_100_000 {
		t.Errorf("simulated %d warp instrs, budget 2M", res.SimWarpInstrs)
	}
	if res.ProjCycles <= 0 {
		t.Error("no projection produced")
	}
	// The projection must at least account for every kernel's overhead.
	sil, _ := SiliconTotal(gpu.VoltaV100(), w)
	ratio := float64(res.ProjCycles) / float64(sil.Cycles)
	if ratio < 0.1 || ratio > 10 {
		t.Errorf("projection wildly off: ratio %.2f vs silicon", ratio)
	}
}

func TestFirstNIsCheaperThanFullSim(t *testing.T) {
	w := workload.Find("Polybench/fdtd2d")
	full, err := FullSim(gpu.VoltaV100(), w, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := FirstN(gpu.VoltaV100(), w, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.SimWarpInstrs*2 > full.SimWarpInstrs {
		t.Errorf("FirstN simulated %d of %d warp instrs — not a meaningful reduction",
			res.SimWarpInstrs, full.SimWarpInstrs)
	}
}

func TestSiliconTotal(t *testing.T) {
	w := workload.Find("Rodinia/b+tree")
	app, err := SiliconTotal(gpu.VoltaV100(), w)
	if err != nil {
		t.Fatal(err)
	}
	if app.Kernels != w.N || app.Cycles <= 0 || app.TimeSeconds <= 0 {
		t.Errorf("silicon total: %+v", app)
	}
}
