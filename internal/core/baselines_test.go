package core

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"pka/internal/gpu"
	"pka/internal/obs"
	"pka/internal/parallel"
	"pka/internal/sampling"
	"pka/internal/tbpoint"
)

// TestBaselinePlanMatchesSolo is the fence around the baselines riding the
// full pass: an evaluation that plans 1B and TBPoint beside the complete plan
// returns what resolving every task alone returns; its pack is left with
// nothing banked; the baseline tasks make no simulator pass of their own
// (each pass reported is the full baseline's over one distinct planned
// launch, run to completion); a warm run over the same store reaches no
// simulator; and the complete plan, over the same Exec, reads the same full,
// PKS and PKA columns.
func TestBaselinePlanMatchesSolo(t *testing.T) {
	dev := gpu.VoltaV100()
	w := mustFind(t, "DeepBench/rnn_inf_5") // cheap, and the 1B budget cuts it
	firstN := sampling.PlanFirstN(dev, w, nil, 0)
	if len(firstN.Cut) != 1 {
		t.Fatalf("the 1B budget should cut %s inside a launch", w.FullName())
	}
	tb, err := tbpoint.Select(dev, w)
	if err != nil {
		t.Fatal(err)
	}
	plan := CompletePlan()
	plan.Passes = append(plan.Passes, sampling.ModeFirstN, sampling.ModeBlocks)
	plan.TBPoint = tb

	ref, err := plan.Evaluate(Config{Device: dev}, w, nil) // no Exec: every task a run of its own
	if err != nil {
		t.Fatal(err)
	}
	ref.Workload = nil // holds a func
	if ref.TBPoint.SimWarpInstrs == 0 || ref.TBPoint.ErrorPct == 0 || ref.TBPoint.SpeedupVsFull <= 1 {
		t.Errorf("TBPoint column not filled in: %+v", ref.TBPoint)
	}

	// The planned launches by content: what the full baseline's pass reports
	// once each when every planned task rides it.
	planned := map[string]bool{}
	for _, g := range ref.Selection.Groups {
		k := w.Kernel(g.RepIndex)
		planned[sampling.TaskKey(dev, &k, sampling.KernelTask{})] = true
	}
	for _, g := range tb.Groups {
		k := w.Kernel(g.RepIndex)
		planned[sampling.TaskKey(dev, &k, sampling.KernelTask{})] = true
	}
	planned[sampling.TaskKey(dev, &firstN.Cut[0], sampling.KernelTask{})] = true

	// At scheduler width 4; TestEvaluateRidersMatchSolo covers width 1.
	store, _ := openStore(t)
	run := func(what string) map[string]int {
		cfg := Config{Device: dev, Exec: sampling.NewExec(parallel.NewScheduler(4), store), Obs: obs.NewObserver(), Flight: sampling.NewFlightRecorder()}
		ev, pack, err := plan.evaluate(cfg, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		ev.Workload = nil
		if !reflect.DeepEqual(ev, ref) {
			t.Errorf("%s: evaluation differs:\n got %+v\nwant %+v", what, ev, ref)
		}
		if pack.Banked() != 0 {
			t.Errorf("%s: %d outcomes left banked", what, pack.Banked())
		}
		// Every pass reported is the full baseline's, run to completion:
		// none is a baseline task's own, stopped where its policy stops.
		m := cfg.Obs.SimMetrics()
		if what == "cold" && (m.Kernels.Value() != int64(len(planned)) || m.StoppedEarly.Value() != 0) {
			t.Errorf("%d simulator passes reported, %d stopped early; want one full pass per planned launch (%d)",
				m.Kernels.Value(), m.StoppedEarly.Value(), len(planned))
		}
		return cfg.Flight.TierCounts()
	}
	if tiers := run("cold"); tiers["sim"] == 0 {
		t.Errorf("cold tiers %v", tiers)
	}
	complete, err := Evaluate(Config{Device: dev, Exec: sampling.NewExec(parallel.NewScheduler(4), store)}, w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*complete.Full, *ref.Full) || complete.PKS != ref.PKS || complete.PKA != ref.PKA {
		t.Error("planning the baselines moved the complete plan's columns")
	}
	if tiers := run("warm"); tiers["sim"] != 0 {
		t.Errorf("warm tiers %v", tiers)
	}
}

func TestFullSimSmallWorkload(t *testing.T) {
	dev := gpu.VoltaV100()
	w := mustFind(t, "Rodinia/gauss_mat4")
	cfg := Config{Device: dev, Exec: sampling.NewExec(nil, nil), Flight: sampling.NewFlightRecorder()}
	ev, err := Plan{Passes: []sampling.TaskMode{sampling.ModeFull}}.Evaluate(cfg, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := cfg.Flight.Len(); n != w.N {
		t.Errorf("simulated %d kernels, want %d", n, w.N)
	}
	// Full simulation cuts no launch short: each ran as a full task.
	for _, e := range cfg.Flight.Entries() {
		k := w.Kernel(e.Index)
		if e.Phase != "full" || e.Key != sampling.TaskKey(dev, &k, sampling.KernelTask{Mode: sampling.ModeFull}) {
			t.Errorf("launch %d ran as %s task %s, want a full one", e.Index, e.Phase, e.Key)
		}
	}
	if res := ev.Full; res.ProjCycles <= 0 || res.SimWarpInstrs <= 0 {
		t.Errorf("degenerate result: %+v", res)
	}
}

func TestFullSimInfeasibleOnHugeWorkload(t *testing.T) {
	full := Plan{Passes: []sampling.TaskMode{sampling.ModeFull}}
	_, err := full.Evaluate(Config{Device: gpu.VoltaV100()}, mustFind(t, "MLPerf/ssd_training"), nil)
	if !errors.Is(err, sampling.ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
	// A tiny explicit budget makes even small apps infeasible.
	small := mustFind(t, "Rodinia/gauss_mat4")
	if _, err := full.Evaluate(Config{Device: gpu.VoltaV100(), FullSimBudget: 10}, small, nil); !errors.Is(err, sampling.ErrInfeasible) {
		t.Errorf("tiny budget: err = %v", err)
	}
}

func TestFullSimTracksSilicon(t *testing.T) {
	w := mustFind(t, "Parboil/histo")
	ev, err := Plan{Passes: []sampling.TaskMode{sampling.ModeFull}, Silicon: true}.Evaluate(Config{Device: gpu.VoltaV100()}, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's simulator baseline averages 26.7% error vs silicon
	// with individual apps up to ~150%; our two models should land in
	// the same regime.
	if ev.Full.ErrorPct > 150 {
		t.Errorf("full-sim error vs silicon = %.1f%%", ev.Full.ErrorPct)
	}
}

// TestFirstNCoversSmallAppExactly: with a budget that covers the workload,
// 1B is full simulation bit for bit on every modeled device — the nominal
// budget rule never cuts a launch it covers, whatever a completed kernel
// really issues there.
func TestFirstNCoversSmallAppExactly(t *testing.T) {
	w := mustFind(t, "Rodinia/gauss_mat4")
	plan := Plan{Passes: []sampling.TaskMode{sampling.ModeFull, sampling.ModeFirstN}, FirstN: 1 << 40}
	for _, dev := range []gpu.Device{gpu.VoltaV100(), gpu.TuringRTX2060(), gpu.AmpereRTX3070(), gpu.VoltaV100().WithSMs(40)} {
		if p := sampling.PlanFirstN(dev, w, nil, plan.FirstN); len(p.Whole) != w.N || len(p.Cut) != 0 {
			t.Errorf("%s: huge budget should cover the whole app, plans %d whole and %d cut of %d", dev.Name, len(p.Whole), len(p.Cut), w.N)
		}
		ev, err := plan.Evaluate(Config{Device: dev}, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		full, res := *ev.Full, ev.OneB
		if res != full || math.Float64bits(res.IPC) != math.Float64bits(full.IPC) ||
			math.Float64bits(res.DRAMUtil) != math.Float64bits(full.DRAMUtil) {
			t.Errorf("%s: FirstN with full budget = %+v, full sim = %+v", dev.Name, res, full)
		}
	}
}

func TestFirstNTruncatesAndProjects(t *testing.T) {
	dev := gpu.VoltaV100()
	w := mustFind(t, "Polybench/fdtd2d")
	plan := Plan{Passes: []sampling.TaskMode{sampling.ModeFirstN}, FirstN: 2_000_000}
	p := sampling.PlanFirstN(dev, w, nil, plan.FirstN)
	if len(p.Whole) == w.N {
		t.Fatal("2M-instruction budget should truncate fdtd2d")
	}
	if entered := len(p.Whole) + len(p.Cut); entered >= w.N {
		t.Errorf("entered %d kernels of %d", entered, w.N)
	}
	ev, err := plan.Evaluate(Config{Device: dev}, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := ev.OneB
	if res.SimWarpInstrs > 2_100_000 {
		t.Errorf("simulated %d warp instrs, budget 2M", res.SimWarpInstrs)
	}
	if res.ProjCycles <= 0 {
		t.Error("no projection produced")
	}
	// The projection must at least account for every kernel's overhead.
	sc, _ := sampling.ScanLaunches(dev, w, sampling.Want{Silicon: true})
	ratio := float64(res.ProjCycles) / float64(sc.Silicon.Cycles)
	if ratio < 0.1 || ratio > 10 {
		t.Errorf("projection wildly off: ratio %.2f vs silicon", ratio)
	}
}

func TestFirstNIsCheaperThanFullSim(t *testing.T) {
	w := mustFind(t, "Polybench/fdtd2d")
	plan := Plan{Passes: []sampling.TaskMode{sampling.ModeFull, sampling.ModeFirstN}, FirstN: 2_000_000}
	ev, err := plan.Evaluate(Config{Device: gpu.VoltaV100()}, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ev.OneB.SimWarpInstrs*2 > ev.Full.SimWarpInstrs {
		t.Errorf("FirstN simulated %d of %d warp instrs — not a meaningful reduction",
			ev.OneB.SimWarpInstrs, ev.Full.SimWarpInstrs)
	}
}
