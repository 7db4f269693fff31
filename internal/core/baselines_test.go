package core

import (
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
// returns what resolving every task alone returns; its bank ends empty; the
// baseline tasks make no simulator pass of their own (each pass reported is
// the full baseline's over one distinct planned launch, run to completion);
// a warm run over the same store reaches no simulator; and the complete
// plan, over the same Exec, reads the same full, PKS and PKA columns.
func TestBaselinePlanMatchesSolo(t *testing.T) {
	dev := gpu.VoltaV100()
	w := mustFind(t, "DeepBench/rnn_inf_5") // cheap, and the 1B budget cuts it
	firstN := sampling.PlanFirstN(dev, w, nil, 0)
	if len(firstN.Cut) != 1 {
		t.Fatalf("the 1B budget should cut %s inside a launch", w.FullName())
	}
	tb, err := tbpoint.Select(dev, w, tbpoint.Options{})
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
		ev, bank, err := plan.evaluate(cfg, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		ev.Workload = nil
		if !reflect.DeepEqual(ev, ref) {
			t.Errorf("%s: evaluation differs:\n got %+v\nwant %+v", what, ev, ref)
		}
		if bank.Len() != 0 {
			t.Errorf("%s: %d outcomes left in the bank", what, bank.Len())
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
