package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"pka/internal/gpu"
	"pka/internal/sampling"
	"pka/internal/tbpoint"
)

// TestEvaluationGolden pins every column of an evaluation that plans all five
// methods — full simulation, 1B, TBPoint, PKS and PKA — to values recorded
// before full simulation and 1B were folded by the evaluation's own pass
// loop: an FNV-64a hash of a canonical dump of each column, floats as bits.
// The cases cover a workload the 1B budget cuts (rnn_inf_5), two it covers,
// two devices, and a full-simulation budget that makes full simulation
// infeasible (Full nil, its hours projected from the instruction mass).
func TestEvaluationGolden(t *testing.T) {
	cases := []struct {
		device string
		budget int64
		want   uint64
	}{
		{"volta", 0, 0x7441d032f3c9116e},
		{"volta", 1, 0x233462c7c7de5fff},
		{"rtx2060", 0, 0x7e36d09a86a2d95c},
		{"rtx2060", 1, 0x3db54ad47da05233},
	}
	for _, tc := range cases {
		dev := gpu.VoltaV100()
		if tc.device == "rtx2060" {
			dev = gpu.TuringRTX2060()
		}
		var b strings.Builder
		for _, name := range []string{"DeepBench/rnn_inf_5", "Rodinia/gauss_208", "Rodinia/bfs65536"} {
			evaluationDump(t, &b, Config{Device: dev, FullSimBudget: tc.budget}, name)
		}
		h := fnv.New64a()
		h.Write([]byte(b.String()))
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s budget %d: hash %#x, want %#x\n%s", tc.device, tc.budget, got, tc.want, b.String())
		}
	}
}

// evaluationDump evaluates the complete plan plus 1B and TBPoint (selected on
// cfg's device) on the workload called name and renders every column.
func evaluationDump(t *testing.T, b *strings.Builder, cfg Config, name string) {
	t.Helper()
	w := mustFind(t, name)
	tb, err := tbpoint.Select(cfg.Device, w)
	if err != nil {
		t.Fatal(err)
	}
	plan := CompletePlan()
	plan.Passes = append(plan.Passes, sampling.ModeFirstN, sampling.ModeBlocks)
	plan.TBPoint = tb
	ev, err := plan.Evaluate(cfg, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	bits := math.Float64bits
	fmt.Fprintf(b, "%s %s\n", cfg.Device.Name, name)
	if ev.Full != nil {
		fmt.Fprintf(b, "full %d %d %x %x %x\n", ev.Full.ProjCycles, ev.Full.SimWarpInstrs,
			bits(ev.Full.ErrorPct), bits(ev.Full.IPC), bits(ev.Full.DRAMUtil))
	} else {
		fmt.Fprintf(b, "full nil\n")
	}
	fmt.Fprintf(b, "full hours %x\n", bits(ev.FullSimHours))
	for _, c := range []struct {
		name string
		s    SampledSim
	}{{"1b", ev.OneB}, {"tbpoint", ev.TBPoint}, {"pks", ev.PKS}, {"pka", ev.PKA}} {
		s := c.s
		fmt.Fprintf(b, "%s %d %d %x %x %x %x %x %v\n", c.name, s.ProjCycles, s.SimWarpInstrs, bits(s.ErrorPct),
			bits(s.IPC), bits(s.DRAMUtil), bits(s.SimHours), bits(s.SpeedupVsFull), s.Capped)
	}
}
