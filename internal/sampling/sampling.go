// Package sampling provides the non-PKA simulation policies the paper
// compares against: full simulation of every kernel, and the widely used
// "simulate the first N instructions" heuristic (N = 1 billion in the
// paper's Figure 7/8 comparison).
package sampling

import (
	"errors"
	"fmt"

	"pka/internal/gpu"
	"pka/internal/pkp"
	"pka/internal/silicon"
	"pka/internal/sim"
	"pka/internal/trace"
	"pka/internal/workload"
)

// ErrInfeasible reports that a workload exceeds the harness's actual
// simulation budget — the reproduction's analogue of "this simulation
// would take months", which is precisely the situation the paper's MLPerf
// rows are in.
var ErrInfeasible = errors.New("sampling: workload exceeds full-simulation budget")

// DefaultFullSimBudget caps the warp instructions the harness will truly
// simulate for one workload's full simulation.
const DefaultFullSimBudget = 300_000_000

// DefaultFirstN is the instruction-budget baseline from the paper: the
// first one billion (warp) instructions. Our synthetic workloads carry
// fewer dynamic instructions than the originals by roughly the sim-rate
// ratio, so the default is scaled to keep the baseline's character — it
// covers small apps entirely and truncates large ones at their warmup.
const DefaultFirstN = 10_000_000

// Result summarizes an application-level simulation outcome.
type Result struct {
	// ProjCycles is the simulator's application cycle estimate (kernel
	// cycles plus launch overheads; truncation policies extrapolate).
	ProjCycles int64
	// SimWarpInstrs is the work actually simulated — the cost side.
	SimWarpInstrs int64
	// KernelsSimulated counts kernels that were at least entered.
	KernelsSimulated int
	// IPC is the aggregate thread-instruction IPC over simulated work.
	IPC float64
	// DRAMUtil is the cycle-weighted mean DRAM utilization.
	DRAMUtil float64
	// Truncated reports whether any extrapolation happened.
	Truncated bool
}

// FullSim simulates every kernel of the workload, each on a fresh
// simulator, serially and uncached. It returns ErrInfeasible when the
// workload exceeds budgetWarpInstrs (zero applies DefaultFullSimBudget).
// Use Exec.FullSim to run the same simulation through the kernel-task
// scheduler and caches; the result is byte-identical.
func FullSim(dev gpu.Device, w *workload.Workload, budgetWarpInstrs int64) (*Result, error) {
	return (*Exec)(nil).FullSim(dev, w, budgetWarpInstrs)
}

// FullSim simulates every kernel of the workload as independent kernel
// tasks on the exec's scheduler and cache layers, then folds the outcomes
// in launch order — so the result is byte-identical to the serial package
// function at any scheduler width, warm or cold. Its launches come from one
// bounded scan, which stops at the budget where the workload passes it.
func (e *Exec) FullSim(dev gpu.Device, w *workload.Workload, budgetWarpInstrs int64) (*Result, error) {
	sc, _ := ScanLaunches(dev, w, Want{Keep: true, Budget: budgetWarpInstrs, Bounded: true}) // only the silicon fold can fail
	return e.FullSimOf(dev, w.FullName(), sc.Kernels, nil, nil)
}

// FullSimOf is FullSim over the launches of the workload called name already
// in hand — a Scan's Kernels, nil where that found full simulation
// infeasible; read, never written, as a remembered scan's are shared — with
// per-kernel observe-only wiring (tracing and provenance; nil for none) and
// the calling evaluation's bank (see RunKernels).
func (e *Exec) FullSimOf(dev gpu.Device, name string, kernels []trace.KernelDesc, tobs func(i int) TaskObs, bank *Bank) (*Result, error) {
	if kernels == nil {
		return nil, fmt.Errorf("%w: %s", ErrInfeasible, name)
	}
	outs, err := e.RunKernels(dev, KernelTask{Mode: ModeFull}, kernels, tobs, bank)
	if err != nil {
		return nil, fmt.Errorf("sampling: full sim of %s: %w", name, err)
	}
	res := &Result{}
	var threadInstrs, dramWeighted float64
	var simCycles int64
	for _, oc := range outs {
		res.ProjCycles += oc.ProjCycles + silicon.KernelLaunchOverheadCycles
		res.SimWarpInstrs += oc.SimWarpInstrs
		res.KernelsSimulated++
		simCycles += oc.ProjCycles
		threadInstrs += oc.ThreadInstrs
		dramWeighted += oc.DRAMUtil * float64(oc.ProjCycles)
	}
	finalize(res, threadInstrs, dramWeighted, simCycles)
	return res, nil
}

// FirstN simulates kernels in launch order until nWarpInstrs have been
// issued (stopping mid-kernel if needed), then projects the application
// total by holding the observed IPC: the standard "first billion
// instructions" methodology, warmup bias and all. Zero applies
// DefaultFirstN.
func FirstN(dev gpu.Device, w *workload.Workload, nWarpInstrs int64) (*Result, error) {
	if nWarpInstrs <= 0 {
		nWarpInstrs = DefaultFirstN
	}
	res := &Result{}
	var threadInstrs, dramWeighted float64
	var simCycles, enteredWarp int64

	next := w.Iterator()
	for k := next(); k != nil && res.SimWarpInstrs < nWarpInstrs; k = next() {
		budgetLeft := nWarpInstrs - res.SimWarpInstrs
		ctl := sim.ControllerFunc(func(t *sim.Telemetry) bool {
			return t.WarpInstrs >= budgetLeft
		})
		// Cold simulator per kernel, matching the kernel-task semantics
		// of every other policy (see task.go), so FirstN with an
		// exhaustive budget lands exactly on FullSim's numbers.
		s := acquireSim(dev)
		kr, err := s.RunKernel(k, sim.Options{Controller: ctl})
		releaseSim(s)
		if err != nil {
			return nil, fmt.Errorf("sampling: first-N sim of %s kernel %d: %w", w.FullName(), k.ID, err)
		}
		pr := pkp.Project(kr) // lifetime-average extrapolation of a cut kernel
		res.ProjCycles += pr.Cycles + silicon.KernelLaunchOverheadCycles
		res.SimWarpInstrs += kr.WarpInstrs
		res.KernelsSimulated++
		simCycles += kr.Cycles
		enteredWarp += k.TotalWarpInstructions(dev)
		threadInstrs += kr.ThreadInstrs
		dramWeighted += kr.DRAMUtil * float64(kr.Cycles)
		if pr.Truncated {
			res.Truncated = true
		}
	}

	// Kernels never entered: project their cycles by holding the
	// observed warp-level IPC of the simulated prefix. Kernels that were
	// entered (even if cut mid-run) were already extrapolated above, so
	// only the never-entered instruction mass remains.
	totalWarp := int64(float64(w.ApproxWarpInstructions(1<<62)) * dev.ISAScale)
	if totalWarp > enteredWarp && res.SimWarpInstrs > 0 && simCycles > 0 {
		res.Truncated = true
		prefixWarpIPC := float64(res.SimWarpInstrs) / float64(simCycles)
		remaining := float64(totalWarp - enteredWarp)
		res.ProjCycles += int64(remaining / prefixWarpIPC)
		res.ProjCycles += int64(w.N-res.KernelsSimulated) * silicon.KernelLaunchOverheadCycles
	}
	finalize(res, threadInstrs, dramWeighted, simCycles)
	return res, nil
}

// finalize derives the aggregate IPC and DRAM utilization from the
// simulated-cycle-weighted accumulators.
func finalize(res *Result, threadInstrs, dramWeighted float64, simCycles int64) {
	if simCycles <= 0 {
		return
	}
	res.IPC = threadInstrs / float64(simCycles)
	res.DRAMUtil = dramWeighted / float64(simCycles)
}

// SiliconTotal executes the workload on the silicon model and returns the
// application total (kernel cycles plus launch overheads) — the ground
// truth every simulation error is measured against. It is a scan that asks
// for the silicon total alone (see ScanLaunches).
func SiliconTotal(dev gpu.Device, w *workload.Workload) (silicon.AppResult, error) {
	sc, err := ScanLaunches(dev, w, Want{Silicon: true})
	return sc.Silicon, err
}
