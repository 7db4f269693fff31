// Package sampling provides the non-PKA simulation policies the paper
// compares against: full simulation of every kernel, and the widely used
// "simulate the first N instructions" heuristic (N = 1 billion in the
// paper's Figure 7/8 comparison).
//
// 1B budgets by nominal counts: a launch fits while the running sum of
// TotalWarpInstructions stays within N, so its plan (PlanFirstN) is known
// before anything is simulated and its tasks can ride another pass. A
// completed kernel may issue a different count (per-warp rounding off Volta,
// BlockImbalance), and 1B's simulated prefix differs from N by that much.
package sampling

import (
	"errors"
	"fmt"

	"pka/internal/gpu"
	"pka/internal/silicon"
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
	res, _ := foldLaunches(outs)
	return res, nil
}

// FirstN runs the first-N-instructions baseline serially and uncached, one
// fresh simulator per task: the standard "first billion instructions"
// methodology, warmup bias and all. Zero applies DefaultFirstN.
func FirstN(dev gpu.Device, w *workload.Workload, nWarpInstrs int64) (*Result, error) {
	mass := int64(float64(w.ApproxWarpInstructions(1<<62)) * dev.ISAScale)
	return (*Exec)(nil).FirstNOf(dev, w.FullName(), PlanFirstN(dev, w, nil, nWarpInstrs), mass, nil, nil, nil)
}

// FirstNPlan is the first-N-instructions baseline (budget N) over one
// workload's Launches launches, as kernel tasks: the launches that fit the
// budget whole, in launch order — ModeFull tasks, the full baseline's own —
// and the one that crosses it, run as Task (none when the budget covers the
// workload or ends on a launch boundary).
type FirstNPlan struct {
	Whole, Cut []trace.KernelDesc
	Task       KernelTask
	N          int64
	Launches   int
}

// PlanFirstN plans the first nWarpInstrs warp instructions of w on dev (zero
// applies DefaultFirstN) by the nominal counts the package doc describes.
// launches is w.Kernels() where the caller holds it (a Scan's, only read),
// nil to generate the launches the plan needs.
func PlanFirstN(dev gpu.Device, w *workload.Workload, launches []trace.KernelDesc, nWarpInstrs int64) FirstNPlan {
	if nWarpInstrs <= 0 {
		nWarpInstrs = DefaultFirstN
	}
	p := FirstNPlan{N: nWarpInstrs, Launches: w.N}
	for i, left := 0, nWarpInstrs; i < w.N; i++ {
		var k trace.KernelDesc
		if launches != nil {
			k = launches[i]
		} else {
			k = w.Kernel(i)
		}
		mass := k.TotalWarpInstructions(dev)
		if mass > left {
			if left > 0 {
				p.Cut, p.Task = []trace.KernelDesc{k}, KernelTask{Mode: ModeFirstN, WarpBudget: left}
			}
			break
		}
		left -= mass
		p.Whole = append(p.Whole, k)
	}
	return p
}

// FirstNOf runs plan p of the workload called name — the whole launches, then
// the cut one, each with its wiring (nil for none), with the evaluation's
// bank — and folds it as FullSimOf does (bit for bit, when p covers the
// workload), then holds the prefix's warp IPC over the rest of the
// workload's mass and adds the overhead of every launch never entered.
func (e *Exec) FirstNOf(dev gpu.Device, name string, p FirstNPlan, mass int64, whole, cut func(i int) TaskObs, bank *Bank) (*Result, error) {
	outs, err := e.RunKernels(dev, KernelTask{Mode: ModeFull}, p.Whole, whole, bank)
	if err == nil {
		var last []KernelOutcome
		last, err = e.RunKernels(dev, p.Task, p.Cut, cut, bank)
		outs = append(outs, last...)
	}
	if err != nil {
		return nil, fmt.Errorf("sampling: first-N sim of %s: %w", name, err)
	}
	res, simCycles := foldLaunches(outs)
	if len(p.Whole) == p.Launches {
		return res, nil
	}
	res.Truncated = true
	if past := mass - p.N; past > 0 && res.SimWarpInstrs > 0 && simCycles > 0 {
		prefixWarpIPC := float64(res.SimWarpInstrs) / float64(simCycles)
		res.ProjCycles += int64(float64(past) / prefixWarpIPC)
		res.ProjCycles += int64(p.Launches-res.KernelsSimulated) * silicon.KernelLaunchOverheadCycles
	}
	return res, nil
}

// foldLaunches folds per-launch outcomes in launch order: each launch's
// cycles plus its launch overhead. It also returns the simulated cycles.
func foldLaunches(outs []KernelOutcome) (*Result, int64) {
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
	return res, simCycles
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
