// Package sampling is the kernel-task layer every simulation policy the
// paper compares runs on: a KernelTask per launch (full simulation, 1B's cut
// launch, TBPoint's block prefix, PKS and PKA), resolved through Exec's tier
// ladder and an evaluation's Pack (its passes, their riders and its memo),
// and the scans, plans and budgets around them — ScanLaunches, PlanFirstN
// for the "simulate the first N instructions" heuristic (N = 1 billion in
// the paper's Figure 7/8 comparison), the full-simulation and 1B budgets,
// and the silicon total every error is measured against. core folds the
// outcomes into application results.
//
// 1B budgets by nominal counts: a launch fits while the running sum of
// TotalWarpInstructions stays within N, so its plan (PlanFirstN) is known
// before anything is simulated and its tasks can ride another pass. A
// completed kernel may issue a different count (per-warp rounding off Volta,
// BlockImbalance), and 1B's simulated prefix differs from N by that much.
package sampling

import (
	"errors"

	"pka/internal/gpu"
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
