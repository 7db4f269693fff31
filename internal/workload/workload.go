// Package workload synthesizes the 147 GPU workloads the paper studies
// across six suites: Rodinia, Parboil, Polybench, CUTLASS, DeepBench, and
// MLPerf. Real CUDA binaries cannot run here, so each workload reproduces
// the *kernel-launch structure* of its namesake — how many kernels launch,
// with what grid/block shapes, instruction mixes, coalescing, divergence
// and imbalance — which is the only thing Principal Kernel Analysis ever
// observes (see DESIGN.md for the substitution argument).
//
// Workloads are index-generated: kernel i is produced on demand, so
// MLPerf-style applications with hundreds of thousands of launches stream
// in O(1) memory through profiling, classification, and execution.
package workload

import (
	"fmt"

	"pka/internal/trace"
)

// Workload is one benchmark application: a named, deterministic stream of
// kernel launches.
type Workload struct {
	Suite string
	Name  string
	// N is the number of kernel launches.
	N int
	// Gen produces the i-th kernel (0 <= i < N). Implementations need not
	// set ID; the accessors stamp it.
	Gen func(i int) trace.KernelDesc
	// Quirk marks workloads whose profiling and tracing runs launch
	// mismatched kernel sequences on real systems, which the paper
	// excludes from some result columns ("*" cells in Table 4):
	//
	//	"trace-mismatch"       — myocyte: tracing ran a different kernel count
	//	"cudnn-autotune"       — DeepBench conv training (CUDA): the profiler
	//	                         perturbs cudnnFind* algorithm choice, so no
	//	                         simulation columns exist
	//	"cudnn-autotune-tc"    — DeepBench conv training (TensorCore): same
	//	                         effect on Turing/Ampere silicon runs
	Quirk string
}

// FullName returns "suite/name".
func (w *Workload) FullName() string { return w.Suite + "/" + w.Name }

// Kernel returns launch i with its ID stamped. It panics on out-of-range
// indices, which indicate a harness bug.
func (w *Workload) Kernel(i int) trace.KernelDesc {
	if i < 0 || i >= w.N {
		panic(fmt.Sprintf("workload %s: kernel index %d out of range [0,%d)", w.FullName(), i, w.N))
	}
	k := w.Gen(i)
	k.ID = i
	return k
}

// Iterator returns a fresh streaming cursor over the launches. Each call
// restarts from kernel 0; the cursor returns nil at end of stream.
func (w *Workload) Iterator() func() *trace.KernelDesc {
	i := 0
	return func() *trace.KernelDesc {
		if i >= w.N {
			return nil
		}
		k := w.Kernel(i)
		i++
		return &k
	}
}

// Kernels materializes every launch. Intended for the classic suites;
// MLPerf-scale workloads should stream via Iterator.
func (w *Workload) Kernels() []trace.KernelDesc {
	out := make([]trace.KernelDesc, w.N)
	for i := range out {
		out[i] = w.Kernel(i)
	}
	return out
}

// ApproxWarpInstructions sums Volta-ISA warp instructions across launches,
// stopping once the sum exceeds limit (returning limit+1 semantics: any
// value > limit means "at least this big"). Use it to decide full-
// simulation feasibility without walking millions of kernels.
func (w *Workload) ApproxWarpInstructions(limit int64) int64 {
	var sum int64
	for i := 0; i < w.N; i++ {
		k := w.Kernel(i)
		sum += k.VoltaWarpInstructions()
		if sum > limit {
			return sum
		}
	}
	return sum
}

// Validate checks every kernel of the workload (capped at the first
// maxKernels to keep huge streams cheap; pass 0 to check everything).
func (w *Workload) Validate(maxKernels int) error {
	n := w.N
	if maxKernels > 0 && n > maxKernels {
		n = maxKernels
	}
	for i := 0; i < n; i++ {
		k := w.Kernel(i)
		if err := k.Validate(); err != nil {
			return fmt.Errorf("workload %s kernel %d: %w", w.FullName(), i, err)
		}
	}
	return nil
}

// All returns every workload in the study, grouped suite by suite in the
// order the paper's Table 4 lists them. The slice is freshly allocated;
// callers may reorder it.
func All() []*Workload {
	var out []*Workload
	out = append(out, Rodinia()...)
	out = append(out, Parboil()...)
	out = append(out, Polybench()...)
	out = append(out, Cutlass()...)
	out = append(out, DeepBench()...)
	out = append(out, MLPerf()...)
	return out
}

// BySuite returns the workloads of one suite ("Rodinia", "Parboil",
// "Polybench", "Cutlass", "DeepBench", "MLPerf"), or nil for an unknown
// suite name.
func BySuite(suite string) []*Workload {
	switch suite {
	case "Rodinia":
		return Rodinia()
	case "Parboil":
		return Parboil()
	case "Polybench":
		return Polybench()
	case "Cutlass":
		return Cutlass()
	case "DeepBench":
		return DeepBench()
	case "MLPerf":
		return MLPerf()
	default:
		return nil
	}
}

// Find returns the workload with the given full name ("suite/name"), or
// nil if absent.
func Find(fullName string) *Workload {
	for _, w := range All() {
		if w.FullName() == fullName {
			return w
		}
	}
	return nil
}
