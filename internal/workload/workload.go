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
	"slices"
	"sync"

	"pka/internal/trace"
)

// Workload is one benchmark application: a named, deterministic stream of
// kernel launches. Build one with New, which fixes its launch generator for
// life; that is what lets it remember answers derived from its launches (see
// Recall). A workload from All, BySuite or Find is shared by every caller:
// copy the struct to vary a field, never assign to the shared one.
type Workload struct {
	Suite string
	Name  string
	// N is the number of kernel launches.
	N int
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

	gen  func(i int) trace.KernelDesc
	memo *memo // shared by struct copies, hence keyed by N, Suite and Name too
}

// New returns the workload suite/name of n launches, launch i produced by
// gen(i) for 0 <= i < n; gen need not set ID, the accessors stamp it. It
// panics on n < 0 or a nil gen, which indicate a harness bug.
func New(suite, name string, n int, gen func(i int) trace.KernelDesc) *Workload {
	if n < 0 || gen == nil {
		panic(fmt.Sprintf("workload %s/%s: New needs n >= 0 (got %d) and a generator (nil: %v)", suite, name, n, gen == nil))
	}
	return &Workload{Suite: suite, Name: name, N: n, gen: gen, memo: &memo{}}
}

// memoCap bounds a workload's memo. When it is full it is dropped whole, the
// simulator's pattern-cache policy: that costs the next caller of each
// evicted entry one walk and cannot change an answer, because an entry is a
// pure function of its key and the generator. A study leaves a few entries
// (its scan, sampling's pack key, digest and task keys), and one no one asked
// for before (a fresh PKP threshold) three, so a drop comes once in about
// twenty of those.
const memoCap = 64

type memoKey struct {
	suite, name string
	n           int
	what        string
}

type memo struct {
	sync.Mutex
	m map[memoKey]any
}

// Recall returns what Remember last stored on w under what, if the memo still
// holds it. The entry is keyed by what together with w's Suite, Name and N,
// so a struct copy that changes one of them — copies share the memo — never
// sees the original's entries; the generator, fixed by New, cannot differ
// between the two. Safe for concurrent use.
func (w *Workload) Recall(what string) (any, bool) {
	w.memo.Lock()
	defer w.memo.Unlock()
	v, ok := w.memo.m[memoKey{w.Suite, w.Name, w.N, what}]
	return v, ok
}

// Remember stores v on w under what (see Recall). v must be a pure function of
// what and w's launches, and is handed out shared by every later Recall, so
// it must never be mutated once stored. Callers name their entries after
// their package ("sampling.scan…"); this package's own is "mass".
func (w *Workload) Remember(what string, v any) {
	w.memo.Lock()
	defer w.memo.Unlock()
	if w.memo.m == nil || len(w.memo.m) >= memoCap {
		w.memo.m = make(map[memoKey]any)
	}
	w.memo.m[memoKey{w.Suite, w.Name, w.N, what}] = v
}

// FullName returns "suite/name".
func (w *Workload) FullName() string { return w.Suite + "/" + w.Name }

// Kernel returns launch i with its ID stamped. It panics on out-of-range
// indices, which indicate a harness bug.
func (w *Workload) Kernel(i int) trace.KernelDesc {
	if i < 0 || i >= w.N {
		panic(fmt.Sprintf("workload %s: kernel index %d out of range [0,%d)", w.FullName(), i, w.N))
	}
	k := w.gen(i)
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
// simulation feasibility without walking millions of kernels. A walk that
// reaches the last launch remembers the total, so a later call whose limit
// admits it walks nothing.
func (w *Workload) ApproxWarpInstructions(limit int64) int64 {
	if v, ok := w.Recall("mass"); ok && v.(int64) <= limit {
		return v.(int64)
	}
	var sum int64
	for i := 0; i < w.N; i++ {
		k := w.Kernel(i)
		sum += k.VoltaWarpInstructions()
		if sum > limit {
			return sum
		}
	}
	w.Remember("mass", sum)
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

// catalogue is the study set, built on first use and shared from then on, so
// All, BySuite and Find hand every caller the same *Workload for a name and
// what one study remembers on it serves the next.
var catalogue = sync.OnceValue(func() (c studySet) {
	for _, suite := range [...]func() []*Workload{rodinia, parboil, polybench, cutlass, deepBench, mlperf} {
		c.all = append(c.all, suite()...)
	}
	c.byName = make(map[string]*Workload, len(c.all))
	for _, w := range c.all {
		c.byName[w.FullName()] = w
	}
	return c
})

type studySet struct {
	all    []*Workload
	byName map[string]*Workload
}

// All returns every workload in the study, grouped suite by suite in the
// order the paper's Table 4 lists them. The slice is freshly allocated;
// callers may reorder it.
func All() []*Workload { return slices.Clone(catalogue().all) }

// BySuite returns the workloads of one suite ("Rodinia", "Parboil",
// "Polybench", "Cutlass", "DeepBench", "MLPerf"), or nil for an unknown
// suite name.
func BySuite(suite string) []*Workload {
	var out []*Workload
	for _, w := range catalogue().all {
		if w.Suite == suite {
			out = append(out, w)
		}
	}
	return out
}

// Find returns the workload with the given full name ("suite/name"), or
// nil if absent.
func Find(fullName string) *Workload { return catalogue().byName[fullName] }
