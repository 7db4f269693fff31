// Streaming evaluation: the incremental counterpart of Plan.Evaluate, and
// the one streaming pipeline — pka -stream and pkaserve's /v1/stream both
// run it. Kernel launch events are pushed one at a time; profiling and
// advisory clustering run as they arrive (pks.Stream), and likely
// representatives are dispatched speculatively down the Exec ladder, under
// the plan's tasks, while later events are still being profiled. Finish
// reconciles: the stream's Finalize produces a selection byte-identical to
// batch pks.Select, the plan's evaluation folds outcomes in launch order,
// and the speculative warms are scored — every cache hit on a speculative
// warm is pure wall-clock overlap, and a rep demoted by a late cluster
// revision cost only the work it simulated.
package core

import (
	"errors"
	"fmt"
	"io"

	"pka/internal/pks"
	"pka/internal/sampling"
	"pka/internal/trace"
	"pka/internal/workload"
)

// specWorkers bounds a stream's concurrent speculative simulations.
const specWorkers = 2

// StreamRunner drives one workload's streaming evaluation under a plan.
type StreamRunner struct {
	cfg  Config
	plan Plan

	suite, name string
	kernels     []trace.KernelDesc
	stream      *pks.Stream
	spec        *sampling.Speculator
	tasks       []sampling.KernelTask // the plan's sampled tasks, TaskKey-exact

	events    int        // launches pushed
	resweeps  int        // advisory revisions as of the last push
	revisions []Revision // one per push that revised the advisory clusters

	warmFull bool  // the plan's full pass is warmed while the launches fit its budget
	fullWork int64 // cumulative approx warp instrs, gates full-sim warming
}

// Revision is one advisory cluster revision as intake saw it: the launches
// pushed and the kernels detail-profiled by then, and the revisions so far.
type Revision struct{ Events, Detailed, Resweeps int }

// NewStreamRunner starts a streaming evaluation, under plan, of a workload
// named suite/name with n kernel launches. The plan's sampled passes name
// the tasks warmed for likely representatives, and a full pass warms every
// launch's full-simulation task while the workload stays inside the full-sim
// budget (past it the workload is infeasible and the warms would be pure
// waste). Speculation engages only when cfg.Exec is non-nil — without an
// Exec there is no cache to warm.
func NewStreamRunner(cfg Config, plan Plan, suite, name string, n int) (*StreamRunner, error) {
	return newStreamRunner(cfg, plan, suite, name, n, pks.StreamOptions{})
}

// newStreamRunner is NewStreamRunner with the advisory half's reorder window,
// warm-up and re-sweep cadence taken from so; the tests force cluster
// revisions through it. The runner sets so's Select, Speculate and Metrics.
func newStreamRunner(cfg Config, plan Plan, suite, name string, n int, so pks.StreamOptions) (*StreamRunner, error) {
	r := &StreamRunner{cfg: cfg, plan: plan, suite: suite, name: name, warmFull: plan.has(sampling.ModeFull)}
	// The speculative task specs must be byte-for-byte the tasks the sampled
	// passes will fold, or the content keys won't match and warming buys
	// nothing.
	for _, usePKP := range plan.sampled() {
		r.tasks = append(r.tasks, sampling.SampledTask(cfg.KernelCapCycles, cfg.PKP, usePKP))
	}
	so.Select = cfg.PKSOptions()
	so.Metrics = cfg.Obs.StreamMetrics()
	if cfg.Exec != nil {
		r.spec = sampling.NewSpeculator(cfg.Exec, cfg.Device, r.tasks, specWorkers)
		so.Speculate = func(k trace.KernelDesc) { r.spec.Speculate(k) }
	}
	stream, err := pks.NewStream(cfg.Device, suite, name, n, so)
	if err != nil {
		return nil, err
	}
	r.stream = stream
	r.kernels = make([]trace.KernelDesc, n)
	return r, nil
}

// Push feeds one kernel launch event (k.ID is the launch index; arrival
// order may vary within the stream's reorder window). A failed push ends
// the stream: its warms are waited out before the error returns.
func (r *StreamRunner) Push(k trace.KernelDesc) error {
	if err := r.stream.Push(k); err != nil {
		r.settle()
		return err
	}
	r.kernels[k.ID] = k
	r.events++
	if rs := r.stream.Resweeps(); rs != r.resweeps {
		r.resweeps = rs
		r.revisions = append(r.revisions, Revision{Events: r.events, Detailed: r.stream.DetailedSoFar(), Resweeps: rs})
	}
	if r.spec != nil && r.warmFull {
		budget := r.cfg.FullSimBudget
		if budget <= 0 {
			budget = sampling.DefaultFullSimBudget
		}
		r.fullWork += k.VoltaWarpInstructions()
		if r.warmFull = r.fullWork <= budget; r.warmFull {
			r.spec.Speculate(k, sampling.KernelTask{Mode: sampling.ModeFull})
		}
	}
	return nil
}

// settle seals the speculator and waits out its warms. Every exit of the
// runner runs it, so no speculative simulation outlives the stream it was
// dispatched for.
func (r *StreamRunner) settle() {
	if r.spec != nil {
		r.spec.Seal()
		r.spec.Wait()
	}
}

// StreamResult is a finished streaming evaluation plus the speculation
// scorecard.
type StreamResult struct {
	*Evaluation
	Spec sampling.SpecStats
	// Resweeps is how many advisory cluster revisions ran.
	Resweeps int
}

// Finish reconciles the stream and completes the evaluation; call it even
// to abandon a stream, since it is what waits out the warms. The returned
// Evaluation is byte-identical to the plan's Evaluate on the same workload
// and config: the stream's Finalize replays the exact batch selection over
// its buffered records, and the fold only ever reads outcomes from the
// content-keyed ladder, where a speculative warm and a fresh simulation are
// indistinguishable.
func (r *StreamRunner) Finish() (*StreamResult, error) {
	defer r.settle()
	sel, err := r.stream.Finalize()
	if err != nil {
		return nil, err
	}
	w, err := workload.FromKernels(r.suite, r.name, r.kernels)
	if err != nil {
		return nil, err
	}
	if r.spec != nil {
		// Final reconciliation warming: the elected reps' sampled tasks are
		// what the fold is about to need — launch them (duplicates of
		// earlier warms dedupe away) before marking the overlap cutoff.
		for _, g := range sel.Groups {
			r.spec.Speculate(r.kernels[g.RepIndex])
		}
		r.spec.Seal()
	}
	ev, err := r.plan.Evaluate(r.cfg, w, sel)
	if err != nil {
		return nil, err
	}
	out := &StreamResult{Evaluation: ev, Resweeps: r.stream.Resweeps()}
	if r.spec != nil {
		r.spec.Wait()
		// Score against the keys the fold actually consumed: the elected
		// reps' sampled tasks, plus every kernel's full-sim task when the
		// full simulation ran.
		finalKeys := map[string]bool{}
		for _, g := range sel.Groups {
			k := r.kernels[g.RepIndex]
			for _, task := range r.tasks {
				finalKeys[sampling.TaskKey(r.cfg.Device, &k, task)] = true
			}
		}
		if ev.Full != nil {
			for i := range r.kernels {
				finalKeys[sampling.TaskKey(r.cfg.Device, &r.kernels[i], sampling.KernelTask{Mode: sampling.ModeFull})] = true
			}
		}
		out.Spec = r.spec.Resolve(finalKeys)
	}
	if m := r.cfg.Obs.StreamMetrics(); m != nil {
		m.Speculated.Add(int64(out.Spec.Launched))
		m.SpecHits.Add(int64(out.Spec.Hits))
		m.SpecWastedInstr.Add(out.Spec.WastedWarpInstrs)
		m.OverlapFraction.Set(out.Spec.OverlapFraction)
	}
	return out, nil
}

// RunStream evaluates a workload under plan through the streaming pipeline,
// pushing its launches in order — the in-process equivalent of feeding
// pka -stream an event file. Plan.Evaluate and RunStream return identical
// Evaluations.
func RunStream(cfg Config, plan Plan, w *workload.Workload) (*StreamResult, error) {
	return runStream(cfg, plan, w, pks.StreamOptions{})
}

// runStream is RunStream with newStreamRunner's advisory knobs.
func runStream(cfg Config, plan Plan, w *workload.Workload, so pks.StreamOptions) (*StreamResult, error) {
	if w == nil {
		return nil, errors.New("core: nil workload")
	}
	r, err := newStreamRunner(cfg, plan, w.Suite, w.Name, w.N, so)
	if err != nil {
		return nil, err
	}
	for i := 0; i < w.N; i++ {
		if err := r.Push(w.Kernel(i)); err != nil {
			return nil, err
		}
	}
	return r.Finish()
}

// RunEvents evaluates the NDJSON kernel-event stream dec under plan: the
// header names the workload (callers may read it first), every event is
// pushed into a StreamRunner as it is decoded, and a stream that ends with
// launches missing is an error. intake, when non-nil, is called once the
// last event is in — before the reconciliation, where the wall-clock goes —
// with the cluster revisions the intake saw. However RunEvents returns, no
// speculative warm of the stream is still running.
func RunEvents(cfg Config, plan Plan, dec *workload.EventDecoder, intake func([]Revision)) (*StreamResult, error) {
	h, err := dec.Header()
	if err != nil {
		return nil, err
	}
	r, err := NewStreamRunner(cfg, plan, h.Suite, h.Name, h.Kernels)
	if err != nil {
		return nil, err
	}
	for {
		k, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err == nil {
			err = r.Push(k)
		}
		if err != nil {
			r.settle()
			return nil, err
		}
	}
	if n := dec.Missing(); n > 0 {
		r.settle()
		return nil, fmt.Errorf("core: event stream ended with %d of %d launches missing", n, h.Kernels)
	}
	if intake != nil {
		intake(r.revisions)
	}
	return r.Finish()
}
