// Streaming evaluation: the incremental counterpart of Evaluate. Kernel
// launch events are pushed one at a time; profiling and advisory
// clustering run as they arrive (pks.Stream), and likely representatives
// are dispatched speculatively down the Exec ladder while later events are
// still being profiled. Finish reconciles: the stream's Finalize produces
// a selection byte-identical to batch pks.Select, the speculative warms
// are scored, and the complete plan's evaluation folds outcomes in launch
// order — every cache hit on a speculative warm is pure wall-clock overlap,
// and a rep demoted by a late cluster revision cost only the work it
// simulated.
package core

import (
	"errors"
	"fmt"

	"pka/internal/pks"
	"pka/internal/sampling"
	"pka/internal/trace"
	"pka/internal/workload"
)

// StreamOptions tunes the streaming pipeline. The zero value is a sensible
// default; none of these knobs can change results, only wall-clock.
type StreamOptions struct {
	// Window, MinDetailed, ResweepDegradePct, and ResweepEvery pass
	// through to pks.StreamOptions.
	Window            int
	MinDetailed       int
	ResweepDegradePct float64
	ResweepEvery      int
	// SpecWorkers bounds concurrent speculative simulations. Zero applies 2.
	SpecWorkers int
	// NoFullSpeculate disables warming full-simulation kernel tasks while
	// events arrive. By default every event's ModeFull task is warmed as
	// long as the cumulative workload mass stays inside the full-sim
	// budget (past it the workload is infeasible and the warms would be
	// pure waste).
	NoFullSpeculate bool
}

// StreamRunner drives one workload's streaming evaluation.
type StreamRunner struct {
	cfg  Config
	opts StreamOptions

	suite, name string
	n           int
	kernels     []trace.KernelDesc
	stream      *pks.Stream
	spec        *sampling.Speculator
	tasks       []sampling.KernelTask // sampled-mode task specs, TaskKey-exact

	fullTask sampling.KernelTask
	fullWork int64 // cumulative approx warp instrs, gates full-sim warming
	fullStop bool
}

// NewStreamRunner starts a streaming evaluation of a workload named
// suite/name with n kernel launches. Speculation engages only when
// cfg.Exec is non-nil — without an Exec there is no cache to warm.
func NewStreamRunner(cfg Config, suite, name string, n int, opts StreamOptions) (*StreamRunner, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: stream needs at least one kernel, got %d", n)
	}
	if opts.SpecWorkers <= 0 {
		opts.SpecWorkers = 2
	}
	r := &StreamRunner{
		cfg:      cfg,
		opts:     opts,
		suite:    suite,
		name:     name,
		n:        n,
		kernels:  make([]trace.KernelDesc, n),
		fullTask: sampling.KernelTask{Mode: sampling.ModeFull},
	}

	// The speculative task specs must be byte-for-byte the tasks the sampled
	// passes will fold, or the content keys won't match and warming buys
	// nothing.
	r.tasks = []sampling.KernelTask{
		sampling.SampledTask(cfg.KernelCapCycles, cfg.PKP, false),
		sampling.SampledTask(cfg.KernelCapCycles, cfg.PKP, true),
	}

	so := pks.StreamOptions{
		Select:            cfg.PKSOptions(),
		Window:            opts.Window,
		MinDetailed:       opts.MinDetailed,
		ResweepDegradePct: opts.ResweepDegradePct,
		ResweepEvery:      opts.ResweepEvery,
	}
	if cfg.Obs != nil {
		so.Metrics = cfg.Obs.StreamMetrics()
	}
	if cfg.Exec != nil {
		r.spec = sampling.NewSpeculator(cfg.Exec, cfg.Device, r.tasks, opts.SpecWorkers)
		so.Speculate = func(k trace.KernelDesc) { r.spec.Speculate(k) }
	}
	stream, err := pks.NewStream(cfg.Device, suite, name, n, so)
	if err != nil {
		return nil, err
	}
	r.stream = stream
	return r, nil
}

// Push feeds one kernel launch event (k.ID is the launch index; arrival
// order may vary within the stream's reorder window).
func (r *StreamRunner) Push(k trace.KernelDesc) error {
	if err := r.stream.Push(k); err != nil {
		return err
	}
	r.kernels[k.ID] = k
	// Warm the full-simulation ladder too, while the workload still fits
	// the budget the reconciliation's full-sim stage will enforce.
	if r.spec != nil && !r.opts.NoFullSpeculate && !r.fullStop {
		budget := r.cfg.FullSimBudget
		if budget <= 0 {
			budget = sampling.DefaultFullSimBudget
		}
		r.fullWork += k.VoltaWarpInstructions()
		if r.fullWork > budget {
			r.fullStop = true
		} else {
			r.spec.Speculate(k, r.fullTask)
		}
	}
	return nil
}

// StreamResult is a finished streaming evaluation plus the speculation
// scorecard.
type StreamResult struct {
	*Evaluation
	Spec sampling.SpecStats
	// Resweeps is how many advisory cluster revisions ran.
	Resweeps int
}

// Finish reconciles the stream and completes the evaluation. The returned
// Evaluation is byte-identical to Evaluate on the same workload and
// config: the stream's Finalize replays the exact batch selection over
// its buffered records, and the fold only ever reads outcomes from the
// content-keyed ladder, where a speculative warm and a fresh simulation
// are indistinguishable.
func (r *StreamRunner) Finish() (*StreamResult, error) {
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

	ev, err := CompletePlan().Evaluate(r.cfg, w, sel)
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
				finalKeys[sampling.TaskKey(r.cfg.Device, &r.kernels[i], r.fullTask)] = true
			}
		}
		out.Spec = r.spec.Resolve(finalKeys)
	}
	if r.cfg.Obs != nil {
		if m := r.cfg.Obs.StreamMetrics(); m != nil {
			m.Speculated.Add(int64(out.Spec.Launched))
			m.SpecHits.Add(int64(out.Spec.Hits))
			m.SpecWastedInstr.Add(out.Spec.WastedWarpInstrs)
			m.OverlapFraction.Set(out.Spec.OverlapFraction)
		}
	}
	return out, nil
}

// RunStream evaluates a workload end-to-end through the streaming
// pipeline, pushing its launches in order — the in-process equivalent of
// feeding pka -stream an event file. Evaluate and RunStream return
// identical Evaluations.
func RunStream(cfg Config, w *workload.Workload, opts StreamOptions) (*StreamResult, error) {
	if w == nil {
		return nil, errors.New("core: nil workload")
	}
	r, err := NewStreamRunner(cfg, w.Suite, w.Name, w.N, opts)
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
