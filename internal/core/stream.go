// Streaming evaluation: the incremental counterpart of Plan.Evaluate, and
// the one streaming pipeline — pka -stream and pkaserve's /v1/stream both
// run it. Kernel launch events are pushed one at a time into a pks.Stream,
// which profiles them in launch order as they arrive; once the last is in,
// its Finalize produces a selection byte-identical to batch pks.Select, and
// the plan's Evaluate runs on that selection. A streamed study therefore
// simulates exactly what the batch study does.
package core

import (
	"errors"
	"fmt"
	"io"

	"pka/internal/pks"
	"pka/internal/trace"
	"pka/internal/workload"
)

// newStream starts the selection stream of a workload named suite/name with
// n kernel launches.
func newStream(cfg Config, suite, name string, n int) (*pks.Stream, error) {
	return pks.NewStream(cfg.Device, suite, name, n, pks.StreamOptions{Select: cfg.PKSOptions(), Metrics: cfg.Obs.StreamMetrics()})
}

// RunStream evaluates a workload under plan through the streaming pipeline,
// pushing its launches in order — the in-process equivalent of feeding
// pka -stream an event file. Plan.Evaluate and RunStream return identical
// Evaluations.
func RunStream(cfg Config, plan Plan, w *workload.Workload) (*Evaluation, error) {
	if w == nil {
		return nil, errors.New("core: nil workload")
	}
	s, err := newStream(cfg, w.Suite, w.Name, w.N)
	if err != nil {
		return nil, err
	}
	for i := 0; i < w.N; i++ {
		if err := s.Push(w.Kernel(i)); err != nil {
			return nil, err
		}
	}
	sel, err := s.Finalize()
	if err != nil {
		return nil, err
	}
	return plan.Evaluate(cfg, w, sel)
}

// RunEvents evaluates the NDJSON kernel-event stream dec under plan: the
// header names the workload (callers may read it first), every event is
// pushed into a pks.Stream as it is decoded, and a stream that ends with
// launches missing is an error. intake, when non-nil, is called once the
// selection is final — before the plan's passes, where the wall-clock goes —
// with the events pushed and the kernels profiled in detail.
func RunEvents(cfg Config, plan Plan, dec *workload.EventDecoder, intake func(events, detailed int)) (*Evaluation, error) {
	h, err := dec.Header()
	if err != nil {
		return nil, err
	}
	s, err := newStream(cfg, h.Suite, h.Name, h.Kernels)
	if err != nil {
		return nil, err
	}
	kernels := make([]trace.KernelDesc, h.Kernels)
	for {
		k, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err == nil {
			err = s.Push(k)
		}
		if err != nil {
			return nil, err
		}
		kernels[k.ID] = k
	}
	if n := dec.Missing(); n > 0 {
		return nil, fmt.Errorf("core: event stream ended with %d of %d launches missing", n, h.Kernels)
	}
	sel, err := s.Finalize()
	if err != nil {
		return nil, err
	}
	if intake != nil {
		intake(h.Kernels, sel.DetailedKernels)
	}
	w, err := workload.FromKernels(h.Suite, h.Name, kernels)
	if err != nil {
		return nil, err
	}
	return plan.Evaluate(cfg, w, sel)
}
