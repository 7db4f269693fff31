// Streaming evaluation: an event stream is one more way to build a workload.
// pka -stream and pkaserve's /v1/stream both run RunEvents, which decodes
// every kernel launch event, rebuilds the workload with workload.FromKernels,
// selects through Select — so a streamed study reads and writes the
// selection artifact a study of the same launches does — and evaluates the
// plan on that selection. A streamed study therefore simulates exactly what
// the batch study does, whatever order its events arrived in.
package core

import (
	"fmt"
	"io"

	"pka/internal/trace"
	"pka/internal/workload"
)

// RunEvents evaluates the NDJSON kernel-event stream dec under plan: the
// header names the workload (callers may read it first), every event is
// decoded and counted in pka_stream_events_total, and a stream that ends
// with launches missing is an error. intake, when non-nil, is called once
// the selection is resolved — before the plan's passes, where the
// wall-clock goes — with the events decoded and the kernels profiled in
// detail.
func RunEvents(cfg Config, plan Plan, dec *workload.EventDecoder, intake func(events, detailed int)) (*Evaluation, error) {
	h, err := dec.Header()
	if err != nil {
		return nil, err
	}
	metrics := cfg.Obs.StreamMetrics()
	kernels := make([]trace.KernelDesc, h.Kernels)
	for {
		k, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if metrics != nil {
			metrics.Events.Inc()
		}
		kernels[k.ID] = k
	}
	if n := dec.Missing(); n > 0 {
		return nil, fmt.Errorf("core: event stream ended with %d of %d launches missing", n, h.Kernels)
	}
	w, err := workload.FromKernels(h.Suite, h.Name, kernels)
	if err != nil {
		return nil, err
	}
	sel, err := Select(cfg, w)
	if err != nil {
		return nil, err
	}
	if intake != nil {
		intake(h.Kernels, sel.DetailedKernels)
	}
	return plan.Evaluate(cfg, w, sel)
}
