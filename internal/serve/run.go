package serve

import (
	"bytes"
	"fmt"

	"pka/internal/core"
	"pka/internal/obs"
	"pka/internal/pkp"
	"pka/internal/pks"
	"pka/internal/sampling"
)

// Run executes one validated study request on the given Exec ladder and
// returns its response. It is a pure function of the request's study
// parameters: any exec (nil for serial uncached, or any mix of mem/disk/
// remote tiers) yields byte-identical responses, which is what lets the
// serving tier queue, reorder, and retry without changing results. The
// observer only adds telemetry, and tracing/provenance only append fields
// after the study results — every study field is byte-identical with them
// on or off.
func Run(exec *sampling.Exec, o *obs.Observer, req *StudyRequest) (*StudyResponse, error) {
	return RunWithSelection(exec, o, req, nil)
}

// studyModes maps a request's mode to the one pass its study plan makes.
var studyModes = map[string]sampling.TaskMode{"full": sampling.ModeFull, "pks": sampling.ModePKS, "pka": sampling.ModePKA}

// RunWithSelection is Run with a precomputed Principal Kernel Selection,
// as the streaming endpoint produces while events are still arriving. A
// nil sel is resolved as core.Select resolves it; because the streaming
// selection is byte-identical to the batch one by construction, the
// response is byte-identical either way. Full mode ignores sel. Every mode is
// one core.Plan evaluation: its one pass, and silicon when the request asks.
func RunWithSelection(exec *sampling.Exec, o *obs.Observer, req *StudyRequest, sel *pks.Selection) (*StudyResponse, error) {
	if req.w == nil {
		// Direct callers may build requests without going through
		// DecodeStudyRequest.
		if err := req.Validate(); err != nil {
			return nil, err
		}
	}
	// Tracing turns on when the client shipped a traceparent or asked in
	// the body; either way the request gets its own tracer so the merged
	// trace holds only this study's spans. Provenance recording turns on
	// with tracing (the root span reports tier counts), on request, or when
	// the server injected a recorder for its debug report.
	traced := req.Trace || req.parent.Valid()
	flight := req.flight
	if flight == nil && (traced || req.Provenance) {
		flight = sampling.NewFlightRecorder()
	}
	ids := req.ids
	if ids == nil && traced {
		ids = obs.NewIDGen(0)
	}
	var (
		tr   *obs.Tracer
		root *obs.Span
		tc   obs.TraceContext
	)
	if traced {
		tr = obs.NewTracer()
		tr.SetProcessName("pkaserve")
		if o != nil && o.Metrics != nil {
			tr.SetDropCounter(o.Metrics.Counter(
				"pka_trace_dropped_total", "trace events discarded at the tracer memory cap"))
		}
		if req.parent.Valid() {
			tc = req.parent.Child(ids)
		} else {
			tc = ids.NewTrace()
		}
		args := []obs.Arg{
			{Key: "trace_id", Val: tc.TraceID},
			{Key: "span_id", Val: tc.SpanID},
		}
		if req.parent.Valid() {
			args = append(args, obs.Arg{Key: "parent_id", Val: req.parent.SpanID})
		}
		args = append(args,
			obs.Arg{Key: "tenant", Val: req.Tenant},
			obs.Arg{Key: "mode", Val: req.Mode})
		root = tr.Track("serve").Start("study "+req.w.FullName(), args...)
	}
	resp := &StudyResponse{
		Workload: req.w.FullName(),
		Device:   req.Device,
		Mode:     req.Mode,
	}
	cfg := core.Config{
		Device:   req.dev,
		PKS:      pks.Options{TargetErrorPct: req.TargetErrorPct, MaxK: req.MaxK},
		PKP:      pkp.Options{Threshold: req.Threshold, Window: req.Window},
		Obs:      o,
		Exec:     exec,
		Trace:    tc,
		TraceIDs: ids,
		Tracer:   tr,
		Flight:   flight,
	}
	ev, err := core.Plan{Passes: []sampling.TaskMode{studyModes[req.Mode]}, Silicon: req.Silicon}.Evaluate(cfg, req.w, sel)
	if err != nil {
		root.End()
		return nil, fmt.Errorf("serve: %s study of %s: %w", req.Mode, req.w.FullName(), err)
	}
	if full := ev.Full; full != nil {
		resp.Kernels = full.KernelsSimulated
		resp.ProjCycles = full.ProjCycles
		resp.SimWarpInstrs = full.SimWarpInstrs
		resp.IPC = full.IPC
		resp.DRAMUtil = full.DRAMUtil
		resp.SimHours = ev.FullSimHours
		resp.Truncated = full.Truncated
		resp.ErrorPct = ev.FullErrorPct
	} else {
		ss := ev.PKS
		if req.Mode == "pka" {
			ss = ev.PKA
		}
		resp.K = ev.Selection.K
		resp.Kernels = len(ev.Selection.Groups)
		resp.ProjCycles = ss.ProjCycles
		resp.SimWarpInstrs = ss.SimWarpInstrs
		resp.IPC = ss.IPC
		resp.DRAMUtil = ss.DRAMUtil
		resp.SimHours = ss.SimHours
		resp.Capped = ss.Capped
		resp.ErrorPct = ss.ErrorPct
	}
	resp.SiliconCycles = ev.Silicon.Cycles
	if req.Provenance {
		resp.Provenance = &ProvenanceBlock{
			TraceID: tc.TraceID,
			Kernels: flight.Len(),
			Tiers:   flight.TierCounts(),
			Workers: flight.WorkerCounts(),
			Entries: flight.Entries(),
		}
	}
	if traced {
		root.Arg("kernels", resp.Kernels).End()
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			return nil, fmt.Errorf("serve: rendering trace: %w", err)
		}
		resp.Trace = buf.Bytes()
	}
	return resp, nil
}
