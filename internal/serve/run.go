package serve

import (
	"bytes"
	"fmt"

	"pka/internal/core"
	"pka/internal/obs"
	"pka/internal/pkp"
	"pka/internal/pks"
	"pka/internal/sampling"
	"pka/internal/silicon"
	"pka/internal/stats"
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

// RunWithSelection is Run with a precomputed Principal Kernel Selection,
// as the streaming endpoint produces while events are still arriving. A
// nil sel falls back to core.Select; because the streaming selection
// is byte-identical to the batch one by construction, the response is
// byte-identical either way. Full mode ignores sel.
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
	var sil silicon.AppResult
	silWalked := false // beside the selection
	switch req.Mode {
	case "full":
		var tobs func(i int) sampling.TaskObs
		if flight != nil {
			tobs = func(i int) sampling.TaskObs {
				return sampling.TaskObs{
					Flight: flight, Phase: "full", Index: i,
					Tracer: tr, Trace: tc, IDs: ids,
				}
			}
		}
		full, err := exec.FullSimObs(req.dev, req.w, 0, tobs)
		if err != nil {
			root.End()
			return nil, fmt.Errorf("serve: full sim of %s: %w", req.w.FullName(), err)
		}
		resp.Kernels = full.KernelsSimulated
		resp.ProjCycles = full.ProjCycles
		resp.SimWarpInstrs = full.SimWarpInstrs
		resp.IPC = full.IPC
		resp.DRAMUtil = full.DRAMUtil
		resp.Truncated = full.Truncated
	default: // "pks", "pka"
		if sel == nil {
			var err error
			if req.Silicon { // one walk for the selection's key and the total
				sel, sil, err = core.SelectSilicon(cfg, req.w)
				silWalked = true
			} else {
				sel, err = core.Select(cfg, req.w)
			}
			if err != nil {
				root.End()
				return nil, fmt.Errorf("serve: selection for %s: %w", req.w.FullName(), err)
			}
		}
		ss, err := core.RunSampled(cfg, req.w, sel, req.Mode == "pka")
		if err != nil {
			root.End()
			return nil, err
		}
		resp.K = sel.K
		resp.Kernels = len(sel.Groups)
		resp.ProjCycles = ss.ProjCycles
		resp.SimWarpInstrs = ss.SimWarpInstrs
		resp.IPC = ss.IPC
		resp.DRAMUtil = ss.DRAMUtil
		resp.Capped = ss.Capped
	}
	resp.SimHours = cfg.SimHours(resp.SimWarpInstrs)
	if req.Silicon {
		if !silWalked {
			var err error
			if sil, err = sampling.SiliconTotal(req.dev, req.w); err != nil {
				root.End()
				return nil, fmt.Errorf("serve: silicon walk of %s: %w", req.w.FullName(), err)
			}
		}
		resp.SiliconCycles = sil.Cycles
		resp.ErrorPct = stats.AbsPctErr(float64(resp.ProjCycles), float64(sil.Cycles))
	}
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
