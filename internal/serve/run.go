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
// shard tiers) yields byte-identical responses, which is what lets the
// serving tier queue, reorder, and retry without changing results. The
// observer only adds telemetry, and tracing/provenance only append fields
// after the study results — every study field is byte-identical with them
// on or off. Every mode is one core.Plan evaluation: its one pass, and
// silicon when the request asks.
func Run(exec *sampling.Exec, o *obs.Observer, req *StudyRequest) (*StudyResponse, error) {
	if req.w == nil {
		// Direct callers may build requests without going through
		// DecodeStudyRequest.
		if err := req.Validate(); err != nil {
			return nil, err
		}
	}
	st := newStudy(exec, o, req)
	ev, err := st.plan.Evaluate(st.cfg, req.w, nil)
	return st.respond(ev, err)
}

// studyModes maps a request's mode to the one pass its study plan makes.
var studyModes = map[string]sampling.TaskMode{"full": sampling.ModeFull, "pks": sampling.ModePKS, "pka": sampling.ModePKA}

// study is one request's evaluation: the plan its mode names, and the
// core.Config it runs under, with the observer, tracing and flight recorder
// wired once.
type study struct {
	req  *StudyRequest
	name string // the workload's full name
	plan core.Plan
	cfg  core.Config
	// The request's own tracer, its root span and its trace ID; nil, nil
	// and "" when untraced.
	tracer  *obs.Tracer
	root    *obs.Span
	traceID string
}

// newStudy sets up req's evaluation of its resolved workload. Tracing
// turns on when the client shipped a traceparent or asked in the body;
// either way the request gets its own tracer so its trace holds only this
// study's spans. Provenance recording turns on only on request (the
// response's provenance block) or when the caller installed a recorder
// with SetFlightRecorder; tracing alone records none.
func newStudy(exec *sampling.Exec, o *obs.Observer, req *StudyRequest) *study {
	st := &study{
		req:  req,
		name: req.w.FullName(),
		plan: core.Plan{Passes: []sampling.TaskMode{studyModes[req.Mode]}, Silicon: req.Silicon},
		cfg: core.Config{
			Device: req.dev,
			PKS:    pks.Options{TargetErrorPct: req.TargetErrorPct, MaxK: req.MaxK},
			PKP:    pkp.Options{Threshold: req.Threshold, Window: req.Window},
			Obs:    o,
			Exec:   exec,
			Flight: req.flight,
		},
	}
	if st.cfg.Flight == nil && req.Provenance {
		st.cfg.Flight = sampling.NewFlightRecorder()
	}
	if !req.Trace && !req.parent.Valid() {
		return st
	}
	ids := req.ids
	if ids == nil {
		ids = obs.NewIDGen(0)
	}
	tr := obs.NewTracer()
	tr.SetProcessName("pkaserve")
	tr.SetDropCounter(o.TraceDropped())
	var tc obs.TraceContext
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
	st.tracer, st.traceID = tr, tc.TraceID
	st.root = tr.Track("serve").Start("study "+st.name, args...)
	return st
}

// respond maps the study's evaluation, or the error that ended it, to the
// response, closing the root span.
func (st *study) respond(ev *core.Evaluation, err error) (*StudyResponse, error) {
	req := st.req
	if err != nil {
		st.root.End()
		return nil, fmt.Errorf("serve: %s study of %s: %w", req.Mode, st.name, err)
	}
	ss := ev.Full
	switch req.Mode {
	case "pks":
		ss = &ev.PKS
	case "pka":
		ss = &ev.PKA
	}
	resp := &StudyResponse{Workload: st.name, Device: req.Device, Mode: req.Mode, Kernels: req.w.N,
		ProjCycles: ss.ProjCycles, SimWarpInstrs: ss.SimWarpInstrs, IPC: ss.IPC, DRAMUtil: ss.DRAMUtil,
		SimHours: ss.SimHours, Capped: ss.Capped, ErrorPct: ss.ErrorPct}
	if sel := ev.Selection; sel != nil {
		resp.K, resp.Kernels = sel.K, len(sel.Groups)
	}
	resp.SiliconCycles = ev.Silicon.Cycles
	if flight := st.cfg.Flight; req.Provenance {
		resp.Provenance = &ProvenanceBlock{
			TraceID: st.traceID,
			Kernels: flight.Len(),
			Tiers:   flight.TierCounts(),
			Peers:   flight.PeerCounts(),
			Entries: flight.Entries(),
		}
	}
	if st.root != nil {
		st.root.Arg("kernels", resp.Kernels).End()
		var buf bytes.Buffer
		if err := st.tracer.WriteChromeTrace(&buf); err != nil {
			return nil, fmt.Errorf("serve: rendering trace: %w", err)
		}
		resp.Trace = buf.Bytes()
	}
	return resp, nil
}
