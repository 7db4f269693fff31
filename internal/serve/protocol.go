// Package serve is the PKA study engine's request tier: a long-running
// HTTP/JSON service that accepts concurrent study requests, admits them
// through a bounded weighted-fair queue, executes them on the shared
// sampling.Exec ladder (mem singleflight → disk artifact store → fleet
// shard → fresh simulation), and reports latency and queue wait as the
// pka_serve_* histograms on /metrics.
//
// The tier inherits the purity property the task layer established: a
// study outcome is a function of (device, workload, study parameters) and
// nothing else. That makes the server free to reorder, queue, reject, or
// retry requests — fairness and backpressure change who waits, never what
// anyone gets. A response produced through the server is byte-identical
// to the batch pka CLI run on the same inputs.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"pka/internal/cli"
	"pka/internal/gpu"
	"pka/internal/obs"
	"pka/internal/sampling"
	"pka/internal/workload"
)

// Protocol endpoints and limits.
const (
	// StudyPath runs one study request (POST, JSON body).
	StudyPath = "/v1/study"
	// HealthPath reports queue occupancy and request counters (GET).
	HealthPath = "/v1/health"
	// MetricsPath serves the Prometheus exposition (GET).
	MetricsPath = "/metrics"
	// TraceparentHeader carries the W3C-style trace context on study
	// requests; a valid value turns on distributed tracing for the request
	// and parents the study's spans under the client's span.
	TraceparentHeader = "traceparent"
	// MaxStudyRequestBytes bounds a study request body. A request naming
	// a built-in workload is under a kilobyte; the limit leaves room for
	// an inline workload document of a few thousand launches. A larger
	// workload is studied from its file, by pka -workload-file.
	MaxStudyRequestBytes = 1 << 20
)

// Study-parameter bounds. Requests outside these are rejected at the
// door, before any simulation work is admitted.
const (
	// MaxTargetErrorPct bounds the PKS sweep's stopping threshold.
	MaxTargetErrorPct = 50
	// MaxK bounds the requested cluster-count ceiling.
	MaxK = 64
	// MaxWindow bounds the PKP convergence window, matching the workload
	// loader's kernel bound.
	MaxWindow = 1 << 20
	// MaxTenantLen bounds the tenant identifier.
	MaxTenantLen = 64
)

// StudyRequest is one client study order. Exactly one of Workload (a
// built-in study-set name) or WorkloadJSON (an inline workload document, as
// pka -emit-workload writes and pka -workload-file reads) must be set.
// Zero-valued parameters take the same defaults as the batch CLI, so a
// minimal request and the default pka invocation produce byte-identical
// numbers.
type StudyRequest struct {
	// Tenant attributes the request for weighted-fair scheduling (latency
	// is not reported per tenant). Empty means "anon".
	Tenant string `json:"tenant,omitempty"`
	// Workload names a built-in workload ("suite/name").
	Workload string `json:"workload,omitempty"`
	// WorkloadJSON is an inline workload document (same schema and
	// bounds as the workload JSON loader).
	WorkloadJSON json.RawMessage `json:"workload_json,omitempty"`
	// Device selects the modeled GPU (volta, turing, ampere, volta40).
	// Empty means volta.
	Device string `json:"device,omitempty"`
	// Mode is the study mode: "pka" (selection + projection, the
	// default), "pks" (selection only), or "full" (simulate everything).
	Mode string `json:"mode,omitempty"`
	// TargetErrorPct is the PKS sweep threshold (default 5).
	TargetErrorPct float64 `json:"target,omitempty"`
	// Threshold is the PKP convergence threshold (default per pkp).
	Threshold float64 `json:"s,omitempty"`
	// Window is the PKP convergence window (default per pkp).
	Window int `json:"n,omitempty"`
	// MaxK bounds the PKS sweep (default 20).
	MaxK int `json:"maxk,omitempty"`
	// Silicon also computes the silicon ground truth and reports the
	// projection error against it.
	Silicon bool `json:"silicon,omitempty"`
	// Trace turns on distributed tracing for this request even without a
	// traceparent header (the server starts a fresh root trace) and attaches
	// the study's Chrome trace to the response. Observe-only:
	// every other response field is byte-identical either way.
	Trace bool `json:"trace,omitempty"`
	// Provenance attaches the per-kernel execution provenance block — which
	// tier served each kernel launch, from which shard peer, at what cost — to
	// the response. Observe-only, like Trace.
	Provenance bool `json:"provenance,omitempty"`

	// Resolved by Validate.
	w   *workload.Workload
	dev gpu.Device

	// Trace plumbing, set by the HTTP handler (or SetTraceParent and
	// SetFlightRecorder for direct callers): the client's parent context,
	// the span-ID generator (the server's, which tests seed through
	// Options.TraceIDs), and a flight recorder the caller keeps.
	parent obs.TraceContext
	ids    *obs.IDGen
	flight *sampling.FlightRecorder
}

// SetTraceParent installs the client's trace context, as the HTTP handler
// does from the traceparent header. A valid context enables tracing for
// the request.
func (r *StudyRequest) SetTraceParent(tc obs.TraceContext) { r.parent = tc }

// SetFlightRecorder installs the flight recorder provenance folds into,
// letting a caller keep the full recorder after Run returns. Nil lets Run
// build its own when needed.
func (r *StudyRequest) SetFlightRecorder(fr *sampling.FlightRecorder) { r.flight = fr }

// StudyResponse is the study outcome. Field order (and therefore byte
// layout) is fixed: responses for equal requests are byte-identical
// however they were executed.
type StudyResponse struct {
	Workload string `json:"workload"`
	Device   string `json:"device"`
	Mode     string `json:"mode"`
	// K is the selected cluster count (absent in full mode).
	K int `json:"k,omitempty"`
	// Kernels is the number of kernels actually simulated.
	Kernels       int     `json:"kernels"`
	ProjCycles    int64   `json:"proj_cycles"`
	SimWarpInstrs int64   `json:"sim_warp_instrs"`
	IPC           float64 `json:"ipc"`
	DRAMUtil      float64 `json:"dram_util"`
	// SimHours is the projected simulation wall time at the modeled
	// simulator rate.
	SimHours float64 `json:"sim_hours"`
	Capped   bool    `json:"capped,omitempty"`
	// SiliconCycles and ErrorPct are present only when the request set
	// Silicon.
	SiliconCycles int64   `json:"silicon_cycles,omitempty"`
	ErrorPct      float64 `json:"error_pct,omitempty"`
	// Provenance is present only when the request set Provenance; Trace is
	// present only when the request was traced. Both are appended after
	// every study field so untraced responses keep their exact historical
	// byte layout.
	Provenance *ProvenanceBlock `json:"provenance,omitempty"`
	Trace      json.RawMessage  `json:"trace,omitempty"`
}

// ProvenanceBlock attributes a study's kernel launches to the Exec
// ladder's serving tiers. Tiers values always sum to Kernels — every
// launch is accounted to exactly one tier.
type ProvenanceBlock struct {
	// TraceID links the block to the request's distributed trace (empty
	// when the request was not traced).
	TraceID string `json:"trace_id,omitempty"`
	// Kernels is the number of kernel launches recorded.
	Kernels int `json:"kernels"`
	// Tiers counts launches per serving tier (mem, disk, shard, sim).
	Tiers map[string]int `json:"tiers"`
	// Peers counts launches per shard peer (absent when none).
	Peers map[string]int `json:"peers,omitempty"`
	// Entries is the full flight-recorder content in (phase, launch index)
	// order.
	Entries []sampling.ProvEntry `json:"entries,omitempty"`
}

// DecodeStudyRequest reads, parses, and validates one study request. Any
// input either yields a fully-validated request with its workload and
// device resolved, or an error — never a panic and never an unbounded
// allocation (the body is capped at MaxStudyRequestBytes, unknown fields
// are rejected, and inline workloads go through the hardened JSON
// loader).
func DecodeStudyRequest(r io.Reader) (*StudyRequest, error) {
	body, err := io.ReadAll(io.LimitReader(r, MaxStudyRequestBytes+1))
	if err != nil {
		return nil, fmt.Errorf("serve: unreadable request: %w", err)
	}
	if len(body) > MaxStudyRequestBytes {
		return nil, fmt.Errorf("serve: request exceeds %d bytes", MaxStudyRequestBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	req := &StudyRequest{}
	if err := dec.Decode(req); err != nil {
		return nil, fmt.Errorf("serve: malformed request: %w", err)
	}
	// A second document after the first is garbage, not a batch.
	if dec.More() {
		return nil, errors.New("serve: trailing data after request")
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return req, nil
}

// Validate normalizes defaults and rejects out-of-bounds parameters,
// resolving the workload and device in the process. It is idempotent.
func (r *StudyRequest) Validate() error {
	if r.Tenant == "" {
		r.Tenant = "anon"
	}
	if len(r.Tenant) > MaxTenantLen {
		return fmt.Errorf("serve: tenant longer than %d bytes", MaxTenantLen)
	}
	for i := 0; i < len(r.Tenant); i++ {
		c := r.Tenant[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '_' || c == '.') {
			return fmt.Errorf("serve: tenant contains byte %q (want [A-Za-z0-9._-])", c)
		}
	}
	if r.Device == "" {
		r.Device = "volta"
	}
	dev, err := cli.Device(r.Device)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	r.dev = dev
	switch r.Mode {
	case "":
		r.Mode = "pka"
	case "pka", "pks", "full":
	default:
		return fmt.Errorf("serve: unknown mode %q (want pka, pks, or full)", r.Mode)
	}
	if r.TargetErrorPct < 0 || r.TargetErrorPct > MaxTargetErrorPct {
		return fmt.Errorf("serve: target error %.3g%% outside (0, %d]", r.TargetErrorPct, MaxTargetErrorPct)
	}
	if r.TargetErrorPct == 0 {
		r.TargetErrorPct = 5
	}
	if r.Threshold < 0 || r.Threshold >= 1 {
		return fmt.Errorf("serve: PKP threshold %.3g outside [0, 1)", r.Threshold)
	}
	if r.Window < 0 || r.Window > MaxWindow {
		return fmt.Errorf("serve: PKP window %d outside [0, %d]", r.Window, MaxWindow)
	}
	if r.MaxK < 0 || r.MaxK > MaxK {
		return fmt.Errorf("serve: maxk %d outside [0, %d]", r.MaxK, MaxK)
	}
	if r.MaxK == 0 {
		r.MaxK = 20
	}
	switch {
	case r.Workload != "" && len(r.WorkloadJSON) > 0:
		return errors.New("serve: request sets both workload and workload_json")
	case r.Workload != "":
		w, err := cli.FindWorkload(r.Workload)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		r.w = w
	case len(r.WorkloadJSON) > 0:
		w, err := workload.FromJSON(bytes.NewReader(r.WorkloadJSON))
		if err != nil {
			return fmt.Errorf("serve: inline workload: %w", err)
		}
		r.w = w
	default:
		return errors.New("serve: request names no workload")
	}
	return nil
}
