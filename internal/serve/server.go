package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"pka/internal/obs"
	"pka/internal/sampling"
)

// Submission errors, mapped to HTTP statuses by the handler.
var (
	// ErrQueueFull rejects a request when the bounded queue is at
	// capacity (HTTP 429). The client owns the retry policy.
	ErrQueueFull = errors.New("serve: queue full")
	// ErrDraining rejects new work while the server drains (HTTP 503).
	ErrDraining = errors.New("serve: server draining")
)

// Options configures a Server. The zero value of every field has a
// usable default.
type Options struct {
	// Exec is the execution ladder study requests run on. Nil degrades
	// to serial uncached execution (results stay byte-identical).
	Exec *sampling.Exec
	// Workers bounds concurrently-executing studies (default 2). Note
	// this is request-level parallelism; each study may fan its kernels
	// out further on Exec's kernel-granular scheduler.
	Workers int
	// QueueDepth bounds requests waiting for a runner (default 64);
	// requests beyond it are rejected with ErrQueueFull.
	QueueDepth int
	// TenantWeights sets per-tenant fair-share weights (missing tenants
	// weigh 1).
	TenantWeights map[string]int
	// LatencyWindow, when positive, keeps the newest LatencyWindow
	// requests' queue wait and latency for LatencyReport. Zero keeps
	// none: pka_serve_* on /metrics is the server's latency report.
	LatencyWindow int
	// Obs, when non-nil, receives pka_serve_* metrics and per-request
	// spans, and backs /metrics. Without it the pka_serve_* instruments
	// live in a private observer, for Health alone.
	Obs *obs.Observer
	// Now is the clock (default time.Now); tests inject a fake one for
	// bit-stable latency readings.
	Now func() time.Time
	// Runner overrides study execution (tests stub it to control
	// timing). Nil runs Run on Exec.
	Runner func(*StudyRequest) (*StudyResponse, error)
	// TraceIDs generates trace and span IDs for traced requests; nil
	// builds a crypto-seeded one. Tests install a seeded generator for
	// deterministic IDs.
	TraceIDs *obs.IDGen
}

// pending is one admitted request moving through the queue.
type pending struct {
	req      *StudyRequest
	admitted time.Time
	resp     *StudyResponse
	err      error
	done     chan struct{}
}

// Server is the study service: a bounded weighted-fair admission queue in
// front of a spawn-on-demand runner pool, with latency histograms and
// graceful drain. Create with New, submit with Do or over HTTP via
// Handler.
type Server struct {
	exec   *sampling.Exec
	width  int
	depth  int
	now    func() time.Time
	runner func(*StudyRequest) (*StudyResponse, error)
	o      *obs.Observer
	m      *obs.ServeMetrics
	rec    *Recorder
	ids    *obs.IDGen

	mu       sync.Mutex
	cond     *sync.Cond
	q        *fairQueue
	running  int // runner goroutines alive
	inflight int // requests executing
	draining bool
}

// New builds a Server from opts.
func New(opts Options) *Server {
	s := &Server{
		exec:   opts.Exec,
		width:  opts.Workers,
		depth:  opts.QueueDepth,
		now:    opts.Now,
		runner: opts.Runner,
		o:      opts.Obs,
		m:      opts.Obs.ServeMetrics(),
		q:      newFairQueue(opts.TenantWeights),
		ids:    opts.TraceIDs,
	}
	if opts.LatencyWindow > 0 {
		s.rec = NewRecorder(opts.LatencyWindow)
	}
	if s.ids == nil {
		s.ids = obs.NewIDGen(0)
	}
	if s.m == nil {
		s.m = obs.NewObserver().ServeMetrics()
	}
	if s.width < 1 {
		s.width = 2
	}
	if s.depth < 1 {
		s.depth = 64
	}
	if s.now == nil {
		s.now = time.Now
	}
	if s.runner == nil {
		s.runner = s.run
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Do admits one validated request, waits for its turn and execution, and
// returns the study outcome. It is safe for concurrent use.
func (s *Server) Do(req *StudyRequest) (*StudyResponse, error) {
	p := &pending{req: req, admitted: s.now(), done: make(chan struct{})}
	s.mu.Lock()
	if s.draining {
		s.m.DrainRejects.Inc()
		s.mu.Unlock()
		return nil, ErrDraining
	}
	if s.q.len() >= s.depth {
		s.m.Rejected.Inc()
		s.mu.Unlock()
		return nil, ErrQueueFull
	}
	s.q.push(p)
	s.m.Requests.Inc()
	spawn := s.running < s.width
	if spawn {
		s.running++
	}
	s.m.QueueDepth.Set(float64(s.q.len()))
	s.mu.Unlock()
	if spawn {
		go s.work()
	}
	<-p.done
	return p.resp, p.err
}

// work is one runner: it drains the fair queue and exits when the queue
// is empty, the same spawn-on-demand shape as parallel.Scheduler.
func (s *Server) work() {
	for {
		s.mu.Lock()
		p := s.q.pop()
		if p == nil {
			s.running--
			s.cond.Broadcast()
			s.mu.Unlock()
			return
		}
		s.inflight++
		s.m.QueueDepth.Set(float64(s.q.len()))
		s.m.InFlight.Set(float64(s.inflight))
		s.mu.Unlock()

		started := s.now()
		sp := s.o.StartSpan("serve", p.req.Tenant+":"+p.req.Mode)
		p.resp, p.err = s.runOne(p.req)
		sp.End()
		ended := s.now()

		queued := started.Sub(p.admitted)
		total := ended.Sub(p.admitted)
		s.rec.Observe(queued, total)
		s.m.QueueWait.Observe(queued.Seconds())
		s.m.Latency.Observe(total.Seconds())
		s.finish(p.err != nil)
		close(p.done)
	}
}

// finish settles the counters of one request that ran, under the lock
// Health reads them with; the broadcast wakes any drain waiting on
// in-flight work.
func (s *Server) finish(failed bool) {
	s.mu.Lock()
	s.inflight--
	if failed {
		s.m.Errors.Inc()
	} else {
		s.m.Completed.Inc()
	}
	s.m.InFlight.Set(float64(s.inflight))
	s.cond.Broadcast()
	s.mu.Unlock()
}

// run is the default runner: Run on the server's Exec, with the server's
// span-ID generator wired into the request.
func (s *Server) run(req *StudyRequest) (*StudyResponse, error) {
	if req.ids == nil {
		req.ids = s.ids
	}
	return Run(s.exec, s.o, req)
}

// runOne isolates runner panics: one poisoned request must not take the
// server (or its sibling requests) down.
func (s *Server) runOne(req *StudyRequest) (resp *StudyResponse, err error) {
	defer func() {
		if r := recover(); r != nil {
			resp, err = nil, fmt.Errorf("serve: runner panic: %v", r)
		}
	}()
	return s.runner(req)
}

// Drain stops admitting (new submissions get ErrDraining) and waits for
// every queued and executing request to finish, or for ctx to expire.
// Queued work is completed, not dropped — a drained server has answered
// everything it accepted.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.mu.Lock()
		for s.q.len()+s.inflight > 0 {
			s.cond.Wait()
		}
		s.mu.Unlock()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Wake the waiter goroutine eventually; it holds no resources.
		return ctx.Err()
	}
}

// LatencyReport summarizes the Options.LatencyWindow newest requests;
// without a window every field but Requests is zero.
func (s *Server) LatencyReport() *Report {
	rep := s.rec.Report()
	rep.Requests = int(s.m.Latency.Count())
	return rep
}

// ServeHealth is the server's self-report.
type ServeHealth struct {
	QueueDepth   int           `json:"queue_depth"`
	InFlight     int           `json:"in_flight"`
	Workers      int           `json:"workers"`
	Draining     bool          `json:"draining"`
	Requests     int64         `json:"requests"`
	Completed    int64         `json:"completed"`
	Errors       int64         `json:"errors"`
	Invalid      int64         `json:"invalid"`
	Rejected     int64         `json:"rejected"`
	DrainRejects int64         `json:"drain_rejects"`
	Build        obs.BuildInfo `json:"build"`
}

// Health snapshots the server's state and its pka_serve_* counters.
func (s *Server) Health() ServeHealth {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ServeHealth{
		QueueDepth:   s.q.len(),
		InFlight:     s.inflight,
		Workers:      s.width,
		Draining:     s.draining,
		Requests:     s.m.Requests.Value(),
		Completed:    s.m.Completed.Value(),
		Errors:       s.m.Errors.Value(),
		Invalid:      s.m.Invalid.Value(),
		Rejected:     s.m.Rejected.Value(),
		DrainRejects: s.m.DrainRejects.Value(),
		Build:        obs.Build(),
	}
}

// Handler returns the server's HTTP mux: POST /v1/study, GET /v1/health
// and /metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(StudyPath, s.handleStudy)
	mux.HandleFunc(HealthPath, s.handleHealth)
	mux.Handle(MetricsPath, s.o)
	return mux
}

// handleStudy is the study endpoint: the body is one validated request that
// goes through Do, and the outcome maps to the response and its status.
func (s *Server) handleStudy(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	req, err := DecodeStudyRequest(r.Body)
	if err != nil {
		s.mu.Lock()
		s.m.Invalid.Inc()
		s.mu.Unlock()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// A valid traceparent header joins the request to the client's trace;
	// malformed or absent means "not traced" (the body's trace flag can
	// still start a fresh root trace).
	if tc, ok := obs.ParseTraceparent(r.Header.Get(TraceparentHeader)); ok {
		req.SetTraceParent(tc)
	}
	resp, err := s.Do(req)
	switch {
	case err == nil:
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(resp)
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, ErrDraining):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, sampling.ErrInfeasible):
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.Health())
}
