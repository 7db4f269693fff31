package serve_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"pka/internal/obs"
	"pka/internal/serve"
)

// fakeClock is a manually-advanced clock: Sleep advances it instantly, so
// a run's timestamps are a pure function of its service times.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestGoldenLatencyReport pins the deterministic-serving story in one
// place: a fixed request sequence, a fake clock and per-template service
// times produce a byte-pinned pka_serve_* Prometheus exposition and the
// latency window the benchmark reads. If scheduling, the recorder,
// percentile math or metric registration drifts, these bytes move.
func TestGoldenLatencyReport(t *testing.T) {
	clk := newFakeClock()
	observer := obs.NewObserverAt(clk.Now)
	// Deterministic service times per (tenant, workload).
	service := map[string]time.Duration{
		"alpha/Rodinia/gauss_mat4": 5 * time.Millisecond,
		"alpha/Rodinia/bfs4096":    12 * time.Millisecond,
		"beta/Rodinia/gauss_mat4":  30 * time.Millisecond,
	}
	srv := serve.New(serve.Options{
		Workers:       1,
		QueueDepth:    16,
		TenantWeights: map[string]int{"alpha": 3, "beta": 1},
		LatencyWindow: 24,
		Obs:           observer,
		Now:           clk.Now,
		Runner: func(req *serve.StudyRequest) (*serve.StudyResponse, error) {
			d, ok := service[req.Tenant+"/"+req.Workload]
			if !ok {
				t.Errorf("unexpected request %s/%s", req.Tenant, req.Workload)
			}
			clk.Sleep(d)
			return &serve.StudyResponse{Workload: req.Workload, Device: req.Device, Mode: req.Mode}, nil
		},
	})
	templates := []serve.StudyRequest{
		{Tenant: "alpha", Workload: "Rodinia/gauss_mat4"},
		{Tenant: "alpha", Workload: "Rodinia/bfs4096"},
		{Tenant: "beta", Workload: "Rodinia/gauss_mat4"},
	}
	// The template draws of the seed-7 Poisson schedule this test was
	// first pinned with, one request at a time (closed loop), so the
	// execution order is fixed too.
	for i, tpl := range []int{0, 0, 0, 0, 2, 1, 1, 0, 2, 1, 2, 1, 0, 0, 2, 2, 0, 0, 0, 1, 1, 2, 1, 0} {
		req := templates[tpl]
		if _, err := srv.Do(&req); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	// The window the benchmark reads: every request starts the instant it
	// is admitted, and 12 ms is the median of 11 × 5, 7 × 12 and 6 × 30 ms.
	rep := srv.LatencyReport()
	if rep.Requests != 24 || rep.QueueP50 != 0 || rep.QueueP95 != 0 || rep.P50 != 12*time.Millisecond {
		t.Errorf("latency report: requests %d, queue p50 %v p95 %v, p50 %v; want 24, 0, 0, 12ms",
			rep.Requests, rep.QueueP50, rep.QueueP95, rep.P50)
	}

	// The pka_serve_* exposition slice, byte-pinned.
	var sb strings.Builder
	if err := observer.Metrics.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	var serveLines []string
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.Contains(line, "pka_serve_") {
			serveLines = append(serveLines, line)
		}
	}
	got := strings.Join(serveLines, "\n") + "\n"
	const wantExpo = `# HELP pka_serve_completed_total study requests that returned a result
# TYPE pka_serve_completed_total counter
pka_serve_completed_total 24
# HELP pka_serve_drain_rejects_total requests rejected with 503 while draining
# TYPE pka_serve_drain_rejects_total counter
pka_serve_drain_rejects_total 0
# HELP pka_serve_errors_total admitted requests that failed in execution
# TYPE pka_serve_errors_total counter
pka_serve_errors_total 0
# HELP pka_serve_inflight study requests currently executing
# TYPE pka_serve_inflight gauge
pka_serve_inflight 0
# HELP pka_serve_invalid_total requests rejected by the decoder/validator
# TYPE pka_serve_invalid_total counter
pka_serve_invalid_total 0
# HELP pka_serve_latency_seconds time from admission to completion
# TYPE pka_serve_latency_seconds histogram
pka_serve_latency_seconds_bucket{le="0.001"} 0
pka_serve_latency_seconds_bucket{le="0.005"} 11
pka_serve_latency_seconds_bucket{le="0.025"} 18
pka_serve_latency_seconds_bucket{le="0.1"} 24
pka_serve_latency_seconds_bucket{le="0.25"} 24
pka_serve_latency_seconds_bucket{le="0.5"} 24
pka_serve_latency_seconds_bucket{le="1"} 24
pka_serve_latency_seconds_bucket{le="2.5"} 24
pka_serve_latency_seconds_bucket{le="10"} 24
pka_serve_latency_seconds_bucket{le="+Inf"} 24
pka_serve_latency_seconds_sum 0.31900000000000006
pka_serve_latency_seconds_count 24
# HELP pka_serve_queue_depth study requests waiting for a runner
# TYPE pka_serve_queue_depth gauge
pka_serve_queue_depth 0
# HELP pka_serve_queue_wait_seconds time from admission to execution start
# TYPE pka_serve_queue_wait_seconds histogram
pka_serve_queue_wait_seconds_bucket{le="0.0005"} 24
pka_serve_queue_wait_seconds_bucket{le="0.001"} 24
pka_serve_queue_wait_seconds_bucket{le="0.005"} 24
pka_serve_queue_wait_seconds_bucket{le="0.025"} 24
pka_serve_queue_wait_seconds_bucket{le="0.1"} 24
pka_serve_queue_wait_seconds_bucket{le="0.5"} 24
pka_serve_queue_wait_seconds_bucket{le="2.5"} 24
pka_serve_queue_wait_seconds_bucket{le="+Inf"} 24
pka_serve_queue_wait_seconds_sum 0
pka_serve_queue_wait_seconds_count 24
# HELP pka_serve_rejected_total requests rejected with 429 by the full queue
# TYPE pka_serve_rejected_total counter
pka_serve_rejected_total 0
# HELP pka_serve_requests_total study requests admitted to the queue
# TYPE pka_serve_requests_total counter
pka_serve_requests_total 24
`
	if got != wantExpo {
		t.Errorf("pka_serve_ exposition drifted:\n got:\n%s\nwant:\n%s", got, wantExpo)
	}
}
