package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pka/internal/artifact"
	"pka/internal/obs"
	"pka/internal/parallel"
	"pka/internal/sampling"
	"pka/internal/serve"
)

// stubResp is what gated stub runners answer with; tests that assert
// byte-identity use the real runner instead.
var stubResp = &serve.StudyResponse{Workload: "stub", Device: "volta", Mode: "pka"}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDecodeStudyRequest(t *testing.T) {
	// A minimal request picks up every batch-CLI default.
	req, err := serve.DecodeStudyRequest(strings.NewReader(`{"workload":"Rodinia/gauss_mat4"}`))
	if err != nil {
		t.Fatal(err)
	}
	if req.Tenant != "anon" || req.Device != "volta" || req.Mode != "pka" ||
		req.TargetErrorPct != 5 || req.MaxK != 20 {
		t.Errorf("defaults not applied: %+v", req)
	}

	bad := []string{
		``, `{`, `[]`, `{}`,
		`{"workload":"Rodinia/no_such"}`,
		`{"workload":"Rodinia/gauss_mat4","unknown":1}`,
		`{"workload":"Rodinia/gauss_mat4"}{"workload":"Rodinia/gauss_mat4"}`,
		`{"workload":"Rodinia/gauss_mat4","device":"pentium"}`,
		`{"workload":"Rodinia/gauss_mat4","mode":"warp"}`,
		`{"workload":"Rodinia/gauss_mat4","target":-1}`,
		`{"workload":"Rodinia/gauss_mat4","target":99}`,
		`{"workload":"Rodinia/gauss_mat4","s":1.5}`,
		`{"workload":"Rodinia/gauss_mat4","n":-1}`,
		`{"workload":"Rodinia/gauss_mat4","maxk":10000}`,
		`{"workload":"Rodinia/gauss_mat4","tenant":"no spaces"}`,
		`{"workload":"Rodinia/gauss_mat4","workload_json":{"name":"x","kernels":[]}}`,
		`{"workload_json":{"name":"bad","kernels":[{"name":"k","grid":[-4,1,1],"block":[256,1,1],"mix":{"compute":10}}]}}`,
	}
	for _, doc := range bad {
		if _, err := serve.DecodeStudyRequest(strings.NewReader(doc)); err == nil {
			t.Errorf("accepted malformed request: %s", doc)
		}
	}

	// Inline workloads go through the hardened loader.
	req, err = serve.DecodeStudyRequest(strings.NewReader(
		`{"workload_json":{"name":"inline","kernels":[{"name":"k","grid":[8,1,1],"block":[64,1,1],"mix":{"compute":10},"repeat":3}]}}`))
	if err != nil {
		t.Fatal(err)
	}
	if req.Workload != "" || req.Mode != "pka" {
		t.Errorf("inline request misparsed: %+v", req)
	}
}

// TestFairQueueOrder pins the weighted-fair release order: with a 3:1
// weight split and all requests queued behind one in-flight filler, alpha
// drains three requests before beta's first, and the virtual-finish tie
// at 1.0 breaks FIFO (alpha enqueued first).
func TestFairQueueOrder(t *testing.T) {
	release := make(chan struct{})
	var mu sync.Mutex
	var order []string
	srv := serve.New(serve.Options{
		Workers:       1,
		QueueDepth:    32,
		TenantWeights: map[string]int{"alpha": 3, "beta": 1},
		Runner: func(req *serve.StudyRequest) (*serve.StudyResponse, error) {
			if req.Tenant == "filler" {
				<-release
				return stubResp, nil
			}
			mu.Lock()
			order = append(order, req.Tenant)
			mu.Unlock()
			return stubResp, nil
		},
	})
	var wg sync.WaitGroup
	submit := func(tenant string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := srv.Do(&serve.StudyRequest{Tenant: tenant}); err != nil {
				t.Errorf("%s: %v", tenant, err)
			}
		}()
	}
	submit("filler")
	waitFor(t, "filler in flight", func() bool { return srv.Health().InFlight == 1 })
	for i, tenant := range []string{"alpha", "alpha", "alpha", "alpha", "beta", "beta", "beta", "beta"} {
		submit(tenant)
		depth := i + 1
		waitFor(t, "queue depth", func() bool { return srv.Health().QueueDepth == depth })
	}
	close(release)
	wg.Wait()
	got := strings.Join(order, ",")
	want := "alpha,alpha,alpha,beta,alpha,beta,beta,beta"
	if got != want {
		t.Errorf("release order\n got %s\nwant %s", got, want)
	}
}

// TestBackpressure pins the bounded-queue contract: one executing, one
// queued, and the next submission is rejected immediately — never blocked.
func TestBackpressure(t *testing.T) {
	release := make(chan struct{})
	srv := serve.New(serve.Options{
		Workers:    1,
		QueueDepth: 1,
		Runner: func(*serve.StudyRequest) (*serve.StudyResponse, error) {
			<-release
			return stubResp, nil
		},
	})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := srv.Do(&serve.StudyRequest{Tenant: "t"}); err != nil {
				t.Errorf("admitted request failed: %v", err)
			}
		}()
		if i == 0 {
			waitFor(t, "first request in flight", func() bool { return srv.Health().InFlight == 1 })
		} else {
			waitFor(t, "second request queued", func() bool { return srv.Health().QueueDepth == 1 })
		}
	}
	if _, err := srv.Do(&serve.StudyRequest{Tenant: "t"}); err != serve.ErrQueueFull {
		t.Errorf("overflow submission: got %v, want ErrQueueFull", err)
	}
	// Over HTTP the full queue is a 429.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if status, body := postBody(t, ts.URL, serve.StudyPath, strings.NewReader(`{"workload":"Rodinia/gauss_mat4"}`)); status != http.StatusTooManyRequests {
		t.Errorf("overflow POST: status %d, want 429: %s", status, body)
	}
	close(release)
	wg.Wait()
	h := srv.Health()
	if h.Completed != 2 || h.Rejected != 2 {
		t.Errorf("health after run: %+v", h)
	}
}

// TestDrain pins graceful shutdown: draining finishes everything already
// admitted, rejects everything new, and unblocks the drainer.
func TestDrain(t *testing.T) {
	release := make(chan struct{})
	srv := serve.New(serve.Options{
		Workers:    1,
		QueueDepth: 8,
		Runner: func(*serve.StudyRequest) (*serve.StudyResponse, error) {
			<-release
			return stubResp, nil
		},
	})
	done := make(chan error, 1)
	go func() {
		_, err := srv.Do(&serve.StudyRequest{Tenant: "t"})
		done <- err
	}()
	waitFor(t, "request in flight", func() bool { return srv.Health().InFlight == 1 })

	drained := make(chan error, 1)
	go func() {
		drained <- srv.Drain(context.Background())
	}()
	waitFor(t, "draining flag", func() bool { return srv.Health().Draining })
	if _, err := srv.Do(&serve.StudyRequest{Tenant: "t"}); err != serve.ErrDraining {
		t.Fatalf("submission while draining: got %v, want ErrDraining", err)
	}
	select {
	case err := <-drained:
		t.Fatalf("drain returned %v with a request still in flight", err)
	default:
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("in-flight request failed: %v", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}

	// A drain bounded by an already-expired context reports the deadline.
	// The stuck request is released at the end, so nothing outlives the test.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stuck := make(chan struct{})
	srv2 := serve.New(serve.Options{Workers: 1, Runner: func(*serve.StudyRequest) (*serve.StudyResponse, error) {
		<-stuck
		return stubResp, nil
	}})
	go srv2.Do(&serve.StudyRequest{Tenant: "t"}) //nolint:errcheck
	waitFor(t, "stuck request", func() bool { return srv2.Health().InFlight == 1 })
	if err := srv2.Drain(ctx); err == nil {
		t.Error("drain with expired context returned nil")
	}
	close(stuck)
}

// TestRunnerPanicIsContained pins that a panicking study poisons only its
// own request.
func TestRunnerPanicIsContained(t *testing.T) {
	var calls atomic.Int64
	srv := serve.New(serve.Options{
		Workers: 1,
		Runner: func(*serve.StudyRequest) (*serve.StudyResponse, error) {
			if calls.Add(1) == 1 {
				panic("poisoned request")
			}
			return stubResp, nil
		},
	})
	if _, err := srv.Do(&serve.StudyRequest{Tenant: "t"}); err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("poisoned request: got %v, want panic error", err)
	}
	if _, err := srv.Do(&serve.StudyRequest{Tenant: "t"}); err != nil {
		t.Fatalf("request after panic failed: %v", err)
	}
	// Over HTTP the panic is a 500 for its request alone.
	calls.Store(0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	study := `{"workload":"Rodinia/gauss_mat4"}`
	if status, body := postBody(t, ts.URL, serve.StudyPath, strings.NewReader(study)); status != http.StatusInternalServerError || !strings.Contains(string(body), "panic") {
		t.Errorf("poisoned POST: status %d %s, want a 500 panic error", status, body)
	}
	if status, body := postBody(t, ts.URL, serve.StudyPath, strings.NewReader(study)); status != http.StatusOK {
		t.Errorf("POST after panic: status %d %s, want 200", status, body)
	}
}

// TestServeMatchesBatch is the tentpole's central claim: the HTTP path
// through decode → admission → fair queue → Exec ladder answers with
// exactly the bytes a direct serial, uncached run produces.
func TestServeMatchesBatch(t *testing.T) {
	srv := serve.New(serve.Options{
		Exec:    sampling.NewExec(parallel.NewScheduler(4), nil),
		Workers: 4,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, doc := range []string{
		`{"workload":"Rodinia/gauss_mat4"}`,
		`{"workload":"Rodinia/gauss_mat4","mode":"pks"}`,
		`{"workload":"Rodinia/gauss_mat4","mode":"full","silicon":true}`,
		`{"workload":"Rodinia/bfs4096","mode":"pka","target":2,"silicon":true,"tenant":"prod"}`,
		`{"workload_json":{"name":"inline","kernels":[{"name":"k","grid":[64,1,1],"block":[128,1,1],"mix":{"compute":40,"global_loads":4},"coalescing_factor":4,"working_set_bytes":1048576,"repeat":6}]},"mode":"full"}`,
	} {
		resp, err := http.Post(ts.URL+serve.StudyPath, "application/json", strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s: %s", doc, resp.Status, body)
		}

		// The reference: same request, serial uncached execution.
		ref, err := serve.DecodeStudyRequest(strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		direct, err := serve.Run(nil, nil, ref)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(direct)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		if !bytes.Equal(body, want) {
			t.Errorf("%s:\nserver %s\ndirect %s", doc, body, want)
		}
	}
}

// TestRunSelectionWarmMatchesCold: over one artifact store the first Run
// computes and persists the selection and the evaluation's pack, the second
// reads the pack alone — the selection with it — and the two responses and
// the uncached reference are the same bytes. An identical request on the same
// Exec is the mem tier's: it reads the pack, in place of the selection, and
// writes nothing.
func TestRunSelectionWarmMatchesCold(t *testing.T) {
	run := func(doc string, exec *sampling.Exec) []byte {
		t.Helper()
		req, err := serve.DecodeStudyRequest(strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := serve.Run(exec, nil, req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	for _, doc := range []string{
		`{"workload":"Rodinia/bfs4096","mode":"pka","target":2,"silicon":true}`, // K = 1
		`{"workload":"Rodinia/bfs65536","mode":"pka"}`,
	} {
		store, err := artifact.Open(t.TempDir(), artifact.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		want := run(doc, nil)
		for i, c := range []struct{ sels, packs obs.CacheCounts }{
			{obs.CacheCounts{Misses: 1}, obs.CacheCounts{Misses: 1, Hits: 1}}, // cold, then the repeat's read
			{obs.CacheCounts{}, obs.CacheCounts{Hits: 2}},
		} {
			exec := sampling.NewExec(parallel.NewScheduler(2), store)
			if got := run(doc, exec); !bytes.Equal(got, want) {
				t.Errorf("%s: run %d over the store:\n got %s\nwant %s", doc, i, got, want)
			}
			if got := run(doc, exec); !bytes.Equal(got, want) {
				t.Errorf("%s: run %d repeated on its Exec:\n got %s\nwant %s", doc, i, got, want)
			}
			if got := exec.CacheStats()["selection"]; got != c.sels {
				t.Errorf("%s: run %d and its repeat: selection family %+v, want %+v", doc, i, got, c.sels)
			}
			if got := exec.CacheStats()["batch"]; got != c.packs {
				t.Errorf("%s: run %d and its repeat: batch family %+v, want %+v", doc, i, got, c.packs)
			}
		}
	}
}

// TestHTTPStatuses pins the handler's error mapping.
func TestHTTPStatuses(t *testing.T) {
	release := make(chan struct{})
	srv := serve.New(serve.Options{
		Exec:       sampling.NewExec(nil, nil),
		Workers:    1,
		QueueDepth: 1,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(doc string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+serve.StudyPath, "application/json", strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp
	}
	if resp := post(`{"workload":"Rodinia/nope"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid request: %s, want 400", resp.Status)
	}
	// Full simulation of an MLPerf workload blows the budget: the
	// infeasibility is detected before any cycle is simulated.
	if resp := post(`{"workload":"MLPerf/ssd_training","mode":"full"}`); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("infeasible request: %s, want 422", resp.Status)
	}
	if resp, err := http.Get(ts.URL + serve.StudyPath); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET study: %s, want 405", resp.Status)
	}
	// Latency is reported once, by the pka_serve_* histograms on /metrics.
	if resp, err := http.Get(ts.URL + "/v1/latency"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/latency: %s, want 404", resp.Status)
	}
	if h := srv.Health(); h.Invalid != 1 {
		t.Errorf("invalid counter: %+v", h)
	}

	// 429 carries Retry-After so clients can back off politely.
	blocked := serve.New(serve.Options{
		Workers:    1,
		QueueDepth: 1,
		Runner: func(*serve.StudyRequest) (*serve.StudyResponse, error) {
			<-release
			return stubResp, nil
		},
	})
	tsb := httptest.NewServer(blocked.Handler())
	defer tsb.Close()
	defer close(release) // before tsb.Close, which waits for the blocked requests
	// The blocked requests close their bodies once released, so their
	// connections go idle and tsb.Close ends them.
	background := func() {
		if resp, err := http.Post(tsb.URL+serve.StudyPath, "application/json",
			strings.NewReader(`{"workload":"Rodinia/gauss_mat4"}`)); err == nil {
			resp.Body.Close()
		}
	}
	go background()
	waitFor(t, "first request executing", func() bool { return blocked.Health().InFlight == 1 })
	go background()
	waitFor(t, "second request queued", func() bool { return blocked.Health().QueueDepth == 1 })
	resp, err := http.Post(tsb.URL+serve.StudyPath, "application/json", strings.NewReader(`{"workload":"Rodinia/gauss_mat4"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Errorf("overflow: %s retry-after=%q, want 429 with Retry-After", resp.Status, resp.Header.Get("Retry-After"))
	}
}

// TestHealthMatchesMetrics drives the handler through completed studies,
// one 429 and one 400, and requires Health's funnel counters to equal the
// pka_serve_*_total values the same server's /metrics exposes.
func TestHealthMatchesMetrics(t *testing.T) {
	release := make(chan struct{})
	srv := serve.New(serve.Options{
		Workers:    1,
		QueueDepth: 1,
		Obs:        obs.NewObserver(),
		Runner: func(req *serve.StudyRequest) (*serve.StudyResponse, error) {
			if req.Tenant == "hold" {
				<-release
			}
			return stubResp, nil
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	post := func(doc string) int {
		resp, err := http.Post(ts.URL+serve.StudyPath, "application/json", strings.NewReader(doc))
		if err != nil {
			t.Error(err)
			return 0
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp.StatusCode
	}
	const study = `{"workload":"Rodinia/gauss_mat4"}`
	const held = `{"workload":"Rodinia/gauss_mat4","tenant":"hold"}`
	for i := 0; i < 3; i++ {
		if code := post(study); code != http.StatusOK {
			t.Fatalf("study %d: status %d, want 200", i, code)
		}
	}
	if code := post(`{"workload":"Rodinia/nope"}`); code != http.StatusBadRequest {
		t.Fatalf("invalid request: status %d, want 400", code)
	}
	var wg sync.WaitGroup
	for i, wait := range []func() bool{
		func() bool { return srv.Health().InFlight == 1 },
		func() bool { return srv.Health().QueueDepth == 1 },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if code := post(held); code != http.StatusOK {
				t.Errorf("held study: status %d, want 200", code)
			}
		}()
		waitFor(t, []string{"held study running", "held study queued"}[i], wait)
	}
	if code := post(study); code != http.StatusTooManyRequests {
		t.Fatalf("overflow: status %d, want 429", code)
	}
	close(release)
	wg.Wait()

	resp, err := http.Get(ts.URL + serve.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	scraped := map[string]string{}
	for _, line := range strings.Split(string(body), "\n") {
		if name, val, ok := strings.Cut(line, " "); ok && strings.HasPrefix(name, "pka_serve_") {
			scraped[name] = val
		}
	}
	h := srv.Health()
	for _, c := range []struct {
		family string
		health int64
		want   int64
	}{
		{"pka_serve_requests_total", h.Requests, 5},
		{"pka_serve_completed_total", h.Completed, 5},
		{"pka_serve_rejected_total", h.Rejected, 1},
		{"pka_serve_invalid_total", h.Invalid, 1},
	} {
		if c.health != c.want {
			t.Errorf("Health for %s = %d, want %d", c.family, c.health, c.want)
		}
		if got := scraped[c.family]; got != fmt.Sprint(c.health) {
			t.Errorf("/metrics %s = %q, Health says %d", c.family, got, c.health)
		}
	}
}
