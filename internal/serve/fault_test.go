package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pka/internal/obs"
	"pka/internal/parallel"
	"pka/internal/remote"
	"pka/internal/sampling"
	"pka/internal/serve"
)

// Fault modes a worker can be switched into mid-test.
const (
	workerHealthy = iota
	workerBusy    // answer every exec with 429
	workerHang    // sit on the request until the client gives up
)

// faultWorker is a real pkad worker wrapped in a switchable fault
// injector.
func faultWorker(mode *atomic.Int32) *httptest.Server {
	h := remote.NewServer(sampling.NewExec(nil, nil), 8).Handler()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch mode.Load() {
		case workerBusy:
			http.Error(w, "worker at capacity", http.StatusTooManyRequests)
		case workerHang:
			// Reading the body to its end is what lets the server notice the
			// client hanging up, and cancel the context.
			io.Copy(io.Discard, r.Body) //nolint:errcheck
			<-r.Context().Done()
		default:
			h.ServeHTTP(w, r)
		}
	}))
}

// inlineDoc builds a unique multi-kernel inline workload per phase so no
// phase is satisfied from a cache warmed by an earlier one.
func inlineDoc(tag string, compute int) string {
	return fmt.Sprintf(`{"name":"fault_%s","kernels":[`+
		`{"name":"a","grid":[64,1,1],"block":[128,1,1],"mix":{"compute":%d,"global_loads":4},"coalescing_factor":4,"working_set_bytes":1048576,"repeat":4},`+
		`{"name":"b","grid":[32,1,1],"block":[64,1,1],"mix":{"compute":%d,"global_loads":8},"coalescing_factor":2,"working_set_bytes":4194304,"repeat":3}]}`,
		tag, compute, compute+7)
}

// TestServeFaultInjection drives the server's remote tier through a
// worker crash, a busy storm, a hang, and a recovery, asserting after
// each phase that the response still matches the serial reference
// byte-for-byte — degraded delivery may cost time, never correctness —
// and that the circuit breaker opens and then readmits the healed worker.
func TestServeFaultInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-phase fault orchestration; skipped in -short")
	}
	var dyingMode, faultyMode atomic.Int32
	dying := faultWorker(&dyingMode)
	faulty := faultWorker(&faultyMode)
	defer faulty.Close()

	observer := obs.NewObserver()
	rm := observer.RemoteMetrics()
	disp := remote.NewDispatcher(remote.DispatcherOptions{
		Workers:      []string{dying.URL, faulty.URL},
		CapPerWorker: 4,
		HedgeAfter:   25 * time.Millisecond,
		Timeout:      300 * time.Millisecond,
		BreakAfter:   2,
		Cooldown:     200 * time.Millisecond,
		Metrics:      rm,
	})
	exec := sampling.NewExec(parallel.NewScheduler(2), nil)
	exec.SetRemote(disp)
	srv := serve.New(serve.Options{Exec: exec, Workers: 2, Obs: observer})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	study := func(phase, doc string) []byte {
		t.Helper()
		resp, err := http.Post(ts.URL+serve.StudyPath, "application/json", strings.NewReader(doc))
		if err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s %s (%v)", phase, resp.Status, body, err)
		}
		return body
	}
	// check runs one inline-workload study through the faulted stack and
	// diffs it against the serial, remote-free reference.
	check := func(phase, tag string, compute int) {
		t.Helper()
		doc := fmt.Sprintf(`{"mode":"full","workload_json":%s}`, inlineDoc(tag, compute))
		got := study(phase, doc)
		ref, err := serve.DecodeStudyRequest(strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		direct, err := serve.Run(nil, nil, ref)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(direct)
		want = append(want, '\n')
		if !bytes.Equal(got, want) {
			t.Errorf("%s: response diverged from serial reference\n got %s\nwant %s", phase, got, want)
		}
	}

	// Phase 1: healthy pool. The remote tier must actually serve RPCs.
	check("phase1-healthy", "p1", 20)
	if rm.RPCSuccess.Value() == 0 {
		t.Fatal("phase1: healthy pool served no RPCs")
	}

	// Phase 2: one worker dies mid-fleet (connections severed, socket
	// closed), the other answers only 429. Every task must fall back to
	// local simulation; busy responses must NOT trip the breaker.
	dying.CloseClientConnections()
	dying.Close()
	faultyMode.Store(workerBusy)
	busyBefore := rm.Busy.Value()
	check("phase2-dead+busy", "p2", 30)
	if rm.FallbackLocal.Value() == 0 {
		t.Error("phase2: no local fallbacks despite a dead+busy pool")
	}
	if rm.Busy.Value() == busyBefore {
		t.Error("phase2: busy worker was never consulted")
	}

	// Phase 3: the survivor hangs instead. RPC timeouts are consecutive
	// failures, so the breaker must open.
	faultyMode.Store(workerHang)
	check("phase3-hang", "p3", 40)
	if rm.BreakerOpens.Value() == 0 {
		t.Error("phase3: hanging worker never opened its breaker")
	}

	// Phase 4: the survivor heals. After the cooldown the breaker must
	// readmit it and remote successes must resume.
	faultyMode.Store(workerHealthy)
	time.Sleep(450 * time.Millisecond) // > Cooldown, with slack
	successBefore := rm.RPCSuccess.Value()
	check("phase4-recovered", "p4", 50)
	if rm.RPCSuccess.Value() == successBefore {
		t.Error("phase4: healed worker got no RPCs; breaker never recovered")
	}
}
