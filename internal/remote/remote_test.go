package remote_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pka/internal/artifact"
	"pka/internal/experiments"
	"pka/internal/gpu"
	"pka/internal/obs"
	"pka/internal/parallel"
	"pka/internal/remote"
	"pka/internal/sampling"
	"pka/internal/workload"
)

// worker spins up one in-process pkad-equivalent over its own artifact
// store, optionally wrapped by mw (fault injection).
func worker(t *testing.T, dir string, mw func(http.Handler) http.Handler) (*httptest.Server, *artifact.Store) {
	t.Helper()
	var st *artifact.Store
	if dir != "" {
		var err error
		st, err = artifact.Open(dir, artifact.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
	}
	h := remote.NewServer(sampling.NewExec(nil, st), 4).Handler()
	if mw != nil {
		h = mw(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts, st
}

func remoteStudy(t *testing.T, d *remote.Dispatcher) *experiments.Study {
	t.Helper()
	s := experiments.New()
	s.Cfg.Parallelism = 4
	var ws []*workload.Workload
	for _, name := range []string{"Rodinia/gauss_mat4", "Rodinia/bfs4096"} {
		w := workload.Find(name)
		if w == nil {
			t.Fatalf("missing study workload %s", name)
		}
		ws = append(ws, w)
	}
	s.SetWorkloads(ws)
	if d != nil {
		s.Cfg.Exec = sampling.NewExec(parallel.NewScheduler(s.Cfg.Parallelism), nil)
		s.Cfg.Exec.SetRemote(d)
	}
	return s
}

func render(t *testing.T, s *experiments.Study) string {
	t.Helper()
	var sb strings.Builder
	c6, t6, err := experiments.Figure6(s)
	if err != nil {
		t.Fatal(err)
	}
	sb.WriteString(c6.String())
	sb.WriteString(t6.String())
	tab4, err := experiments.Table4(s)
	if err != nil {
		t.Fatal(err)
	}
	sb.WriteString(tab4.String())
	return sb.String()
}

// TestRemoteDeterminism is the scale-out golden test: a serial local
// study, a study dispatched to one healthy worker, and a study dispatched
// to a degenerate three-worker pool — one healthy, one that fails every
// third request, one killed mid-study — must render byte-identical
// figures. The remote tier may only change where cycles are spent.
func TestRemoteDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the study pipeline three times")
	}
	serial := render(t, remoteStudy(t, nil))

	// One healthy worker.
	o1 := obs.NewObserver()
	ts1, st1 := worker(t, t.TempDir(), nil)
	d1 := remote.NewDispatcher(remote.DispatcherOptions{
		Workers: []string{ts1.URL},
		Metrics: o1.RemoteMetrics(),
	})
	one := render(t, remoteStudy(t, d1))
	if one != serial {
		t.Errorf("1-worker output diverges from serial:\n--- serial ---\n%s\n--- remote ---\n%s", serial, one)
	}
	if got := o1.RemoteMetrics().Tasks.Value(); got == 0 {
		t.Error("1-worker study served no tasks remotely — the tier never engaged")
	}
	if st1.Stats().Writes == 0 {
		t.Error("worker persisted nothing to its artifact store")
	}

	// Three workers: healthy, flaky (every 3rd exec request 500s), and one
	// killed after its 4th request — mid-study worker death.
	o3 := obs.NewObserver()
	healthy, _ := worker(t, "", nil)
	var flakyN atomic.Int64
	flaky, _ := worker(t, "", func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if flakyN.Add(1)%3 == 0 {
				http.Error(w, "injected fault", http.StatusInternalServerError)
				return
			}
			next.ServeHTTP(w, r)
		})
	})
	dying, _ := worker(t, "", nil)
	d3 := remote.NewDispatcher(remote.DispatcherOptions{
		Workers:    []string{healthy.URL, flaky.URL, dying.URL},
		HedgeAfter: 25 * time.Millisecond,
		BreakAfter: 2,
		Cooldown:   100 * time.Millisecond,
		Metrics:    o3.RemoteMetrics(),
	})
	// Kill the dying worker after a few tasks land anywhere in the pool.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		for i := 0; i < 200; i++ {
			if o3.RemoteMetrics().RPCs.Value() >= 4 {
				dying.CloseClientConnections()
				dying.Close()
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	three := render(t, remoteStudy(t, d3))
	<-killed
	if three != serial {
		t.Errorf("3-worker (flaky + killed) output diverges from serial:\n--- serial ---\n%s\n--- degraded ---\n%s", serial, three)
	}
	m := o3.RemoteMetrics()
	if m.Tasks.Value() == 0 {
		t.Error("3-worker study served no tasks remotely")
	}
	t.Logf("3-worker degraded pool: rpcs=%d success=%d failures=%d hedges=%d breaker_opens=%d fallback_local=%d",
		m.RPCs.Value(), m.RPCSuccess.Value(), m.RPCFailures.Value(),
		m.Hedges.Value(), m.BreakerOpens.Value(), m.FallbackLocal.Value())
}

func testKernelRequest(t testing.TB) ([]byte, string) {
	t.Helper()
	w := workload.Find("Rodinia/gauss_mat4")
	if w == nil {
		t.Fatal("missing study workload")
	}
	dev := gpu.VoltaV100()
	k := w.Kernel(0)
	task := sampling.KernelTask{Mode: sampling.ModeFull}
	key := sampling.TaskKey(dev, &k, task)
	body, err := json.Marshal(remote.ExecRequest{Key: key, Device: dev, Kernel: k, Task: task})
	if err != nil {
		t.Fatal(err)
	}
	return body, key
}

// TestServerRejectsKeyMismatch: a client whose key derivation disagrees
// with the worker's must get a 400, not a silently cache-poisoning 200.
func TestServerRejectsKeyMismatch(t *testing.T) {
	ts, _ := worker(t, "", nil)
	body, _ := testKernelRequest(t)
	bad := strings.Replace(string(body), `"key":"`, `"key":"00`, 1)
	resp, err := http.Post(ts.URL+remote.ExecPath, "application/json", strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 for a key mismatch", resp.StatusCode)
	}
}

// TestServerExecServes: the happy path returns the exact EncodeOutcome
// payload for a locally computed outcome.
func TestServerExecServes(t *testing.T) {
	ts, _ := worker(t, "", nil)
	body, _ := testKernelRequest(t)
	resp, err := http.Post(ts.URL+remote.ExecPath, "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var er remote.ExecResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	got, err := sampling.DecodeOutcome(er.Outcome)
	if err != nil {
		t.Fatal(err)
	}
	w := workload.Find("Rodinia/gauss_mat4")
	k := w.Kernel(0)
	want, err := (*sampling.Exec)(nil).RunKernelTask(gpu.VoltaV100(), &k, sampling.KernelTask{Mode: sampling.ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("remote outcome %+v != local %+v", got, want)
	}
}

// TestDispatcherEmptyPool: no workers means immediate, counted fallback.
func TestDispatcherEmptyPool(t *testing.T) {
	o := obs.NewObserver()
	d := remote.NewDispatcher(remote.DispatcherOptions{Metrics: o.RemoteMetrics()})
	w := workload.Find("Rodinia/gauss_mat4")
	k := w.Kernel(0)
	dev := gpu.VoltaV100()
	task := sampling.KernelTask{Mode: sampling.ModeFull}
	if _, ok := d.ExecTask(sampling.TaskKey(dev, &k, task), dev, &k, task, 1, nil); ok {
		t.Fatal("empty pool claimed to execute a task")
	}
	if o.RemoteMetrics().FallbackLocal.Value() != 1 {
		t.Fatal("fallback not counted")
	}
}

// TestDispatcherMalformedResponse: a worker speaking garbage is a counted
// failure and a graceful fallback, never an error or a bogus outcome.
func TestDispatcherMalformedResponse(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"outcome":"AAA`)) // truncated JSON
	}))
	t.Cleanup(ts.Close)
	o := obs.NewObserver()
	d := remote.NewDispatcher(remote.DispatcherOptions{Workers: []string{ts.URL}, Metrics: o.RemoteMetrics()})
	w := workload.Find("Rodinia/gauss_mat4")
	k := w.Kernel(0)
	dev := gpu.VoltaV100()
	task := sampling.KernelTask{Mode: sampling.ModeFull}
	if _, ok := d.ExecTask(sampling.TaskKey(dev, &k, task), dev, &k, task, 1, nil); ok {
		t.Fatal("malformed response accepted as an outcome")
	}
	m := o.RemoteMetrics()
	if m.RPCFailures.Value() == 0 {
		t.Fatal("malformed response not counted as an RPC failure")
	}
	if m.FallbackLocal.Value() != 1 {
		t.Fatal("fallback not counted")
	}
}

// TestDispatcherBusyDoesNotTripBreaker: 429 is back-pressure, not failure.
func TestDispatcherBusyDoesNotTripBreaker(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "full", http.StatusTooManyRequests)
	}))
	t.Cleanup(ts.Close)
	o := obs.NewObserver()
	d := remote.NewDispatcher(remote.DispatcherOptions{Workers: []string{ts.URL}, BreakAfter: 2, Metrics: o.RemoteMetrics()})
	w := workload.Find("Rodinia/gauss_mat4")
	k := w.Kernel(0)
	dev := gpu.VoltaV100()
	task := sampling.KernelTask{Mode: sampling.ModeFull}
	key := sampling.TaskKey(dev, &k, task)
	for i := 0; i < 5; i++ {
		if _, ok := d.ExecTask(key, dev, &k, task, 1, nil); ok {
			t.Fatal("busy worker produced an outcome")
		}
	}
	m := o.RemoteMetrics()
	if m.Busy.Value() != 5 {
		t.Fatalf("busy count = %d, want 5", m.Busy.Value())
	}
	if m.BreakerOpens.Value() != 0 {
		t.Fatal("busy rejections tripped the breaker")
	}
	if m.RPCFailures.Value() != 0 {
		t.Fatal("busy rejections counted as failures")
	}
}

// TestDispatcherBreaker: a dead worker is excluded after BreakAfter
// consecutive failures and probed again only after the cooldown.
func TestDispatcherBreaker(t *testing.T) {
	o := obs.NewObserver()
	d := remote.NewDispatcher(remote.DispatcherOptions{
		Workers:    []string{"http://127.0.0.1:1"}, // reserved port: instant connection refused
		BreakAfter: 2,
		Cooldown:   250 * time.Millisecond,
		Timeout:    2 * time.Second,
		Metrics:    o.RemoteMetrics(),
	})
	w := workload.Find("Rodinia/gauss_mat4")
	k := w.Kernel(0)
	dev := gpu.VoltaV100()
	task := sampling.KernelTask{Mode: sampling.ModeFull}
	key := sampling.TaskKey(dev, &k, task)
	for i := 0; i < 4; i++ {
		d.ExecTask(key, dev, &k, task, 1, nil)
	}
	m := o.RemoteMetrics()
	if m.BreakerOpens.Value() == 0 {
		t.Fatal("breaker never opened on a dead worker")
	}
	rpcsWhenOpen := m.RPCs.Value()
	if rpcsWhenOpen >= 4 {
		t.Fatalf("breaker did not exclude the dead worker: %d RPCs for 4 tasks", rpcsWhenOpen)
	}
	st := d.Stats()
	if len(st) != 1 || !st[0].BreakerOpen {
		t.Fatalf("Stats does not report the open breaker: %+v", st)
	}
	// Broken worker -> no RPC at all, immediate fallback.
	d.ExecTask(key, dev, &k, task, 1, nil)
	if m.RPCs.Value() != rpcsWhenOpen {
		t.Fatal("dispatcher sent an RPC while the breaker was open")
	}
	// After the cooldown the worker is probed again.
	time.Sleep(300 * time.Millisecond)
	d.ExecTask(key, dev, &k, task, 1, nil)
	if m.RPCs.Value() == rpcsWhenOpen {
		t.Fatal("breaker never half-opened after the cooldown")
	}
}

// TestDispatcherHedgeWins: when the least-loaded worker (index 0 on a
// fresh pool) sits on a request past the hedge delay, the duplicate on the
// second worker must win and the task must still succeed.
func TestDispatcherHedgeWins(t *testing.T) {
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server's background read starts and
		// r.Context() is cancelled when the dispatcher abandons the loser.
		_, _ = io.Copy(io.Discard, r.Body)
		select {
		case <-release:
		case <-r.Context().Done():
		}
		http.Error(w, "too late", http.StatusInternalServerError)
	}))
	t.Cleanup(slow.Close)
	// Cleanups run LIFO: release the handler before slow.Close waits on it.
	t.Cleanup(func() { close(release) })
	fast, _ := worker(t, "", nil)
	o := obs.NewObserver()
	d := remote.NewDispatcher(remote.DispatcherOptions{
		Workers:    []string{slow.URL, fast.URL}, // ties break to index 0: the stuck worker gets the primary
		HedgeAfter: 20 * time.Millisecond,
		Metrics:    o.RemoteMetrics(),
	})
	w := workload.Find("Rodinia/gauss_mat4")
	k := w.Kernel(0)
	dev := gpu.VoltaV100()
	task := sampling.KernelTask{Mode: sampling.ModeFull}
	oc, ok := d.ExecTask(sampling.TaskKey(dev, &k, task), dev, &k, task, 1, nil)
	if !ok {
		t.Fatal("hedged task failed")
	}
	if oc.ProjCycles <= 0 {
		t.Fatalf("hedge returned an empty outcome: %+v", oc)
	}
	m := o.RemoteMetrics()
	if m.Hedges.Value() != 1 {
		t.Fatalf("hedges = %d, want 1", m.Hedges.Value())
	}
	if m.HedgeWins.Value() != 1 {
		t.Fatalf("hedge wins = %d, want 1", m.HedgeWins.Value())
	}
}

// TestSharedCacheTier: two workers over the same artifact directory form
// one cache — work done through worker A is served from disk by worker B.
func TestSharedCacheTier(t *testing.T) {
	dir := t.TempDir()
	a, storeA := worker(t, dir, nil)
	body, _ := testKernelRequest(t)
	resp, err := http.Post(a.URL+remote.ExecPath, "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("worker A status %d", resp.StatusCode)
	}
	if storeA.Stats().Writes == 0 {
		t.Fatal("worker A did not persist the outcome")
	}

	b, storeB := worker(t, dir, nil)
	resp, err = http.Post(b.URL+remote.ExecPath, "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("worker B status %d", resp.StatusCode)
	}
	st := storeB.Stats()
	if st.Hits == 0 {
		t.Fatal("worker B recomputed an outcome worker A already persisted in the shared store")
	}
	if st.Writes != 0 {
		t.Fatalf("worker B wrote %d entries that were already in the shared store", st.Writes)
	}
}
