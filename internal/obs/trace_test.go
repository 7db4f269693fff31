package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// stepClock returns a fake clock that advances by step on every reading.
// NewTracerAt consumes the first reading as t0, so the first stamped event
// lands at exactly one step.
func stepClock(step time.Duration) func() time.Time {
	base := time.Unix(1000, 0)
	n := -1
	return func() time.Time {
		n++
		return base.Add(time.Duration(n) * step)
	}
}

// TestChromeTraceGolden pins the exact trace_event JSON: thread_name
// metadata on first track use, complete and instant events, (tid, ts, name)
// ordering, and ordered span args.
func TestChromeTraceGolden(t *testing.T) {
	tr := NewTracerAt(stepClock(100 * time.Microsecond))
	phase := tr.Track("phase")
	sp := phase.Start("build", Arg{Key: "k", Val: 1}) // ts=100
	sp.Arg("ok", true)
	sp.End() // ts=200 -> dur=100
	audit := tr.Track("audit")
	audit.Instant("mark", Arg{Key: "s", Val: "x"}) // ts=300

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"displayTimeUnit":"ms","traceEvents":[` + "\n" + strings.Join([]string{
		`{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"phase"}}`,
		`{"name":"build","ph":"X","pid":1,"tid":1,"ts":100,"dur":100,"args":{"k":1,"ok":true}}`,
		`{"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"audit"}}`,
		`{"name":"mark","ph":"i","pid":1,"tid":2,"ts":300,"s":"t","args":{"s":"x"}}`,
	}, ",\n") + "\n]}\n"
	if got := buf.String(); got != want {
		t.Errorf("trace mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	var parsed struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) != 4 {
		t.Errorf("parsed %d events, want 4", len(parsed.TraceEvents))
	}
}

type chromeEvent struct {
	Name string                 `json:"name"`
	Ph   string                 `json:"ph"`
	Pid  int64                  `json:"pid"`
	Tid  int64                  `json:"tid"`
	Ts   int64                  `json:"ts"`
	Args map[string]interface{} `json:"args"`
}

func parseChrome(t *testing.T, b []byte) []chromeEvent {
	t.Helper()
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, b)
	}
	return doc.TraceEvents
}

// TestLegacySingleProcessUnchanged pins that a tracer without a process
// name still renders the exact historical output: no process_name
// metadata, everything on pid 1.
func TestLegacySingleProcessUnchanged(t *testing.T) {
	tr := NewTracerAt(stepClock(100 * time.Microsecond))
	tr.Track("phase").Start("build").End()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	for _, ev := range parseChrome(t, buf.Bytes()) {
		if ev.Name == "process_name" || ev.Name == "trace_dropped" {
			t.Fatalf("single-process trace grew %q metadata", ev.Name)
		}
		if ev.Pid != 1 {
			t.Fatalf("single-process event on pid %d", ev.Pid)
		}
	}
	tr.SetProcessName("pka")
	buf.Reset()
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if evs := parseChrome(t, buf.Bytes()); evs[0].Name != "process_name" || evs[0].Args["name"] != "pka" || evs[0].Pid != 1 {
		t.Fatalf("named trace opens with %+v, want pid 1's process_name pka", evs[0])
	}
}

// TestDropAccounting pins the silent-loss fix: events past the memory cap
// increment the registered counter and surface as trace_dropped metadata.
func TestDropAccounting(t *testing.T) {
	old := maxTraceEvents
	maxTraceEvents = 3
	defer func() { maxTraceEvents = old }()
	tr := NewTracerAt(stepClock(time.Microsecond))
	ctr := NewRegistry().Counter("pka_trace_dropped_total", "t")
	tr.SetDropCounter(ctr)
	tr.Track("x").Instant("kept")      // thread_name meta + event: 2 of 3
	tr.Track("x").Instant("also kept") // 3 of 3: at the cap now
	tr.Track("x").Instant("overflow")
	tr.Track("x").Start("span").End()
	if got := ctr.Value(); got != 2 {
		t.Fatalf("drop counter = %d, want 2", got)
	}
	if got := tr.Dropped(); got != 2 {
		t.Fatalf("Dropped() = %d, want 2", got)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	foundDropped := false
	for _, ev := range parseChrome(t, buf.Bytes()) {
		if ev.Name == "trace_dropped" {
			foundDropped = true
			if n := ev.Args["dropped"].(float64); int64(n) != 2 {
				t.Fatalf("trace_dropped = %v, want 2", n)
			}
		}
	}
	if !foundDropped {
		t.Fatal("no trace_dropped metadata in trace with drops")
	}
}

// TestObserverTraceMergesAudit pins that WriteChromeTrace renders audit
// records as instants on per-component audit tracks, fields sorted by key.
func TestObserverTraceMergesAudit(t *testing.T) {
	o := NewObserverAt(stepClock(100 * time.Microsecond))
	o.StartSpan("phase", "build").End() // ts=100..200
	o.Audit.Record("pkp", "stop", "k1", 42, map[string]float64{"drift_cv": 0.1})

	var buf bytes.Buffer
	if err := o.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"displayTimeUnit":"ms","traceEvents":[` + "\n" + strings.Join([]string{
		`{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"phase"}}`,
		`{"name":"build","ph":"X","pid":1,"tid":1,"ts":100,"dur":100}`,
		`{"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"audit:pkp"}}`,
		`{"name":"pkp:stop","ph":"i","pid":1,"tid":2,"ts":300,"s":"t","args":{"subject":"k1","seq":1,"cycle":42,"drift_cv":0.1}}`,
	}, ",\n") + "\n]}\n"
	if got := buf.String(); got != want {
		t.Errorf("trace mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestNegativeDurationClamped(t *testing.T) {
	times := []time.Duration{0, 500 * time.Microsecond, 300 * time.Microsecond}
	i := -1
	tr := NewTracerAt(func() time.Time {
		i++
		return time.Unix(1000, 0).Add(times[i])
	})
	tr.Track("t").Start("backwards").End()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"dur":0`) {
		t.Errorf("backwards clock did not clamp duration to 0:\n%s", buf.String())
	}
}

func TestNilTracerInert(t *testing.T) {
	var tr *Tracer
	tk := tr.Track("x")
	if tk != nil {
		t.Error("nil tracer returned a live track")
	}
	sp := tk.Start("y")
	sp.Arg("k", 1)
	sp.End()
	tk.Instant("z")
	if tr.Dropped() != 0 {
		t.Error("nil tracer reported drops")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != `{"traceEvents":[]}` {
		t.Errorf("nil tracer trace = %q", got)
	}

	var o *Observer
	o.StartSpan("a", "b").End()
	if o.SimObs("t") != nil || o.SimMetrics() != nil || o.PKPMetrics() != nil ||
		o.PKSMetrics() != nil || o.PoolMetrics() != nil {
		t.Error("nil observer returned live components")
	}
	var so *SimObs
	so.StartKernel("k").End()
	buf.Reset()
	if err := o.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != `{"traceEvents":[]}` {
		t.Errorf("nil observer trace = %q", got)
	}
}

// TestConcurrentTracks exercises the tracer from many goroutines (the race
// detector turns this into the thread-safety check) and confirms the
// export stays valid JSON with every event accounted for.
func TestConcurrentTracks(t *testing.T) {
	tr := NewTracer()
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tk := tr.Track("worker-" + string(rune('a'+w)))
			for i := 0; i < perWorker; i++ {
				sp := tk.Start("task", Arg{Key: "i", Val: i})
				tk.Instant("tick")
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("concurrent trace is not valid JSON: %v", err)
	}
	// workers metadata events + per worker: perWorker spans + instants.
	want := workers * (1 + 2*perWorker)
	if len(parsed.TraceEvents) != want {
		t.Errorf("exported %d events, want %d", len(parsed.TraceEvents), want)
	}
	if tr.Dropped() != 0 {
		t.Errorf("dropped %d events below the cap", tr.Dropped())
	}
}

// TestPoolMetricsLifecycle checks the queued/active bookkeeping through a
// task's life and that the high-water mark sticks.
func TestPoolMetricsLifecycle(t *testing.T) {
	o := NewObserverAt(stepClock(time.Microsecond))
	pm := o.PoolMetrics()
	pm.TaskQueued()
	pm.TaskQueued()
	if pm.Queued.Value() != 2 {
		t.Errorf("queue depth = %v, want 2", pm.Queued.Value())
	}
	pm.TaskStarted()
	pm.TaskStarted()
	if pm.Queued.Value() != 0 || pm.Active.Value() != 2 {
		t.Errorf("after start: queued=%v active=%v, want 0/2", pm.Queued.Value(), pm.Active.Value())
	}
	pm.TaskDone()
	pm.TaskDone()
	if pm.Active.Value() != 0 || pm.Tasks.Value() != 2 || pm.MaxSeen.Value() != 2 {
		t.Errorf("after done: active=%v tasks=%v max=%v, want 0/2/2",
			pm.Active.Value(), pm.Tasks.Value(), pm.MaxSeen.Value())
	}
	var nilPM *PoolMetrics
	nilPM.TaskQueued()
	nilPM.TaskStarted()
	nilPM.TaskDone()
}
