package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"pka/internal/gpu"
	"pka/internal/obs"
	"pka/internal/pkp"
	"pka/internal/pks"
	"pka/internal/sampling"
	"pka/internal/serve"
	"pka/internal/sim"
	"pka/internal/workload"
)

func postStudy(t *testing.T, ts *httptest.Server, body string, traceparent string) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+serve.StudyPath, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if traceparent != "" {
		req.Header.Set(serve.TraceparentHeader, traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	return b
}

// TestTracedStudyDeterminism is the tentpole acceptance test at the serve
// tier: tracing and provenance only APPEND fields — every study byte is
// identical with them on or off — and the appended provenance accounts
// every kernel launch to exactly one tier.
func TestTracedStudyDeterminism(t *testing.T) {
	srv := serve.New(serve.Options{
		Exec:     sampling.NewExec(nil, nil),
		TraceIDs: obs.NewIDGen(11),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	plain := postStudy(t, ts, `{"workload":"Rodinia/gauss_mat4","mode":"pka"}`, "")

	parent := obs.NewIDGen(3).NewTrace()
	traced := postStudy(t, ts,
		`{"workload":"Rodinia/gauss_mat4","mode":"pka","trace":true,"provenance":true}`,
		parent.Traceparent())

	// Byte-level: the traced response is the plain response with
	// provenance and trace appended before the closing brace.
	if !bytes.HasSuffix(plain, []byte("}\n")) {
		t.Fatalf("unexpected plain response tail: %q", plain[len(plain)-4:])
	}
	prefix := plain[:len(plain)-2]
	if !bytes.HasPrefix(traced, prefix) {
		t.Fatalf("traced response diverges from plain study bytes:\nplain:  %s\ntraced: %s", plain, traced)
	}
	if !bytes.HasPrefix(traced[len(prefix):], []byte(`,"provenance":`)) {
		t.Fatalf("traced response does not append provenance first: %s", traced[len(prefix):])
	}

	var got serve.StudyResponse
	if err := json.Unmarshal(traced, &got); err != nil {
		t.Fatal(err)
	}
	if got.Provenance == nil {
		t.Fatal("no provenance block on a provenance-requesting response")
	}
	if got.Provenance.TraceID != parent.TraceID {
		t.Errorf("provenance trace ID %s, want the client's %s", got.Provenance.TraceID, parent.TraceID)
	}
	sum := 0
	for _, n := range got.Provenance.Tiers {
		sum += n
	}
	if sum != got.Kernels || got.Provenance.Kernels != got.Kernels {
		t.Errorf("tier counts sum %d / provenance kernels %d, want the study's launch count %d",
			sum, got.Provenance.Kernels, got.Kernels)
	}
	if len(got.Trace) == 0 {
		t.Fatal("no merged trace on a traced response")
	}
	var doc struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(got.Trace, &doc); err != nil {
		t.Fatalf("embedded trace is not valid JSON: %v", err)
	}
	foundProc, foundRoot := false, false
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" && ev.Args["name"] == "pkaserve" {
			foundProc = true
		}
		if ev.Ph == "X" && strings.HasPrefix(ev.Name, "study ") {
			foundRoot = true
			if tid, _ := ev.Args["trace_id"].(string); tid != parent.TraceID {
				t.Errorf("root span trace_id %v, want %s", ev.Args["trace_id"], parent.TraceID)
			}
			if pid, _ := ev.Args["parent_id"].(string); pid != parent.SpanID {
				t.Errorf("root span parent_id %v, want the client's span %s", ev.Args["parent_id"], parent.SpanID)
			}
		}
	}
	if !foundProc || !foundRoot {
		t.Fatalf("merged trace missing pkaserve process (%v) or study root span (%v)", foundProc, foundRoot)
	}

	// The body flag alone (no header) starts a fresh root trace.
	rooted := postStudy(t, ts, `{"workload":"Rodinia/gauss_mat4","mode":"pka","trace":true}`, "")
	var fresh serve.StudyResponse
	if err := json.Unmarshal(rooted, &fresh); err != nil {
		t.Fatal(err)
	}
	if len(fresh.Trace) == 0 {
		t.Fatal("body trace flag did not produce a trace")
	}
	if fresh.Provenance != nil {
		t.Fatal("provenance block present without being requested")
	}

	// Provenance leaves through the response alone: the server keeps no
	// debug ring of recent studies behind a second endpoint.
	dresp, err := http.Get(ts.URL + "/v1/debug/provenance")
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Errorf("/v1/debug/provenance answered %s, want 404", dresp.Status)
	}
}

// TestMalformedTraceparentIgnored pins "unparseable means not traced":
// garbage headers yield the plain response, never an error.
func TestMalformedTraceparentIgnored(t *testing.T) {
	srv := serve.New(serve.Options{Exec: sampling.NewExec(nil, nil)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	plain := postStudy(t, ts, `{"workload":"Rodinia/gauss_mat4","mode":"pks"}`, "")
	garbled := postStudy(t, ts, `{"workload":"Rodinia/gauss_mat4","mode":"pks"}`, "00-zzzz-not-a-trace-01")
	if !bytes.Equal(plain, garbled) {
		t.Fatalf("malformed traceparent changed the response:\n%s\nvs\n%s", plain, garbled)
	}
}

// TestSingleModeStudyStopsAtPKPStop: a served single-mode request has no
// other policy to answer, so its tasks carry no riders and a novel "pka"
// study simulates each representative only as far as PKP lets it — every
// simulator span ends on the cycle a run under the projector alone ends on,
// and the spans' work adds up to the response's.
func TestSingleModeStudyStopsAtPKPStop(t *testing.T) {
	const name = "Rodinia/bfs65536"
	o := obs.NewObserver()
	req, err := serve.DecodeStudyRequest(strings.NewReader(`{"workload":"` + name + `","mode":"pka"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := serve.Run(sampling.NewExec(nil, nil), o, req)
	if err != nil {
		t.Fatal(err)
	}

	dev, w := gpu.VoltaV100(), workload.Find(name)
	sel, err := pks.Select(dev, w, pks.Options{})
	if err != nil {
		t.Fatal(err)
	}
	type stop struct{ cycles, warpInstrs float64 }
	want := map[stop]int{}
	truncated := 0
	for _, g := range sel.Groups {
		k := w.Kernel(g.RepIndex)
		res, err := sim.New(dev).RunKernel(&k, sim.Options{Controller: pkp.New(pkp.Options{})})
		if err != nil {
			t.Fatal(err)
		}
		want[stop{float64(res.Cycles), float64(res.WarpInstrs)}]++
		if res.StoppedEarly {
			truncated++
		}
	}
	if truncated == 0 {
		t.Fatal("PKP stops none of the representatives early: the test shows nothing")
	}

	var buf bytes.Buffer
	if err := o.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			Tid  int                    `json:"tid"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	simTid := -1
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Args["name"] == "sim:pka:"+name {
			simTid = ev.Tid
		}
	}
	got := map[stop]int{}
	var work float64
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Tid == simTid {
			s := stop{ev.Args["cycles"].(float64), ev.Args["warp_instrs"].(float64)}
			got[s]++
			work += s.warpInstrs
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("simulator spans end at %v, runs under PKP alone end at %v", got, want)
	}
	if int64(work) != resp.SimWarpInstrs {
		t.Errorf("simulator spans add up to %d warp instructions, the response says %d", int64(work), resp.SimWarpInstrs)
	}
}
