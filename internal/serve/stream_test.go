package serve_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"pka/internal/artifact"
	"pka/internal/obs"
	"pka/internal/parallel"
	"pka/internal/sampling"
	"pka/internal/serve"
	"pka/internal/workload"
)

// streamBody builds a StreamPath request: one study-request line followed
// by the workload's kernel-event stream.
func streamBody(t *testing.T, reqLine string, wname string) *bytes.Buffer {
	t.Helper()
	w := workload.Find(wname)
	if w == nil {
		t.Fatalf("workload %s not registered", wname)
	}
	var buf bytes.Buffer
	buf.WriteString(reqLine + "\n")
	if err := workload.WriteEvents(&buf, w); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// postBody POSTs body to url+path and returns the status and whole
// response body.
func postBody(t *testing.T, url, path string, body io.Reader) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestStreamEndpointMatchesStudy pins the endpoint's promise: its whole
// response — status, content type and body — is the StudyPath response for
// the same workload and parameters, in every mode.
func TestStreamEndpointMatchesStudy(t *testing.T) {
	srv := serve.New(serve.Options{
		Exec: sampling.NewExec(parallel.NewScheduler(2), nil),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, mode := range []string{"", `,"mode":"pks"`, `,"mode":"full"`} {
		study, err := http.Post(ts.URL+serve.StudyPath, "application/json",
			strings.NewReader(`{"workload":"Rodinia/gauss_208","silicon":true`+mode+`}`))
		if err != nil {
			t.Fatal(err)
		}
		want, _ := io.ReadAll(study.Body)
		study.Body.Close()
		if study.StatusCode != http.StatusOK {
			t.Fatalf("%s study: %d %s", mode, study.StatusCode, want)
		}

		resp, err := http.Post(ts.URL+serve.StreamPath, "application/x-ndjson",
			streamBody(t, `{"silicon":true`+mode+`}`, "Rodinia/gauss_208"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s stream: %d %s", mode, resp.StatusCode, got)
		}
		if ct, want := resp.Header.Get("Content-Type"), study.Header.Get("Content-Type"); ct != want {
			t.Errorf("%s: content type %q, the study's %q", mode, ct, want)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: stream response differs from the study response:\ngot:  %s\nwant: %s", mode, got, want)
		}
	}
}

// TestStreamUsesRunner: a stream is served like a study, through the
// server's runner — once per POST — and so through its fair queue and panic
// isolation.
func TestStreamUsesRunner(t *testing.T) {
	var calls atomic.Int64
	var last atomic.Pointer[serve.StudyRequest]
	srv := serve.New(serve.Options{
		Runner: func(req *serve.StudyRequest) (*serve.StudyResponse, error) {
			calls.Add(1)
			last.Store(req)
			return stubResp, nil
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for i := 1; i <= 2; i++ {
		status, body := postBody(t, ts.URL, serve.StreamPath, streamBody(t, `{"tenant":"prod","mode":"pks"}`, "Rodinia/gauss_mat4"))
		if status != http.StatusOK {
			t.Fatalf("POST %d: status %d: %s", i, status, body)
		}
		if n := calls.Load(); n != int64(i) {
			t.Fatalf("after %d POSTs the runner ran %d times", i, n)
		}
	}
	if got := last.Load(); got.Tenant != "prod" || got.Mode != "pks" {
		t.Errorf("runner saw tenant %q mode %q, want prod pks", got.Tenant, got.Mode)
	}
	if h := srv.Health(); h.Requests != 2 || h.Completed != 2 {
		t.Errorf("health after two streams: %+v", h)
	}
}

// TestStreamReadsStudySelection: a stream selects the way a study does,
// through the selection store under a key over every launch, so after a
// /v1/study of a workload a /v1/stream of its events reads the study's
// selection — one more selection hit, no K sweep — and still ends in the
// study's bytes.
func TestStreamReadsStudySelection(t *testing.T) {
	store, err := artifact.Open(t.TempDir(), artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	exec := sampling.NewExec(parallel.NewScheduler(2), store)
	o := obs.NewObserver()
	ts := httptest.NewServer(serve.New(serve.Options{Exec: exec, Obs: o}).Handler())
	defer ts.Close()

	post := func(path string, body io.Reader) []byte {
		t.Helper()
		status, out := postBody(t, ts.URL, path, body)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, status, out)
		}
		return out
	}
	want := post(serve.StudyPath, strings.NewReader(`{"workload":"Rodinia/gauss_208"}`))
	hits, steps := exec.CacheStats()["selection"].Hits, o.PKSMetrics().SweepSteps.Value()
	body := post(serve.StreamPath, streamBody(t, "{}", "Rodinia/gauss_208"))
	if got := exec.CacheStats()["selection"].Hits; got != hits+1 {
		t.Errorf("selection hits %d after the stream, want %d", got, hits+1)
	}
	if got := o.PKSMetrics().SweepSteps.Value(); got != steps {
		t.Errorf("pka_pks_sweep_steps_total moved %d -> %d: the stream swept K again", steps, got)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("stream response differs from the study response:\ngot:  %s\nwant: %s", body, want)
	}
}

// TestStreamEndpointRejects covers the door: bad request lines, workloads
// named in the request line and corrupt event streams are 400s, counted as
// invalid; a request line that sets any mode, full included, is accepted.
func TestStreamEndpointRejects(t *testing.T) {
	srv := serve.New(serve.Options{Exec: sampling.NewExec(parallel.NewScheduler(2), nil)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	w := workload.Find("Rodinia/gauss_mat4")
	var events bytes.Buffer
	if err := workload.WriteEvents(&events, w); err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(events.Bytes(), []byte("\n"))
	bad := map[string]string{
		"empty body":       "",
		"broken line":      "{\n",
		"names a workload": `{"workload":"Rodinia/gauss_mat4"}` + "\n" + events.String(),
		"unknown field":    `{"unknown":1}` + "\n" + events.String(),
		"no events":        "{}\n",
		"wrong schema":     "{}\n" + `{"stream":"wrong-schema","kernels":1}` + "\n",
		// The header promises more launches than arrive.
		"truncated": "{}\n" + string(bytes.Join(lines[:len(lines)-2], nil)),
		// An event breaks off mid-line.
		"broken event": "{}\n" + string(bytes.Join(lines[:3], nil)) + "{\"launch\":\n",
	}
	for label, body := range bad {
		if status, out := postBody(t, ts.URL, serve.StreamPath, strings.NewReader(body)); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", label, status, out)
		}
	}
	if h := srv.Health(); h.Invalid != int64(len(bad)) || h.Requests != 0 {
		t.Errorf("health after %d bad streams: %+v", len(bad), h)
	}
	for _, line := range []string{`{}`, `{"mode":"full"}`, `{"mode":"pks","device":"turing"}`} {
		if status, out := postBody(t, ts.URL, serve.StreamPath, strings.NewReader(line+"\n"+events.String())); status != http.StatusOK {
			t.Errorf("request line %s: status %d, want 200: %s", line, status, out)
		}
	}
}

// TestStreamReportsSelectionTelemetry: a streamed selection reaches the
// server's observer the way a studied one does — one
// pka_pks_selections_total and the same pks audit trail each.
func TestStreamReportsSelectionTelemetry(t *testing.T) {
	o := obs.NewObserver()
	srv := serve.New(serve.Options{Exec: sampling.NewExec(parallel.NewScheduler(2), nil), Obs: o})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	pksAudit := func() []obs.AuditRecord {
		recs := o.Audit.Filter("pks", "")
		for i := range recs {
			recs[i].Seq = 0
		}
		return recs
	}
	post := func(path string, body io.Reader) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
	selections := o.PKSMetrics().Selections
	post(serve.StudyPath, strings.NewReader(`{"workload":"Rodinia/gauss_208"}`))
	if n := selections.Value(); n != 1 {
		t.Fatalf("study: pka_pks_selections_total = %d, want 1", n)
	}
	studied := pksAudit()
	if len(studied) == 0 {
		t.Fatal("study left no pks audit records")
	}
	post(serve.StreamPath, streamBody(t, "{}", "Rodinia/gauss_208"))
	if n := selections.Value(); n != 2 {
		t.Errorf("study + stream: pka_pks_selections_total = %d, want 2", n)
	}
	if streamed := pksAudit()[len(studied):]; !reflect.DeepEqual(streamed, studied) {
		t.Errorf("stream's pks audit differs from the study's:\ngot:  %+v\nwant: %+v", streamed, studied)
	}
}
