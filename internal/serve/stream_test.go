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

// TestStreamEndpointMatchesStudy pins the progressive endpoint's core
// promise: the final NDJSON line is byte-identical to the StudyPath
// response for the same workload and parameters, with one progress line
// ahead of it that accounts for the whole intake.
func TestStreamEndpointMatchesStudy(t *testing.T) {
	srv := serve.New(serve.Options{
		Exec: sampling.NewExec(parallel.NewScheduler(2), nil),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The default mode, pka, and pks: each streams under its own plan.
	for _, mode := range []string{"", `,"mode":"pks"`} {
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
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("%s stream: %d %s", mode, resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Errorf("content type %q", ct)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimRight(body, "\n"), []byte("\n"))
		if len(lines) != 2 {
			t.Fatalf("expected one progress line before the response, got %d line(s): %s", len(lines), body)
		}
		var pl serve.StreamLine
		if err := json.Unmarshal(lines[0], &pl); err != nil || pl.Progress == nil {
			t.Fatalf("non-progress line before the final response: %s (err %v)", lines[0], err)
		}
		// gauss_208 fits the detailed-profiling budget whole.
		if n := workload.Find("Rodinia/gauss_208").N; *pl.Progress != (serve.StreamProgress{Events: n, Detailed: n}) {
			t.Errorf("%s: progress %+v, want %d events all detailed", mode, *pl.Progress, n)
		}
		got := append(lines[1], '\n')
		if !bytes.Equal(got, want) {
			t.Errorf("%s: final stream line differs from the study response:\ngot:  %s\nwant: %s", mode, got, want)
		}
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
		resp, err := http.Post(ts.URL+path, "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, err %v: %s", path, resp.StatusCode, err, out)
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
	lines := bytes.SplitAfter(bytes.TrimRight(body, "\n"), []byte("\n"))
	if got := append(lines[len(lines)-1], '\n'); !bytes.Equal(got, want) {
		t.Errorf("final stream line differs from the study response:\ngot:  %s\nwant: %s", got, want)
	}
}

// TestStreamEndpointRejects covers the door: bad request lines, workloads
// named in the request line, full mode, and corrupt event streams.
func TestStreamEndpointRejects(t *testing.T) {
	srv := serve.New(serve.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body io.Reader) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+serve.StreamPath, "application/x-ndjson", body)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Request-line rejections are plain HTTP 400s.
	for _, line := range []string{
		``,
		`{`,
		`{"workload":"Rodinia/gauss_mat4"}`,
		`{"mode":"full"}`,
		`{"unknown":1}`,
	} {
		resp := post(strings.NewReader(line + "\n"))
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("request line %q: status %d, want 400", line, resp.StatusCode)
		}
	}

	// Event-stream failures arrive in-band: 200, then an error line.
	resp := post(strings.NewReader("{}\n" + `{"stream":"wrong-schema","kernels":1}` + "\n"))
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-band failure changed the status: %d", resp.StatusCode)
	}
	var pl serve.StreamLine
	if err := json.Unmarshal(bytes.TrimSpace(body), &pl); err != nil || pl.Error == "" {
		t.Errorf("expected an in-band error line, got %s", body)
	}

	// A truncated event stream (header promises more launches than arrive)
	// must fail rather than report a partial study.
	w := workload.Find("Rodinia/gauss_mat4")
	var buf bytes.Buffer
	buf.WriteString("{}\n")
	if err := workload.WriteEvents(&buf, w); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(buf.Bytes(), "\n"), []byte("\n"))
	truncated := bytes.Join(lines[:len(lines)-1], []byte("\n"))
	resp = post(bytes.NewReader(append(truncated, '\n')))
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	pl = serve.StreamLine{}
	if err := json.Unmarshal(bytes.TrimSpace(body), &pl); err != nil || !strings.Contains(pl.Error, "missing") {
		t.Errorf("truncated stream: expected a missing-launches error, got %s", body)
	}

	// So must one whose events break off mid-line.
	broken := append(bytes.Join(lines[:3], []byte("\n")), "\n{\"launch\":\n"...)
	resp = post(bytes.NewReader(broken))
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	pl = serve.StreamLine{}
	if err := json.Unmarshal(bytes.TrimSpace(body), &pl); err != nil || !strings.Contains(pl.Error, "event line") {
		t.Errorf("broken event: expected an event-line error, got %s", body)
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
