package serve_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"pka/internal/artifact"
	"pka/internal/obs"
	"pka/internal/parallel"
	"pka/internal/sampling"
	"pka/internal/serve"
	"pka/internal/workload"
)

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

// documentRequest is a /v1/study request carrying the catalogue workload
// name's emitted document as workload_json, with params (a JSON object's
// members, or empty) after it.
func documentRequest(t *testing.T, name, params string) []byte {
	t.Helper()
	var doc bytes.Buffer
	if err := workload.WriteJSON(&doc, workload.Find(name)); err != nil {
		t.Fatal(err)
	}
	req := append([]byte(`{"workload_json":`), doc.Bytes()...)
	if len(req)+len(params)+2 > serve.MaxStudyRequestBytes {
		t.Fatalf("the %s request is over MaxStudyRequestBytes", name)
	}
	return append(append(req, params...), '}')
}

// TestWorkloadJSONMatchesStudy: a study of a catalogue workload sent as its
// document answers exactly what the study naming it answers — status,
// content type and body — in every mode.
func TestWorkloadJSONMatchesStudy(t *testing.T) {
	ts := httptest.NewServer(serve.New(serve.Options{Exec: sampling.NewExec(parallel.NewScheduler(2), nil)}).Handler())
	defer ts.Close()
	post := func(body []byte) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+serve.StudyPath, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, out
	}
	for _, mode := range []string{"", `,"mode":"pks"`, `,"mode":"full"`} {
		want, wantBody := post([]byte(`{"workload":"Rodinia/gauss_208","silicon":true` + mode + `}`))
		got, gotBody := post(documentRequest(t, "Rodinia/gauss_208", `,"silicon":true`+mode))
		if want.StatusCode != http.StatusOK || got.StatusCode != want.StatusCode {
			t.Fatalf("%s: status %d, the named study's %d: %s", mode, got.StatusCode, want.StatusCode, gotBody)
		}
		if ct, wantCT := got.Header.Get("Content-Type"), want.Header.Get("Content-Type"); ct != wantCT {
			t.Errorf("%s: content type %q, the named study's %q", mode, ct, wantCT)
		}
		if !bytes.Equal(gotBody, wantBody) {
			t.Errorf("%s: the document's response differs from the named study's:\ngot:  %s\nwant: %s", mode, gotBody, wantBody)
		}
	}
}

// TestWorkloadJSONReadsStudySelection: a study of a catalogue workload sent
// as its document selects the way the named study does, through the store
// under a key over every launch, so after a /v1/study naming the workload a
// /v1/study carrying its document as workload_json reads the named study's
// selection — out of the evaluation's pack, one more pack hit, no K sweep —
// and answers with the named study's bytes.
func TestWorkloadJSONReadsStudySelection(t *testing.T) {
	store, err := artifact.Open(t.TempDir(), artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	exec := sampling.NewExec(parallel.NewScheduler(2), store)
	o := obs.NewObserver()
	ts := httptest.NewServer(serve.New(serve.Options{Exec: exec, Obs: o}).Handler())
	defer ts.Close()

	post := func(body []byte) []byte {
		t.Helper()
		status, out := postBody(t, ts.URL, serve.StudyPath, bytes.NewReader(body))
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, out)
		}
		return out
	}
	want := post([]byte(`{"workload":"Rodinia/gauss_208"}`))
	hits, steps := exec.CacheStats()["batch"].Hits, o.PKSMetrics().SweepSteps.Value()

	body := post(documentRequest(t, "Rodinia/gauss_208", ""))
	if got := exec.CacheStats()["batch"].Hits; got != hits+1 {
		t.Errorf("pack hits %d after the document's study, want %d", got, hits+1)
	}
	if got := o.PKSMetrics().SweepSteps.Value(); got != steps {
		t.Errorf("pka_pks_sweep_steps_total moved %d -> %d: the document's study swept K again", steps, got)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("the document's response differs from the named study's:\ngot:  %s\nwant: %s", body, want)
	}
}

// TestWorkloadJSONReportsSelectionTelemetry: a document's selection reaches
// the server's observer the way a named study's does — one
// pka_pks_selections_total and the same pks audit trail each.
func TestWorkloadJSONReportsSelectionTelemetry(t *testing.T) {
	o := obs.NewObserver()
	ts := httptest.NewServer(serve.New(serve.Options{Exec: sampling.NewExec(parallel.NewScheduler(2), nil), Obs: o}).Handler())
	defer ts.Close()

	pksAudit := func() []obs.AuditRecord {
		recs := o.Audit.Filter("pks", "")
		for i := range recs {
			recs[i].Seq = 0
		}
		return recs
	}
	post := func(body []byte) {
		t.Helper()
		if status, out := postBody(t, ts.URL, serve.StudyPath, bytes.NewReader(body)); status != http.StatusOK {
			t.Fatalf("status %d: %s", status, out)
		}
	}
	selections := o.PKSMetrics().Selections
	post([]byte(`{"workload":"Rodinia/gauss_208"}`))
	if n := selections.Value(); n != 1 {
		t.Fatalf("named study: pka_pks_selections_total = %d, want 1", n)
	}
	named := pksAudit()
	if len(named) == 0 {
		t.Fatal("the named study left no pks audit records")
	}
	post(documentRequest(t, "Rodinia/gauss_208", ""))
	if n := selections.Value(); n != 2 {
		t.Errorf("named + document: pka_pks_selections_total = %d, want 2", n)
	}
	if doc := pksAudit()[len(named):]; !reflect.DeepEqual(doc, named) {
		t.Errorf("the document's pks audit differs from the named study's:\ngot:  %+v\nwant: %+v", doc, named)
	}
}
