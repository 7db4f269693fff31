package remote_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pka/internal/remote"
	"pka/internal/sampling"
)

// FuzzExecRequest: the task endpoint decodes bytes off the network. Whatever
// they are the handler must not panic, and a body that fails decoding or
// Validate must get a 400 before anything is simulated.
func FuzzExecRequest(f *testing.F) {
	valid, _ := testKernelRequest(f)
	f.Add(valid)
	for _, s := range []string{
		"", "{", "[]", "null", "{}", `{"key":""}`, `{"key":"00"}`,
		strings.Replace(string(valid), `"key":"`, `"key":"00`, 1),
		string(valid[:len(valid)/2]),
		string(valid) + "{}",
	} {
		f.Add([]byte(s))
	}
	h := remote.NewServer(sampling.NewExec(nil, nil), 1).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, remote.ExecPath, bytes.NewReader(body)))
		var req remote.ExecRequest
		bad := len(body) > remote.MaxRequestBytes || json.Unmarshal(body, &req) != nil || req.Validate() != nil
		if bad && rec.Code != http.StatusBadRequest {
			t.Fatalf("status %d for a body that fails decoding or Validate: %q", rec.Code, body)
		}
		if !bad && rec.Code == http.StatusBadRequest {
			t.Fatalf("400 for a valid request: %q", body)
		}
	})
}
