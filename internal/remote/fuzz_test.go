package remote_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pka/internal/artifact"
	"pka/internal/remote"
	"pka/internal/sampling"
)

// validCacheKey is the peer protocol's key rule, stated apart from the
// store's: 4 to 128 lowercase hex characters (so never a '/').
func validCacheKey(k string) bool {
	if len(k) < 4 || len(k) > 128 {
		return false
	}
	for _, c := range k {
		if !strings.ContainsRune("0123456789abcdef", c) {
			return false
		}
	}
	return true
}

// FuzzCacheRequest: the peer cache decodes a method, a key off the path and
// a body off the network. Whatever they are the handler must not panic; a
// bad key is a 400 whatever the method; a PUT with an empty or oversized
// body is a 400; and a valid PUT is a 204 after which a GET returns the
// same bytes.
func FuzzCacheRequest(f *testing.F) {
	key := testKey("fuzz")
	payload := sampling.EncodeOutcome(sampling.KernelOutcome{ProjCycles: 42, SimWarpInstrs: 7})
	for _, s := range []struct {
		method, key string
		body        []byte
	}{
		{http.MethodPut, key, payload},
		{http.MethodGet, key, nil},
		{http.MethodPost, key, payload},
		{http.MethodPut, key, nil},
		{http.MethodPut, key, make([]byte, remote.MaxCachePayloadBytes+1)},
		{http.MethodDelete, key, payload},
		{http.MethodGet, "abc", nil},
		{http.MethodGet, strings.ToUpper(key), nil},
		{http.MethodPut, key[:8] + "/" + key[9:], payload},
		{http.MethodGet, "../../etc/passwd", nil},
		{http.MethodPut, strings.Repeat("a", 129), payload},
		{"", "", nil},
	} {
		f.Add(s.method, s.key, s.body)
	}
	st, err := artifact.Open(f.TempDir(), artifact.Options{})
	if err != nil {
		f.Fatal(err)
	}
	defer st.Close()
	h := remote.NewServer(st).Handler()
	serve := func(method, key string, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, "/", bytes.NewReader(body))
		req.Method = method
		req.URL.Path = remote.CachePathPrefix + key
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	f.Fuzz(func(t *testing.T, method, key string, body []byte) {
		rec := serve(method, key, body)
		put := method == http.MethodPut || method == http.MethodPost
		switch {
		case !validCacheKey(key):
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%s of key %q: status %d, want 400", method, key, rec.Code)
			}
		case put && (len(body) == 0 || len(body) > remote.MaxCachePayloadBytes):
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%s of a %d-byte body: status %d, want 400", method, len(body), rec.Code)
			}
		case put:
			if rec.Code != http.StatusNoContent {
				t.Fatalf("valid %s: status %d, want 204", method, rec.Code)
			}
			got := serve(http.MethodGet, key, nil)
			if got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), body) {
				t.Fatalf("GET after a valid PUT: status %d, %d bytes back of %d", got.Code, got.Body.Len(), len(body))
			}
		}
	})
}
