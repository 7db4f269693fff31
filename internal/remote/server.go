package remote

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"

	"pka/internal/artifact"
	"pka/internal/obs"
)

// Server is one cache peer: it serves an artifact store to the fleet's
// clients (GET/PUT under CachePathPrefix), reports its health and, with an
// observer, its metrics. It never executes anything — peers exchanging
// cache entries cannot create work for each other, only save it. A peer
// holds no view of the fleet: clients place keys, and it answers every
// valid one.
type Server struct {
	store *artifact.Store

	// Obs, when set, serves the daemon's Prometheus exposition on
	// MetricsPath.
	Obs *obs.Observer
}

// NewServer builds a cache peer over store. A nil store answers every
// cache request 404.
func NewServer(store *artifact.Store) *Server { return &Server{store: store} }

// Handler returns the peer's HTTP handler. It routes on the raw path, so a
// cache key is judged as sent and never redirected to a cleaned path.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch p := r.URL.Path; {
		case strings.HasPrefix(p, CachePathPrefix):
			s.handleCache(w, r)
		case p == HealthPath:
			s.handleHealth(w, r)
		case p == MetricsPath:
			s.Obs.ServeHTTP(w, r)
		default:
			http.NotFound(w, r)
		}
	})
}

// handleCache serves the sharded fleet cache's peer traffic straight from
// the artifact store: GET returns the payload under a content key, PUT
// stores one.
func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		http.Error(w, "peer has no artifact store", http.StatusNotFound)
		return
	}
	key := strings.TrimPrefix(r.URL.Path, CachePathPrefix)
	if artifact.CheckKey(key) != nil {
		http.Error(w, "bad cache key", http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodGet:
		raw, ok := s.store.Get(key)
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(raw)
	case http.MethodPut, http.MethodPost:
		body, err := io.ReadAll(io.LimitReader(r.Body, MaxCachePayloadBytes+1))
		if err != nil || len(body) == 0 || len(body) > MaxCachePayloadBytes {
			http.Error(w, "unreadable, empty, or oversized payload", http.StatusBadRequest)
			return
		}
		if err := s.store.Put(key, body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "GET or PUT only", http.StatusMethodNotAllowed)
	}
}

// handleHealth reports the store's counters. The store serves only peer
// traffic, so they are the peer's: every GET is one hit or miss, every
// stored PUT one write.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	cs := s.store.Stats() // a nil store reports zeros
	h := Health{
		Cache: CacheHealth{Hits: cs.Hits, Misses: cs.Misses, Writes: cs.Writes, Entries: cs.Entries},
		Build: obs.Build(),
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(h)
}
