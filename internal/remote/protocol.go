// Package remote is the PKA fleet's sharded outcome cache: a cache-peer
// daemon (cmd/pkad) that serves its artifact store over a minimal HTTP
// protocol, and a client-side ShardClient that plugs into the
// sampling.Exec ladder between the local disk artifact cache and the fresh
// local simulator.
//
// The protocol leans entirely on the purity property the task layer
// established: a task outcome is a function of (device, kernel features,
// task spec) and nothing else, and the content key fixes the encoding
// version. That makes the tier free to be sloppy about delivery — a PUT
// can be lost, repeated or raced by another process — without ever
// changing a study's results. Peers keep the same content-addressed
// entries the client's own store does (same SHA-256 keys, same 33-byte
// payload).
//
// Rendezvous hashing assigns every content key two owners among the
// peers; clients replicate outcomes to the owners over CachePathPrefix, and
// the ShardClient answers "who owns this key" locally and peer-GETs owners
// (primary first, then the replica) before the Exec ladder falls back to
// simulating. Only clients know the fleet: a peer answers every valid key.
package remote

import (
	"pka/internal/obs"
)

// Protocol endpoints and limits.
const (
	// HealthPath reports the peer's cache statistics and build (GET).
	HealthPath = "/v1/health"
	// MetricsPath serves the peer's Prometheus exposition (GET) when the
	// daemon runs with an observer.
	MetricsPath = "/metrics"
	// CachePathPrefix serves the sharded fleet cache's peer traffic. GET
	// /v1/cache/<key> returns the raw artifact payload stored under the
	// content key (404 on miss); PUT stores the request body under it. A
	// key that is not 4–128 lowercase-hex characters is a 400. Both are
	// pure cache operations: a peer never executes anything.
	CachePathPrefix = "/v1/cache/"
	// MaxCachePayloadBytes bounds a peer cache PUT body. Kernel outcomes
	// are 33 bytes; the slack leaves room for payload growth without a
	// protocol change.
	MaxCachePayloadBytes = 1 << 12
)

// Health is the peer's self-report.
type Health struct {
	Cache CacheHealth   `json:"cache"`
	Build obs.BuildInfo `json:"build"`
}

// CacheHealth is the peer's artifact store counters.
type CacheHealth struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Writes  uint64 `json:"writes"`
	Entries int64  `json:"entries"`
}
