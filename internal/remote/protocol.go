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
// A consistent-hash ring (artifact.Ring) assigns every content key a small
// owner set among the peers; clients replicate outcomes to the owners over
// CachePathPrefix, and the ShardClient answers "who owns this key" locally
// and peer-GETs owners (primary first, then replicas) before the Exec
// ladder falls back to simulating.
package remote

import (
	"pka/internal/obs"
)

// Protocol endpoints and limits.
const (
	// HealthPath reports the peer's cache and ring statistics (GET).
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
	Cache   CacheHealth   `json:"cache"`
	Ring    *RingHealth   `json:"ring,omitempty"`
	Process string        `json:"process,omitempty"`
	Build   obs.BuildInfo `json:"build"`
}

// RingHealth is the peer's view of its shard-ring membership: how much
// of the key space it primarily owns, which peers replicate that range,
// and how much peer cache traffic it has served. Present only when the
// daemon runs with -ring.
type RingHealth struct {
	Members       int      `json:"members"`
	Replicas      int      `json:"replicas"`
	OwnedFraction float64  `json:"owned_fraction"`
	ReplicaPeers  []string `json:"replica_peers"`
	PeerGets      uint64   `json:"peer_gets"`
	PeerPuts      uint64   `json:"peer_puts"`
}

// CacheHealth is the peer's artifact store counters.
type CacheHealth struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Writes  uint64 `json:"writes"`
	Entries int64  `json:"entries"`
}
