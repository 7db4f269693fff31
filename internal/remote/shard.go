package remote

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"pka/internal/obs"
)

// Shard-client settings.
const (
	// shardTimeout bounds one peer cache RPC. Peer GETs move 33 bytes;
	// anything slow is a peer worth evicting, not waiting for.
	shardTimeout = 2 * time.Second
	// DefaultShardEvictAfter is how many consecutive transport failures a
	// peer gets before it is evicted from the fleet (a rebalance).
	DefaultShardEvictAfter = 3
	// replicas is how many peers own each content key, capped at the fleet
	// size: two, so a key survives the loss of any one peer.
	replicas = 2
)

// owners returns the members owning key, primary first, by rendezvous
// (highest-random-weight) hashing: each member bids the first 8 bytes of
// SHA-256(member ‖ 0 ‖ key), big-endian, and the min(replicas,
// len(members)) highest bids win, ties broken by member name. Placement is
// a pure function of the member set and the key, so every client agrees on
// it without coordination; dropping a member moves only the keys it owned,
// each to its former replica. members must be free of duplicates.
func owners(members []string, key string) []string {
	type bid struct {
		weight uint64
		member string
	}
	bids := make([]bid, len(members))
	var buf []byte
	for i, m := range members {
		buf = append(append(append(buf[:0], m...), 0), key...)
		sum := sha256.Sum256(buf)
		bids[i] = bid{binary.BigEndian.Uint64(sum[:8]), m}
	}
	slices.SortFunc(bids, func(a, b bid) int {
		if c := cmp.Compare(b.weight, a.weight); c != 0 {
			return c
		}
		return strings.Compare(a.member, b.member)
	})
	out := make([]string, min(replicas, len(bids)))
	for i := range out {
		out[i] = bids[i].member
	}
	return out
}

// fleet is the member set a peer list names: sorted, without blanks or
// duplicates, so its order and repeats cannot move placement.
func fleet(peers []string) []string {
	members := slices.DeleteFunc(slices.Clone(peers), func(p string) bool { return p == "" })
	slices.Sort(members)
	return slices.Compact(members)
}

// ShardOptions configures a ShardClient.
type ShardOptions struct {
	// Peers are the fleet's pkad base URLs. Order, blanks and duplicates
	// do not matter; placement is a pure function of the set.
	Peers []string
	// EvictAfter is the consecutive-failure eviction threshold (default
	// DefaultShardEvictAfter).
	EvictAfter int
	// Metrics receives shard-tier telemetry; nil counts into a private
	// bundle, so the client never checks for one.
	Metrics *obs.ShardMetrics
	// Logf, when set, receives rebalance log lines.
	Logf func(format string, args ...any)
	// Client overrides the HTTP client (tests).
	Client *http.Client
}

// ShardClient implements sampling.ShardTier over the pkad fleet: it
// answers "who owns this key" locally by rendezvous hashing over the
// member set, and does peer GET/PUT against the owners. Peers place
// nothing; they answer every valid key. Failure handling is
// availability-first: a peer that keeps failing transport is evicted
// from the member set (a rebalance, counted in pka_shard_rebalance_total),
// after which the keys it owned resolve to their surviving replicas — the
// property the kill-one-peer smoke pins. Lookup misses and peer failures
// are never errors; the Exec ladder just falls through to the next tier.
type ShardClient struct {
	opts   ShardOptions
	client *http.Client

	mu sync.Mutex
	// members is sorted and unique; an eviction replaces it, never edits
	// it, so Owners reads a snapshot outside the lock.
	members []string
	fails   map[string]int
}

// NewShardClient builds a shard client over the given fleet. Returns nil
// without peers, matching the nil-safe ShardTier wiring in sampling.Exec.
func NewShardClient(opts ShardOptions) *ShardClient {
	members := fleet(opts.Peers)
	if len(members) == 0 {
		return nil
	}
	if opts.EvictAfter <= 0 {
		opts.EvictAfter = DefaultShardEvictAfter
	}
	if opts.Metrics == nil {
		opts.Metrics = obs.NewObserver().ShardMetrics()
	}
	c := opts.Client
	if c == nil {
		c = &http.Client{}
	}
	return &ShardClient{opts: opts, client: c, members: members, fails: map[string]int{}}
}

// Members returns the client's sorted member set (post-evictions).
func (c *ShardClient) Members() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.members)
}

// Owners returns the members owning key, primary first.
func (c *ShardClient) Owners(key string) []string {
	c.mu.Lock()
	members := c.members
	c.mu.Unlock()
	return owners(members, key)
}

// noteOK resets a peer's consecutive-failure count after any successful
// round trip (a 404 miss is a healthy answer).
func (c *ShardClient) noteOK(peer string) {
	c.mu.Lock()
	delete(c.fails, peer)
	c.mu.Unlock()
}

// noteFailure counts a transport failure against peer and evicts it from
// the member set at the threshold — the rebalance the fleet operator sees
// in the log and in pka_shard_rebalance_total.
func (c *ShardClient) noteFailure(peer string) {
	c.mu.Lock()
	c.fails[peer]++
	evict := c.fails[peer] >= c.opts.EvictAfter
	if evict {
		delete(c.fails, peer)
		rest := slices.DeleteFunc(slices.Clone(c.members), func(m string) bool { return m == peer })
		evict = len(rest) < len(c.members) // a concurrent failure may have evicted it already
		c.members = rest
	}
	members := len(c.members)
	c.mu.Unlock()
	if evict {
		c.opts.Metrics.Rebalances.Inc()
		if c.opts.Logf != nil {
			c.opts.Logf("shard %s evicted after %d consecutive failures; ring rebalanced to %d members",
				peer, c.opts.EvictAfter, members)
		}
	}
}

// Lookup implements sampling.ShardTier: ask key's owners for the cached
// payload, primary first, then replicas. Peers answering 404 are healthy
// misses; peers failing transport are counted toward eviction and the
// next replica is tried — which is exactly the fallback that keeps a
// study byte-identical when an owner dies mid-run.
func (c *ShardClient) Lookup(key string) (payload []byte, peer string, ok bool) {
	if c == nil {
		return nil, "", false
	}
	m := c.opts.Metrics
	m.Lookups.Inc()
	start := time.Now()
	for _, owner := range c.Owners(key) {
		raw, status, err := c.get(owner, key)
		if err != nil {
			m.PeerErrors.Inc()
			c.noteFailure(owner)
			continue
		}
		c.noteOK(owner)
		if status == http.StatusOK && len(raw) > 0 {
			m.PeerHits.Inc()
			m.LookupLatency.Observe(time.Since(start).Seconds())
			return raw, owner, true
		}
		// 404 (or any non-200): the owner doesn't hold the key; a replica
		// might after a partial replication, so keep walking the owner set.
	}
	m.PeerMisses.Inc()
	m.LookupLatency.Observe(time.Since(start).Seconds())
	return nil, "", false
}

// Store implements sampling.ShardTier: best-effort replication of the
// payload to every owner of key. Idempotent (owners may already hold the
// bytes) and never an error — a failed PUT only costs a future peer hit.
// A transport failure counts toward the owner's eviction; a refusal (a
// non-2xx answer: no store, a rejected payload) is a put error but not a
// failure of the peer, which answered.
func (c *ShardClient) Store(key string, payload []byte) {
	if c == nil || len(payload) == 0 {
		return
	}
	m := c.opts.Metrics
	for _, owner := range c.Owners(key) {
		status, err := c.put(owner, key, payload)
		switch {
		case err != nil:
			m.PutErrors.Inc()
			c.noteFailure(owner)
		case status/100 != 2:
			m.PutErrors.Inc()
		default:
			c.noteOK(owner)
			m.Puts.Inc()
		}
	}
}

func (c *ShardClient) get(peer, key string) ([]byte, int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), shardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+CachePathPrefix+key, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Drain so the connection is reusable; a non-200 is an answer, not
		// a transport failure.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, MaxCachePayloadBytes))
		return nil, resp.StatusCode, nil
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, MaxCachePayloadBytes+1))
	if err != nil || len(raw) > MaxCachePayloadBytes {
		return nil, 0, errTruncated
	}
	return raw, resp.StatusCode, nil
}

func (c *ShardClient) put(peer, key string, payload []byte) (int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), shardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, peer+CachePathPrefix+key, bytes.NewReader(payload))
	if err != nil {
		return 0, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, MaxCachePayloadBytes))
	resp.Body.Close()
	return resp.StatusCode, nil
}

// errTruncated marks a peer response that exceeded the payload bound.
var errTruncated = &truncatedError{}

type truncatedError struct{}

func (*truncatedError) Error() string { return "remote: peer cache payload truncated or oversized" }
