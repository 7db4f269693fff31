package remote_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pka/internal/artifact"
	"pka/internal/core"
	"pka/internal/gpu"
	"pka/internal/obs"
	"pka/internal/parallel"
	"pka/internal/remote"
	"pka/internal/sampling"
	"pka/internal/workload"
)

// testKey returns a valid (lowercase-hex) content key derived from s.
func testKey(s string) string {
	return artifact.Key([]byte(s))
}

// peer spins up one in-process pkad-equivalent over a private store.
func peer(t *testing.T) (*httptest.Server, *artifact.Store) {
	t.Helper()
	st, err := artifact.Open(t.TempDir(), artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ts := httptest.NewServer(remote.NewServer(st).Handler())
	t.Cleanup(ts.Close)
	return ts, st
}

// shardFleet builds n fleet peers over private stores plus a client
// spanning them.
func shardFleet(t *testing.T, n int, opts remote.ShardOptions) ([]*httptest.Server, []*artifact.Store, *remote.ShardClient) {
	t.Helper()
	servers := make([]*httptest.Server, n)
	stores := make([]*artifact.Store, n)
	urls := make([]string, n)
	for i := range servers {
		servers[i], stores[i] = peer(t)
		urls[i] = servers[i].URL
	}
	opts.Peers = urls
	c := remote.NewShardClient(opts)
	if c == nil {
		t.Fatal("NewShardClient returned nil for a populated fleet")
	}
	return servers, stores, c
}

// Store must replicate to every owner, Lookup must read back from one,
// and the hit must name a true owner of the key.
func TestShardStoreLookup(t *testing.T) {
	m := obs.NewObserver().ShardMetrics()
	_, stores, c := shardFleet(t, 3, remote.ShardOptions{Metrics: m})
	payload := sampling.EncodeOutcome(sampling.KernelOutcome{ProjCycles: 42, SimWarpInstrs: 7})
	key := testKey("task-1")
	c.Store(key, payload)

	owners := c.Owners(key)
	if len(owners) != 2 {
		t.Fatalf("want 2 owners at default replication, got %v", owners)
	}
	got, peer, ok := c.Lookup(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Lookup = (%x, %v), want stored payload", got, ok)
	}
	if peer != owners[0] {
		t.Errorf("hit served by %s, want primary owner %s", peer, owners[0])
	}
	// The payload landed on the owners' stores and nowhere else.
	replicated := 0
	for _, st := range stores {
		if raw, ok := st.Get(key); ok {
			replicated++
			if !bytes.Equal(raw, payload) {
				t.Error("owner store holds different bytes")
			}
		}
	}
	if replicated != 2 {
		t.Errorf("payload on %d stores, want 2 (the owner set)", replicated)
	}

	if _, _, ok := c.Lookup(testKey("never-stored")); ok {
		t.Error("Lookup of an unstored key reported a hit")
	}
	if hits, misses := m.PeerHits.Value(), m.PeerMisses.Value(); hits != 1 || misses != 1 {
		t.Errorf("peer lookups counted %d hits / %d misses, want 1 / 1", hits, misses)
	}
}

// Killing a key's primary owner must not lose the key: the lookup walks
// to the surviving replica. This is the replica-fallback property the CI
// kill-one-worker smoke depends on.
func TestShardReplicaFallback(t *testing.T) {
	servers, _, c := shardFleet(t, 3, remote.ShardOptions{})
	payload := sampling.EncodeOutcome(sampling.KernelOutcome{ProjCycles: 99})
	key := testKey("task-fallback")
	c.Store(key, payload)
	owners := c.Owners(key)

	for _, s := range servers {
		if s.URL == owners[0] {
			s.Close()
		}
	}
	got, peer, ok := c.Lookup(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("lookup after killing primary: ok=%v", ok)
	}
	if peer != owners[1] {
		t.Errorf("served by %s, want surviving replica %s", peer, owners[1])
	}
}

// A peer that keeps failing transport is evicted: the ring rebalances
// (counted and logged) and later placements stop routing to it.
func TestShardEvictionRebalance(t *testing.T) {
	o := obs.NewObserver()
	var logbuf strings.Builder
	servers, _, c := shardFleet(t, 3, remote.ShardOptions{
		EvictAfter: 2,
		Metrics:    o.ShardMetrics(),
		Logf:       func(f string, a ...any) { fmt.Fprintf(&logbuf, f+"\n", a...) },
	})
	dead := servers[0].URL
	servers[0].Close()

	// Hammer lookups until every key route touching the dead peer has
	// failed it out. 16 distinct keys guarantee ≥2 route through it.
	for i := 0; i < 16; i++ {
		c.Lookup(testKey(fmt.Sprintf("evict-%d", i)))
	}
	members := c.Members()
	if len(members) != 2 {
		t.Fatalf("ring still has %v, want the dead peer evicted", members)
	}
	for _, m := range members {
		if m == dead {
			t.Fatal("dead peer survived eviction")
		}
	}
	if got := o.ShardMetrics().Rebalances.Value(); got != 1 {
		t.Errorf("pka_shard_rebalance_total = %v, want 1", got)
	}
	if !strings.Contains(logbuf.String(), "ring rebalanced to 2 members") {
		t.Errorf("no rebalance log line, got %q", logbuf.String())
	}
}

// The health report's cache block counts the peer's traffic: every peer
// GET is one store hit or miss (a corrupt entry is a miss), and every
// stored PUT one write; a refused PUT is neither.
func TestHealthCountsPeerTraffic(t *testing.T) {
	dir := t.TempDir()
	st, err := artifact.Open(dir, artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ts := httptest.NewServer(remote.NewServer(st).Handler())
	defer ts.Close()

	do := func(method, key string, body []byte, want int) {
		t.Helper()
		req, _ := http.NewRequest(method, ts.URL+remote.CachePathPrefix+key, bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s %s: status %d, want %d", method, key, resp.StatusCode, want)
		}
	}
	payload := sampling.EncodeOutcome(sampling.KernelOutcome{ProjCycles: 5})
	good, corrupt := testKey("peer-traffic-good"), testKey("peer-traffic-corrupt")
	do(http.MethodPut, good, payload, http.StatusNoContent)
	do(http.MethodPut, testKey("peer-traffic-empty"), nil, http.StatusBadRequest)
	do(http.MethodPut, corrupt, payload, http.StatusNoContent)
	if err := os.WriteFile(filepath.Join(dir, corrupt[:2], corrupt+".bin"), []byte("not an entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	do(http.MethodGet, good, nil, http.StatusOK)
	do(http.MethodGet, good, nil, http.StatusOK)
	do(http.MethodGet, testKey("peer-traffic-absent"), nil, http.StatusNotFound)
	do(http.MethodGet, corrupt, nil, http.StatusNotFound)

	resp, err := http.Get(ts.URL + remote.HealthPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h remote.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if c := h.Cache; c.Hits+c.Misses != 4 || c.Writes != 2 {
		t.Errorf("peer traffic = %d hits + %d misses / %d writes, want 4 gets / 2 puts",
			c.Hits, c.Misses, c.Writes)
	}
}

// The Exec ladder with a shard tier: a second process's exec over an
// empty local store must be served from the fleet (TierShard, with the
// serving peer recorded in provenance), not by re-simulating.
func TestShardExecTier(t *testing.T) {
	_, _, c := shardFleet(t, 3, remote.ShardOptions{})
	dev := gpu.VoltaV100()
	w := workload.Find("Rodinia/gauss_mat4")
	if w == nil {
		t.Fatal("missing workload")
	}
	kernels := w.Kernels()
	task := sampling.KernelTask{Mode: sampling.ModeFull}

	localStore := func() *artifact.Store {
		st, err := artifact.Open(t.TempDir(), artifact.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}

	// First process: simulate and replicate to the fleet.
	exec1 := sampling.NewExec(nil, localStore())
	exec1.SetShard(c)
	want, err := exec1.RunKernels(dev, sampling.RiderPass{Task: task, Kernels: kernels})
	if err != nil {
		t.Fatal(err)
	}

	// Second process: private empty store, same fleet.
	exec2 := sampling.NewExec(nil, localStore())
	exec2.SetShard(c)
	fr := sampling.NewFlightRecorder()
	got, err := exec2.RunKernels(dev, sampling.RiderPass{Task: task, Kernels: kernels, Obs: func(i int) sampling.TaskObs {
		return sampling.TaskObs{Flight: fr, Phase: "shard", Index: i}
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("kernel %d: shard-served outcome differs: %+v vs %+v", i, want[i], got[i])
		}
	}
	counts := fr.TierCounts()
	if counts["shard"] == 0 {
		t.Fatalf("no kernels served from the shard tier: %v", counts)
	}
	if counts["sim"] != 0 {
		t.Fatalf("fleet-cached kernels were re-executed: %v", counts)
	}
	for _, e := range fr.Entries() {
		if e.Tier == sampling.TierShard && e.Peer == "" {
			t.Error("shard-served entry missing the serving peer")
		}
	}
}

// failFirst fails the first n round trips at the transport and passes the
// rest through. Sequential use only.
type failFirst struct{ n int }

func (f *failFirst) RoundTrip(r *http.Request) (*http.Response, error) {
	if f.n > 0 {
		f.n--
		return nil, errors.New("connection refused")
	}
	return http.DefaultTransport.RoundTrip(r)
}

// A peer that answers a PUT with a refusal (here: no store, so 404) has not
// stored the payload: that is a put error, not a replication, and since the
// peer answered it neither counts toward its eviction nor clears the
// transport failures it already has.
func TestShardRefusedPutIsAnError(t *testing.T) {
	storeless := httptest.NewServer(remote.NewServer(nil).Handler())
	defer storeless.Close()
	o := obs.NewObserver()
	tr := &failFirst{n: 1}
	c := remote.NewShardClient(remote.ShardOptions{
		Peers:      []string{storeless.URL},
		EvictAfter: 2,
		Metrics:    o.ShardMetrics(),
		Client:     &http.Client{Transport: tr},
	})
	payload := sampling.EncodeOutcome(sampling.KernelOutcome{ProjCycles: 1})
	m := o.ShardMetrics()

	c.Store(testKey("refused-1"), payload) // transport failure: 1 of 2
	c.Store(testKey("refused-2"), payload) // 404
	if m.Puts.Value() != 0 || m.PutErrors.Value() != 2 {
		t.Fatalf("after a transport failure and a refusal: %d puts, %d put errors; want 0 and 2",
			m.Puts.Value(), m.PutErrors.Value())
	}
	if got := len(c.Members()); got != 1 {
		t.Fatalf("a refusing peer was evicted: %d members left", got)
	}
	tr.n = 1
	c.Store(testKey("refused-3"), payload) // transport failure: 2 of 2
	if m.Rebalances.Value() != 1 || len(c.Members()) != 0 {
		t.Errorf("the refusal reset the peer's failure count: %d rebalances, members %v",
			m.Rebalances.Value(), c.Members())
	}
}

// evalRender is an evaluation's results as bytes, its workload pointer left
// out.
func evalRender(t *testing.T, ev *core.Evaluation) string {
	t.Helper()
	cp := *ev
	cp.Workload = nil
	b, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestShardStudyDeterminism is the study-level fence of the shard tier: a
// whole evaluation through a three-member ring of private-store peers
// renders byte-identical to the serial run; a second process with an empty
// local store gets every outcome from the ring, simulating nothing; and with
// the primary owner of one of its keys killed a third process still renders
// the same bytes, evicting the dead member.
func TestShardStudyDeterminism(t *testing.T) {
	w := workload.Find("Rodinia/gauss_mat4")
	if w == nil {
		t.Fatal("missing workload")
	}
	dev := gpu.VoltaV100()
	serialEv, err := core.Evaluate(core.Config{Device: dev, Parallelism: 1}, w)
	if err != nil {
		t.Fatal(err)
	}
	serial := evalRender(t, serialEv)

	servers, _, c := shardFleet(t, 3, remote.ShardOptions{})
	urls := c.Members()
	study := func(what string, opts remote.ShardOptions) *sampling.FlightRecorder {
		t.Helper()
		st, err := artifact.Open(t.TempDir(), artifact.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		exec := sampling.NewExec(parallel.NewScheduler(2), st)
		opts.Peers = urls
		exec.SetShard(remote.NewShardClient(opts))
		fr := sampling.NewFlightRecorder()
		ev, err := core.Evaluate(core.Config{Device: dev, Exec: exec, Flight: fr}, w)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := evalRender(t, ev); got != serial {
			t.Fatalf("%s renders differently from the serial run:\n%s\nvs\n%s", what, got, serial)
		}
		return fr
	}

	study("cold study", remote.ShardOptions{})

	fr := study("warm study", remote.ShardOptions{})
	keys := map[string]bool{}
	for _, e := range fr.Entries() {
		keys[e.Key] = true
	}
	counts := fr.TierCounts()
	if counts["shard"] != len(keys) || counts["shard"]+counts["mem"] != fr.Len() {
		t.Fatalf("warm study over an empty store: tiers %v for %d launches of %d keys, want one shard read per key and nothing else",
			counts, fr.Len(), len(keys))
	}

	dead := c.Owners(fr.Entries()[0].Key)[0]
	for _, s := range servers {
		if s.URL == dead {
			s.Close()
		}
	}
	m := obs.NewObserver().ShardMetrics()
	study("study with a dead member", remote.ShardOptions{EvictAfter: 1, Metrics: m})
	if m.Rebalances.Value() < 1 {
		t.Errorf("the dead member was never evicted: %d rebalances", m.Rebalances.Value())
	}
}
