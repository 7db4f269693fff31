// Command pkad is the PKA kernel-task worker daemon: it serves the
// internal/remote exec protocol so pka/pkaexp studies can scale their
// simulation work out across machines. Each request is one kernel task —
// a pure function of (device, kernel features, task spec) — so a worker
// holds no study state at all; it just burns cycles and, when -cache-dir
// points at a (possibly shared) directory, persists every outcome in the
// same content-addressed artifact store the clients use.
//
// Typical fleet member:
//
//	pkad -serve 0.0.0.0:9377 -worker-cap 8 -cache-dir /shared/pka-cache
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"pka/internal/artifact"
	"pka/internal/cli"
	"pka/internal/obs"
	"pka/internal/remote"
	"pka/internal/sampling"
)

func main() {
	var (
		serve    = flag.String("serve", "127.0.0.1:9377", "host:port to serve kernel-task execution on")
		cap      = flag.Int("worker-cap", 4, "maximum tasks executing concurrently; extra requests are rejected 429 for the dispatcher to place elsewhere")
		quiet    = flag.Bool("quiet", false, "suppress the per-request access log on stderr")
		name     = flag.String("name", "", "worker name reported in traces, health, and shipped spans (default pkad)")
		ring     = flag.String("ring", "", "comma-separated fleet member URLs forming the consistent-hash cache ring (peer cache sharding; include this worker)")
		ringSelf = flag.String("ring-self", "", "this worker's own URL on the -ring (skipped on peer lookups; reported in /v1/health)")
	)
	var cacheFl cli.CacheFlags
	cacheFl.Register(nil)
	flag.Parse()

	if err := run(*serve, *cap, *quiet, *name, *ring, *ringSelf, &cacheFl); err != nil {
		fmt.Fprintln(os.Stderr, "pkad:", err)
		os.Exit(1)
	}
}

func run(addr string, capacity int, quiet bool, name, ringCSV, ringSelf string, cacheFl *cli.CacheFlags) error {
	store, err := cacheFl.Open()
	if err != nil {
		return err
	}
	logger := log.New(os.Stderr, "pkad ", log.LstdFlags|log.Lmicroseconds)

	// The daemon is always observed — /metrics is part of its API — with
	// build identity and per-tier exec attribution in the exposition.
	observer := obs.NewObserver()
	observer.RegisterBuildInfo()

	// The worker-side Exec layers mem-singleflight and the disk store over
	// the local simulator but never a remote tier: workers execute, they do
	// not forward (see sampling.Exec.RunKernelTask).
	exec := sampling.NewExec(nil, store)
	exec.SetMetrics(observer.ExecMetrics())

	// When the fleet runs with per-worker (private) cache dirs, the ring
	// makes the fleet's caches one sharded store: this worker answers peer
	// GET/PUTs for the key ranges it owns and reads its peers' shards
	// before simulating. Peer lookups are pure cache reads, so the
	// no-forwarding invariant (workers never dispatch work) holds.
	var shard *remote.ShardClient
	var fleetRing *artifact.Ring
	if ringCSV != "" {
		var members []string
		for _, u := range strings.Split(ringCSV, ",") {
			if u = strings.TrimSpace(u); u != "" {
				members = append(members, u)
			}
		}
		fleetRing = artifact.NewRing(members, 0, 0)
		if fleetRing == nil {
			return fmt.Errorf("-ring: no member URLs in %q", ringCSV)
		}
		shard = remote.NewShardClient(remote.ShardOptions{
			Peers:   members,
			Self:    ringSelf,
			Metrics: observer.ShardMetrics(),
			Logf:    logger.Printf,
		})
		if shard != nil {
			exec.SetShard(shard)
		}
		logger.Printf("cache ring: %d member(s), replication %d, self %q",
			len(fleetRing.Members()), fleetRing.Replicas(), ringSelf)
	}

	observer.RegisterCacheStats(exec.CacheStats)
	srv := remote.NewServer(exec, capacity)
	srv.Name = name
	srv.Obs = observer
	if fleetRing != nil {
		srv.SetRing(fleetRing, ringSelf)
	}
	if !quiet {
		srv.Logf = logger.Printf
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	logger.Printf("serving kernel tasks on http://%s (capacity %d, cache %q)", ln.Addr(), capacity, cacheFl.Dir)

	errc := make(chan error, 1)
	go func() { errc <- http.Serve(ln, srv.Handler()) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		logger.Printf("caught %v, shutting down", s)
	case err := <-errc:
		_ = cacheFl.Finish(nil)
		return err
	}
	_ = ln.Close()
	return cacheFl.Finish(nil)
}
