// Command pkad is a PKA fleet-cache peer: it serves its artifact store over
// the internal/remote cache protocol so pka/pkaexp/pkaserve studies started
// with -shard can read outcomes another process already simulated instead
// of simulating them again. A peer holds no study state and executes
// nothing; it keeps the content-addressed entries clients replicate to it
// (GET/PUT /v1/cache/<key>) and reports its cache and ring membership on
// /v1/health.
//
// Typical ring member:
//
//	pkad -serve 0.0.0.0:9377 -cache-dir /var/pka-cache \
//	  -ring http://a:9377,http://b:9377,http://c:9377 -ring-self http://a:9377
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"syscall"

	"pka/internal/artifact"
	"pka/internal/cli"
	"pka/internal/obs"
	"pka/internal/remote"
)

func main() {
	var (
		serve    = flag.String("serve", "127.0.0.1:9377", "host:port to serve the peer cache on")
		name     = flag.String("name", "", "peer name reported in health (default pkad)")
		ring     = flag.String("ring", "", "comma-separated fleet member URLs forming the consistent-hash cache ring (include this peer)")
		ringSelf = flag.String("ring-self", "", "this peer's own URL on the -ring (reported in /v1/health)")
	)
	var cacheFl cli.CacheFlags
	cacheFl.Register(nil)
	flag.Parse()

	if err := run(*serve, *name, *ring, *ringSelf, &cacheFl); err != nil {
		fmt.Fprintln(os.Stderr, "pkad:", err)
		os.Exit(1)
	}
}

func run(addr, name, ringCSV, ringSelf string, cacheFl *cli.CacheFlags) error {
	// A peer without a store would answer every GET and PUT 404.
	if cacheFl.Dir == "" {
		return errors.New("-cache-dir is required: a cache peer serves its artifact store")
	}
	// A self outside the ring would report no owned range and no replica
	// peers, so membership is checked before anything starts.
	members := cli.SplitURLs(ringCSV)
	if (ringCSV == "") != (ringSelf == "") {
		return errors.New("-ring and -ring-self must be set together")
	}
	if ringCSV != "" && !slices.Contains(members, ringSelf) {
		return fmt.Errorf("-ring-self %q is not a member of -ring %q", ringSelf, ringCSV)
	}
	store, err := cacheFl.Open()
	if err != nil {
		return err
	}
	logger := log.New(os.Stderr, "pkad ", log.LstdFlags|log.Lmicroseconds)

	// The daemon is always observed — /metrics is part of its API — with
	// build identity and the store's counters in the exposition.
	observer := obs.NewObserver()
	observer.RegisterBuildInfo()
	observer.RegisterCacheStats(func() map[string]obs.CacheCounts {
		a := store.Stats()
		return map[string]obs.CacheCounts{"artifact": {Hits: a.Hits, Misses: a.Misses, Evictions: a.Evictions, Corrupt: a.Corrupt}}
	})

	srv := remote.NewServer(store)
	srv.Name = name
	srv.Obs = observer
	if ringCSV != "" {
		fleetRing := artifact.NewRing(members)
		srv.SetRing(fleetRing, ringSelf)
		logger.Printf("cache ring: %d member(s), replication %d, self %q",
			len(fleetRing.Members()), fleetRing.Replicas(), ringSelf)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	logger.Printf("serving the peer cache on http://%s (cache %q)", ln.Addr(), cacheFl.Dir)

	errc := make(chan error, 1)
	go func() { errc <- http.Serve(ln, srv.Handler()) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		logger.Printf("caught %v, shutting down", s)
	case err := <-errc:
		_ = cacheFl.Finish()
		return err
	}
	_ = ln.Close()
	return cacheFl.Finish()
}
