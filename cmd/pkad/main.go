// Command pkad is a PKA fleet-cache peer: it serves its artifact store over
// the internal/remote cache protocol so pka/pkaexp/pkaserve studies started
// with -shard can read outcomes another process already simulated instead
// of simulating them again. A peer holds no study state, executes nothing
// and knows nothing of the fleet: the clients' -shard list is the one
// statement of membership, and they place every key. It keeps the
// content-addressed entries clients replicate to it (GET/PUT
// /v1/cache/<key>) and reports its cache counters on /v1/health.
//
// Typical fleet peer:
//
//	pkad -serve 0.0.0.0:9377 -cache-dir /var/pka-cache
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
	"syscall"

	"pka/internal/cli"
	"pka/internal/obs"
	"pka/internal/remote"
)

func main() {
	serve := flag.String("serve", "127.0.0.1:9377", "host:port to serve the peer cache on")
	var cacheFl cli.CacheFlags
	cacheFl.Register(nil)
	flag.Parse()

	if err := run(*serve, &cacheFl); err != nil {
		fmt.Fprintln(os.Stderr, "pkad:", err)
		os.Exit(1)
	}
}

func run(addr string, cacheFl *cli.CacheFlags) error {
	// A peer without a store would answer every GET and PUT 404.
	if cacheFl.Dir == "" {
		return errors.New("-cache-dir is required: a cache peer serves its artifact store")
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
	srv.Obs = observer

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
