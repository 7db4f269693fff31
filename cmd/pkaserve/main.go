// Command pkaserve runs the PKA study engine as a long-running service:
// clients POST study requests, the server admits them through a bounded
// weighted-fair queue, executes them on the shared Exec ladder (memory →
// disk cache → pkad cache peers → fresh simulation), and answers with the
// same bytes the batch pka CLI would print for the same inputs.
//
// Usage:
//
//	pkaserve                                       # loopback on :9380
//	pkaserve -addr :9380 -study-workers 4 -queue-depth 128
//	pkaserve -cache-dir /var/pka -shard http://gpu1:9377,http://gpu2:9377
//	pkaserve -tenants prod=3,batch=1               # prod drains 3:1 under load
//
// Endpoints: POST /v1/study, GET /v1/health, GET /metrics (latency and
// queue wait are the pka_serve_* histograms there). SIGINT/SIGTERM drains
// gracefully: queued studies finish, new ones get 503.
//
// A study request names a catalogue workload ("workload") or carries a
// workload document inline ("workload_json", as `pka -emit-workload`
// writes it). The body is capped at 1 MiB; a larger workload is studied
// from its file with `pka -workload-file`.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pka/internal/cli"
	"pka/internal/obs"
	"pka/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:9380", "host:port to serve the study API on")
		workers    = flag.Int("study-workers", 2, "concurrently executing studies (each study fans kernels out further on -p)")
		queueDepth = flag.Int("queue-depth", 64, "bounded admission queue; requests beyond it are rejected with 429")
		tenants    = flag.String("tenants", "", "per-tenant fair-share weights, e.g. prod=3,batch=1 (unlisted tenants weigh 1)")
		par        = flag.Int("p", 0, "per-study kernel parallelism (0 = GOMAXPROCS, 1 = serial)")
		drainWait  = flag.Duration("drain-timeout", 30*time.Second, "bound on graceful drain at shutdown")
		execFl     cli.ExecFlags
	)
	execFl.Obs.Register(nil)
	execFl.Cache.Register(nil)
	execFl.Shard.Register(nil)
	flag.Parse()

	weights, err := cli.ParseWeights(*tenants)
	if err != nil {
		fatal(err)
	}
	// The server is always observed — /metrics is part of its API — so
	// build the observer up front and let the flag bundle adopt it for the
	// -trace/-metrics/-audit artifact writers.
	observer := obs.NewObserver()
	execFl.Obs.Use(observer)
	sess, err := execFl.Build(*par)
	if err != nil {
		fatal(err)
	}

	srv := serve.New(serve.Options{
		Exec:          sess.Exec,
		Workers:       *workers,
		QueueDepth:    *queueDepth,
		TenantWeights: weights,
		Obs:           observer,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln) //nolint:errcheck // reported via Shutdown
	fmt.Fprintf(os.Stderr, "study service on http://%s%s (%d study workers, queue %d)\n",
		ln.Addr(), serve.StudyPath, *workers, *queueDepth)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "draining: queued studies will finish, new requests get 503")
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "pkaserve: drain:", err)
	}
	_ = hs.Shutdown(ctx)
	if err := sess.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pkaserve:", err)
	os.Exit(1)
}
