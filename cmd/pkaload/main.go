// Command pkaload drives a pkaserve instance with open-loop Poisson
// traffic: arrivals are scheduled up front from a seeded exponential
// process and fired on schedule regardless of completions, the pattern
// independent clients produce. The schedule is a pure function of the
// seed, so a run is byte-reproducible (-plan prints it without firing).
//
// Usage:
//
//	pkaload -target http://127.0.0.1:9380 -qps 8 -requests 64
//	pkaload -w Rodinia/gauss_mat4,Rodinia/bfs4096 -tenants prod=3,batch=1
//	pkaload -seed 7 -plan          # print the request schedule, send nothing
//	pkaload -report latency.json   # machine-readable percentiles
//
// Exit status is 1 when any request failed.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"pka/internal/cli"
	"pka/internal/serve"
)

func main() {
	var (
		target   = flag.String("target", "http://127.0.0.1:9380", "pkaserve base URL")
		qps      = flag.Float64("qps", 4, "mean Poisson arrival rate (requests/second)")
		requests = flag.Int("requests", 32, "total requests to fire")
		seed     = flag.Uint64("seed", 1, "schedule seed (same seed, same schedule)")
		wcsv     = flag.String("w", "Rodinia/gauss_mat4", "comma-separated workloads to draw from")
		tenants  = flag.String("tenants", "anon=1", "tenants and draw weights, e.g. prod=3,batch=1")
		mode     = flag.String("mode", "pka", "study mode: pka | pks | full")
		device   = flag.String("device", "volta", cli.DeviceNames)
		plan     = flag.Bool("plan", false, "print the request schedule as JSON and exit without sending")
		report   = flag.String("report", "", "write the latency report as JSON to this file")
		timeout  = flag.Duration("timeout", 60*time.Second, "per-request HTTP timeout")
	)
	flag.Parse()

	ws, err := cli.Workloads(*wcsv)
	if err != nil {
		fatal(err)
	}
	weights, err := cli.ParseWeights(*tenants)
	if err != nil {
		fatal(err)
	}
	if len(weights) == 0 {
		weights = map[string]int{"anon": 1}
	}
	// The template pool is the tenant×workload cross product with each
	// tenant repeated by its weight, so the generator's uniform draw
	// produces weighted traffic. Deterministic order: tenants sorted.
	var names []string
	for t := range weights {
		names = append(names, t)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	var templates []serve.StudyRequest
	for _, t := range names {
		for i := 0; i < weights[t]; i++ {
			for _, w := range ws {
				templates = append(templates, serve.StudyRequest{
					Tenant: t, Workload: w.FullName(), Device: *device, Mode: *mode,
				})
			}
		}
	}

	gen := &serve.LoadGen{
		Rate:      *qps,
		Requests:  *requests,
		Seed:      *seed,
		Templates: templates,
		Do:        poster(*target, *timeout),
	}
	if *plan {
		enc := json.NewEncoder(os.Stdout)
		for _, a := range gen.Plan() {
			if err := enc.Encode(a); err != nil {
				fatal(err)
			}
		}
		return
	}
	rep, err := gen.Run()
	if err != nil {
		fatal(err)
	}
	fmt.Print(rep.String())
	if *report != "" {
		err := cli.WriteFile(*report, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		})
		if err != nil {
			fatal(err)
		}
	}
	if rep.Errors > 0 {
		os.Exit(1)
	}
}

// poster returns a Do that POSTs one study request and drains the reply.
func poster(base string, timeout time.Duration) func(*serve.StudyRequest) error {
	client := &http.Client{Timeout: timeout}
	return func(req *serve.StudyRequest) error {
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		resp, err := client.Post(base+serve.StudyPath, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
		}
		return nil
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pkaload:", err)
	os.Exit(1)
}
