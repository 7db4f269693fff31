// Command bench is this repository's benchmark: four study workloads,
// eight end-to-end metrics measured untraced, and a traced run of the same
// workload that attributes the time to layers. README.md explains every
// workload, metric and bound.
//
//	bash bench/run.sh --workload sim_cold --seed 1 --seconds 20 --trace 0
//
// One invocation runs one workload in one process, checks every output,
// prints a summary on standard error and, as the last line of standard
// output, one JSON object {"correct","attempted","failed","metrics"}. The
// exit code is 0 only when every output check passed. The process starts
// no other process; a watchdog dumps the goroutines and exits non-zero
// should a run ever hang.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"
)

// watchdogAfter bounds one invocation; the longest workload takes ≈ 35 s.
const watchdogAfter = 170 * time.Second

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: sim_cold, select_cold, warm_batch or serve_closed")
		seed     = flag.Uint64("seed", 1, "seed of the per-round study order and the serve_closed request order")
		seconds  = flag.Float64("seconds", nominalSeconds, "measured window the fixed work counts are scaled to")
		trace    = flag.Int("trace", 0, "1 = the traced run: per-layer metrics in place of the end-to-end ones")
		traceOut = flag.String("trace-out", "", "with -trace 1, write the merged Chrome trace (program spans + benchmark spans) here")
		tmp      = flag.String("tmp", ".bench_build/tmp", "directory the artifact stores live in for the length of the run")
		check    = flag.String("check", "", "compare two sets of saved runs, A1,A2,...:B1,B2,... (each file one run's standard output), and exit")
	)
	flag.Parse()
	if *check != "" {
		os.Exit(runCheck(os.Stdout, *check))
	}
	if *seconds <= 0 || *seconds > 60 {
		fatal(fmt.Errorf("-seconds %g outside (0, 60]", *seconds))
	}
	watchdog := time.AfterFunc(watchdogAfter, func() {
		fmt.Fprintf(os.Stderr, "bench: still running after %s; goroutines:\n", watchdogAfter)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2) // best effort on the way out
		os.Exit(3)
	})
	defer watchdog.Stop()

	rep, err := run(options{
		workload: *workload,
		seed:     *seed,
		traced:   *trace != 0,
		traceOut: *traceOut,
		tmp:      *tmp,
		log:      os.Stderr,
	}, fullScale(*seconds))
	if err != nil {
		fatal(err)
	}
	printReport(os.Stderr, rep)
	// The full report first, for people and for -check's tables; the
	// contract's result object last.
	full, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n%s\n", full, line)
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
