// Command pka runs the Principal Kernel Analysis pipeline on one workload:
// silicon ground truth, Principal Kernel Selection, and sampled simulation
// with and without Principal Kernel Projection, reporting errors, speedups
// and projected simulation times.
//
// Usage:
//
//	pka -list                             # list study workloads
//	pka -w Rodinia/gauss_208              # full pipeline on one workload
//	pka -w Polybench/fdtd2d -target 2 -s 0.1
//	pka -w MLPerf/ssd_training -device turing -selection-only
//	pka -w Rodinia/gauss_208 -trace t.json -metrics m.prom -audit a.ndjson
//	pka -w Rodinia/bfs65536 -cache-dir D -flight f.ndjson
//	pka -w Rodinia/gauss_208 -emit-workload g.json   # write its document
//	pka -workload-file g.json                        # study it
//
// Each fact a run reports leaves through one output: cache and ladder-tier
// counters through -metrics (pka_cache_*, pka_exec_tier_*, pka_shard_*),
// and which tier and shard peer served each kernel launch through -flight,
// one NDJSON line per kernel task.
//
// -workload-file reads a workload document ('-' = stdin); -emit-workload
// writes one, an entry per launch with its exact seed. A study of a
// workload's emitted document prints what the study of the workload itself
// does, byte for byte.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"pka/internal/cli"
	"pka/internal/core"
	"pka/internal/dedup"
	"pka/internal/pkp"
	"pka/internal/pks"
	"pka/internal/report"
	"pka/internal/sampling"
	"pka/internal/stats"
	"pka/internal/workload"
)

func main() {
	var (
		list      = flag.Bool("list", false, "list the 147 study workloads")
		wname     = flag.String("w", "", "workload full name (suite/name)")
		device    = flag.String("device", "volta", cli.DeviceNames)
		target    = flag.Float64("target", 5, "PKS target selection error (%)")
		sThresh   = flag.Float64("s", pkp.DefaultThreshold, "PKP stability threshold s")
		window    = flag.Int("n", pkp.DefaultWindow, "PKP rolling window (cycles)")
		selOnly   = flag.Bool("selection-only", false, "stop after Principal Kernel Selection")
		maxK      = flag.Int("maxk", 20, "K-Means sweep bound")
		jsonOut   = flag.String("json", "", "write the selection (groups, representatives, weights) to this JSON file")
		wfile     = flag.String("workload-file", "", "analyze a workload from a JSON document instead of -w ('-' = stdin)")
		par       = flag.Int("p", 0, "parallelism: concurrent pipeline stages (0 = GOMAXPROCS, 1 = serial)")
		flightF   = flag.String("flight", "", "write the per-kernel execution provenance (flight recorder) as NDJSON to this file")
		suiteDed  = flag.String("suite-dedup", "", "run a suite-level dedup study over this comma-separated workload list: cluster all apps in one shared PCA space, simulate one representative per cross-workload group, and report per-app errors plus the warp-instruction savings vs per-app PKS")
		emitDoc   = flag.String("emit-workload", "", "with -w or -workload-file: write the workload as a JSON document, one entry per launch with its exact seed, to this file ('-' = stdout) and exit")
		execFlags cli.ExecFlags
	)
	execFlags.Obs.Register(nil)
	execFlags.Cache.Register(nil)
	execFlags.Shard.Register(nil)
	flag.Parse()

	// -suite-dedup brings its own workload list and prints its own report,
	// so the single-app selectors and outputs are incoherent alongside it;
	// -w and -workload-file each name the one workload; and a
	// -selection-only study simulates nothing to record.
	if err := cli.FlagConflicts(nil,
		[2]string{"suite-dedup", "w"},
		[2]string{"suite-dedup", "workload-file"},
		[2]string{"suite-dedup", "selection-only"},
		[2]string{"suite-dedup", "json"},
		[2]string{"w", "workload-file"},
		[2]string{"selection-only", "flight"},
	); err != nil {
		fatal(err)
	}

	if *list {
		bysuite := map[string][]string{}
		var suites []string
		for _, w := range workload.All() {
			if len(bysuite[w.Suite]) == 0 {
				suites = append(suites, w.Suite)
			}
			bysuite[w.Suite] = append(bysuite[w.Suite], fmt.Sprintf("%-40s %8d kernels", w.FullName(), w.N))
		}
		for _, s := range suites {
			fmt.Printf("%s (%d workloads)\n", s, len(bysuite[s]))
			sort.Strings(bysuite[s])
			for _, l := range bysuite[s] {
				fmt.Println("  " + l)
			}
		}
		return
	}
	var w *workload.Workload
	switch {
	case *suiteDed != "":
		// Suite-dedup mode resolves its own workload list below.
	case *wfile != "":
		var err error
		w, err = workload.LoadJSON(*wfile)
		if err != nil {
			fatal(err)
		}
	case *wname != "":
		var err error
		w, err = cli.FindWorkload(*wname)
		if err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	if *emitDoc != "" {
		if w == nil {
			fatal(fmt.Errorf("-emit-workload needs -w or -workload-file"))
		}
		if err := emitWorkload(w, *emitDoc); err != nil {
			fatal(err)
		}
		return
	}

	dev, err := cli.Device(*device)
	if err != nil {
		fatal(err)
	}
	sess, err := execFlags.Build(*par)
	if err != nil {
		fatal(err)
	}

	cfg := core.Config{
		Device:      dev,
		PKS:         pks.Options{TargetErrorPct: *target, MaxK: *maxK},
		PKP:         pkp.Options{Threshold: *sThresh, Window: *window},
		Parallelism: *par,
		Obs:         sess.Observer,
		Exec:        sess.Exec,
	}
	if *flightF != "" {
		cfg.Flight = sampling.NewFlightRecorder()
	}
	if execFlags.Obs.Trace != "" {
		// The written trace names this process.
		sess.Observer.Tracer.SetProcessName("pka")
	}

	// Every mode leaves through the one epilogue below: the -flight
	// provenance when a study simulated anything, then the session's Close.
	switch {
	case *suiteDed != "":
		var ws []*workload.Workload
		if ws, err = cli.Workloads(*suiteDed); err == nil {
			err = suiteDedupStudy(cfg, ws)
		}
	default:
		err = batchStudy(cfg, w, *target, *jsonOut, *selOnly)
	}
	if err == nil && *flightF != "" {
		err = writeFlight(cfg.Flight, *flightF)
	}
	if cerr := sess.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatal(err)
	}
}

// batchStudy runs the default mode: one evaluation, then the selection
// block and the simulation block — or, with selOnly, the selection alone.
func batchStudy(cfg core.Config, w *workload.Workload, target float64, jsonOut string, selOnly bool) error {
	fmt.Printf("workload   %s (%d kernels) on %s\n", w.FullName(), w.N, cfg.Device.Name)
	if w.Quirk != "" {
		fmt.Printf("quirk      %s (the paper excludes this workload from some result columns)\n", w.Quirk)
	}
	if selOnly {
		selSpan := cfg.Obs.StartSpan("pks-select", w.FullName())
		sel, err := core.Select(cfg, w)
		selSpan.End()
		if err != nil {
			return err
		}
		return printSelection(sel, target, jsonOut)
	}
	ev, err := core.Evaluate(cfg, w)
	if err != nil {
		return err
	}
	if err := printSelection(ev.Selection, target, jsonOut); err != nil {
		return err
	}
	printSimulation(ev)
	return nil
}

// writeFlight writes the -flight NDJSON, one provenance entry per kernel
// task in (phase, launch index) order.
func writeFlight(flight *sampling.FlightRecorder, path string) error {
	if err := cli.WriteFile(path, flight.WriteNDJSON); err != nil {
		return err
	}
	fmt.Printf("flight recorder written to %s\n", path)
	return nil
}

// suiteDedupStudy runs the -suite-dedup mode: one shared selection over
// every workload in the suite, one simulation per cross-workload
// representative, and a per-app comparison against the per-app PKS
// pipeline — selection errors, end-to-end errors, and the total
// warp-instruction savings the shared representatives buy.
func suiteDedupStudy(cfg core.Config, ws []*workload.Workload) error {
	fmt.Printf("suite      %d workloads on %s\n", len(ws), cfg.Device.Name)
	for _, w := range ws {
		fmt.Printf("  %-40s %8d kernels\n", w.FullName(), w.N)
	}

	suite, err := dedup.Select(cfg, ws)
	if err != nil {
		return err
	}
	fmt.Printf("\nSuite-level dedup selection\n")
	fmt.Printf("  pooled kernels        %d of %d launches\n", suite.PooledKernels, suite.TotalKernels)
	fmt.Printf("  shared groups (K)     %d\n", suite.K)
	fmt.Printf("  suite error           %.2f%% (silicon, target %.1f%%, per-app bound %.1f%%)\n",
		suite.SuiteErrorPct, suite.TargetErrorPct, suite.PerAppErrorPct)
	fmt.Printf("  profiling time        %s (modeled)\n", report.Seconds(suite.ProfilingSeconds))

	run, apps, err := core.RunSegments(cfg, ws, suite.Segments, false)
	if err != nil {
		return err
	}

	// Per-app baseline: each workload's own PKS selection and sampled run,
	// the "before" column of every number below.
	tab := &report.Table{Columns: []string{"Workload", "Kernels", "PKS K", "PKS err%", "Dedup reps", "Dedup err%"}}
	solo := core.Plan{Passes: []sampling.TaskMode{sampling.ModePKS}, Silicon: true}
	var perAppWork int64
	for a, w := range ws {
		ev, err := solo.Evaluate(cfg, w, nil)
		if err != nil {
			return err
		}
		perAppWork += ev.PKS.SimWarpInstrs
		dedupErr := stats.AbsPctErr(float64(apps[a].ProjCycles), float64(ev.Silicon.Cycles))
		tab.AddRow(w.FullName(), fmt.Sprint(w.N),
			fmt.Sprint(ev.Selection.K), fmt.Sprintf("%.2f", ev.PKS.ErrorPct),
			fmt.Sprint(suite.Apps[a].ActiveReps), fmt.Sprintf("%.2f", dedupErr))
	}
	fmt.Println()
	fmt.Println(tab)

	fmt.Printf("simulated warp instructions\n")
	fmt.Printf("  per-app PKS           %d\n", perAppWork)
	fmt.Printf("  suite dedup           %d\n", run.SimWarpInstrs)
	if run.SimWarpInstrs > 0 {
		fmt.Printf("  savings               %.2fx fewer (%s -> %s at the modeled rate)\n",
			float64(perAppWork)/float64(run.SimWarpInstrs),
			report.Hours(core.SimHours(perAppWork)), report.Hours(run.SimHours))
	}
	return nil
}

// printSelection renders the Principal Kernel Selection block.
func printSelection(sel *pks.Selection, target float64, jsonOut string) error {
	fmt.Printf("\nPrincipal Kernel Selection\n")
	fmt.Printf("  groups (K)            %d\n", sel.K)
	fmt.Printf("  two-level profiling   %v (%d of %d kernels detailed)\n", sel.TwoLevel, sel.DetailedKernels, sel.TotalKernels)
	if sel.TwoLevel {
		fmt.Printf("  classifier accuracy   %.3f\n", sel.ClassifierAccuracy)
	}
	fmt.Printf("  profiling time        %s (modeled)\n", report.Seconds(sel.ProfilingSeconds))
	fmt.Printf("  selection error       %.2f%% (silicon, target %.1f%%)\n", sel.SelectionErrorPct, target)
	fmt.Printf("  silicon speedup       %.1fx\n", sel.SiliconSpeedup)
	tab := &report.Table{Columns: []string{"Group", "Rep kernel ID", "Rep name", "Population"}}
	for gi, g := range sel.Groups {
		tab.AddRow(fmt.Sprint(gi), fmt.Sprint(g.RepIndex), g.Representative.Name, fmt.Sprint(g.Count()))
	}
	fmt.Println()
	fmt.Println(tab)
	if jsonOut != "" {
		if err := cli.WriteFile(jsonOut, sel.WriteJSON); err != nil {
			return err
		}
		fmt.Printf("selection written to %s\n\n", jsonOut)
	}
	return nil
}

// printSimulation renders the sampled-simulation block.
func printSimulation(ev *core.Evaluation) {
	fmt.Printf("simulation (modeled Accel-Sim rate %.0f warp-instr/s)\n", core.SimRate)
	if ev.Full != nil {
		fmt.Printf("  full simulation       %s, error %.1f%% vs silicon\n",
			report.Hours(ev.FullSimHours), ev.Full.ErrorPct)
	} else {
		fmt.Printf("  full simulation       infeasible (projected %s)\n", report.Hours(ev.FullSimHours))
	}
	fmt.Printf("  PKS                   %s (%.1fx), error %.1f%%\n",
		report.Hours(ev.PKS.SimHours), ev.PKS.SpeedupVsFull, ev.PKS.ErrorPct)
	fmt.Printf("  PKA (PKS+PKP)         %s (%.1fx), error %.1f%%\n",
		report.Hours(ev.PKA.SimHours), ev.PKA.SpeedupVsFull, ev.PKA.ErrorPct)
	fmt.Printf("  PKA projected DRAM    %.1f%%\n", ev.PKA.DRAMUtil*100)
}

// emitWorkload writes the workload as a workload document, to stdout when
// path is "-".
func emitWorkload(w *workload.Workload, path string) error {
	render := func(out io.Writer) error { return workload.WriteJSON(out, w) }
	if path == "-" {
		return render(os.Stdout)
	}
	if err := cli.WriteFile(path, render); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "workload document written to %s\n", path)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pka:", err)
	os.Exit(1)
}
