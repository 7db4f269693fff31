// Command pkaexp regenerates the paper's tables and figures from the
// reproduced system.
//
// Usage:
//
//	pkaexp -list
//	pkaexp -exp fig1,table3
//	pkaexp -exp all [-out results.txt]
//	pkaexp -exp table4 -suite Rodinia     # restrict to one suite
//
// Generating everything sweeps all 147 workloads through profiling,
// selection, and (where feasible) full simulation. Per-workload artifacts
// fan out across GOMAXPROCS workers by default (tune with -p; -p 1 forces
// the old serial behaviour); output is byte-identical at every setting.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"pka/internal/cli"
	"pka/internal/experiments"
	"pka/internal/report"
	"pka/internal/workload"
)

type generator struct {
	name string
	desc string
	run  func(s *experiments.Study, out io.Writer) error
}

func generators() []generator {
	return []generator{
		{"fig1", "execution vs profiling vs projected simulation time", func(s *experiments.Study, out io.Writer) error {
			chart, tab, err := experiments.Figure1(s)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, chart)
			fmt.Fprintln(out, tab)
			return nil
		}},
		{"table3", "PKS selection examples", func(s *experiments.Study, out io.Writer) error {
			tab, err := experiments.Table3(s)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, tab)
			return nil
		}},
		{"fig4", "ResNet per-group kernel composition", func(s *experiments.Study, out io.Writer) error {
			tab, err := experiments.Figure4(s)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, tab)
			return nil
		}},
		{"fig5", "PKP stopping points on atax and bfs", func(s *experiments.Study, out io.Writer) error {
			charts, tab, err := experiments.Figure5(s)
			if err != nil {
				return err
			}
			for _, c := range charts {
				fmt.Fprintln(out, c)
			}
			fmt.Fprintln(out, tab)
			return nil
		}},
		{"fig6", "simulation time: full vs PKS vs PKA", chartAndTable(experiments.Figure6)},
		{"fig7", "speedup vs TBPoint and 1B", chartAndTable(experiments.Figure7)},
		{"fig8", "error vs TBPoint and 1B", chartAndTable(experiments.Figure8)},
		{"table4", "the full results table", func(s *experiments.Study, out io.Writer) error {
			tab, err := experiments.Table4(s)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, tab)
			summary, err := experiments.Table4SuiteSummary(s)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, summary)
			return nil
		}},
		{"fig9", "V100 vs RTX 2060 relative accuracy", chartAndTable(experiments.Figure9)},
		{"fig10", "80 vs 40 SM relative accuracy", chartAndTable(experiments.Figure10)},
		{"ablation-rep", "representative policy ablation", tableOnly(experiments.AblationRepPolicy)},
		{"ablation-pkp", "PKP threshold ablation", tableOnly(experiments.AblationPKPThreshold)},
		{"ablation-wave", "PKP wave-constraint ablation", tableOnly(experiments.AblationWaveConstraint)},
		{"ablation-pca", "PCA on/off ablation", tableOnly(experiments.AblationPCA)},
		{"ablation-cluster", "clustering scalability ablation", tableOnly(experiments.AblationClusteringScale)},
		{"ablation-classifier", "two-level classifier ablation", tableOnly(experiments.AblationClassifier)},
	}
}

func chartAndTable(f func(*experiments.Study) (*report.Chart, *report.Table, error)) func(*experiments.Study, io.Writer) error {
	return func(s *experiments.Study, out io.Writer) error {
		chart, tab, err := f(s)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, chart)
		fmt.Fprintln(out, tab)
		return nil
	}
}

func tableOnly(f func(*experiments.Study) (*report.Table, error)) func(*experiments.Study, io.Writer) error {
	return func(s *experiments.Study, out io.Writer) error {
		tab, err := f(s)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, tab)
		return nil
	}
}

func main() {
	var (
		expFlag  = flag.String("exp", "", "comma-separated experiment names, or 'all'")
		list     = flag.Bool("list", false, "list available experiments")
		outPath  = flag.String("out", "", "write results to this file instead of stdout")
		suite    = flag.String("suite", "", "restrict the study to one suite (Rodinia, Parboil, ...)")
		workname = flag.String("workloads", "", "comma-separated full workload names to restrict to")
		par      = flag.Int("p", 0, "parallelism: concurrent per-workload artifact computations (0 = GOMAXPROCS, 1 = serial)")
		execFl   cli.ExecFlags
	)
	execFl.Obs.Register(nil)
	execFl.Cache.Register(nil)
	execFl.Shard.Register(nil)
	flag.Parse()
	// -workloads names the study set outright; a -suite beside it would be
	// dropped without a word.
	if err := cli.FlagConflicts(nil, [2]string{"suite", "workloads"}); err != nil {
		fatal(err)
	}

	gens := generators()
	if *list || *expFlag == "" {
		fmt.Println("available experiments:")
		for _, g := range gens {
			fmt.Printf("  %-20s %s\n", g.name, g.desc)
		}
		if *expFlag == "" && !*list {
			fmt.Println("\nrun with -exp <name>[,<name>...] or -exp all")
		}
		return
	}

	// Everything a run can be refused for is checked before the report is
	// rendered: -out names a file that is created at the report's first write.
	want := map[string]bool{}
	if *expFlag == "all" {
		for _, g := range gens {
			want[g.name] = true
		}
	} else {
		for _, n := range strings.Split(*expFlag, ",") {
			want[strings.TrimSpace(n)] = true
		}
	}
	var unknown []string
	for n := range want {
		if !slices.ContainsFunc(gens, func(g generator) bool { return g.name == n }) {
			unknown = append(unknown, n)
		}
	}
	if len(unknown) > 0 {
		slices.Sort(unknown)
		fatal(fmt.Errorf("unknown experiments: %s", strings.Join(unknown, ", ")))
	}

	sess, err := execFl.Build(*par)
	if err != nil {
		fatal(err)
	}
	s := experiments.New()
	s.Cfg.Parallelism = *par
	s.Cfg.Obs = sess.Observer
	s.Cfg.Exec = sess.Exec
	// The study's per-artifact caches sit above the ladder's, which Build
	// registered; the exposition reports both.
	sess.Observer.RegisterCacheStats(s.CacheStats)
	if *suite != "" {
		ws := workload.BySuite(*suite)
		if ws == nil {
			fatal(fmt.Errorf("unknown suite %q", *suite))
		}
		s.SetWorkloads(ws)
	}
	if *workname != "" {
		ws, err := cli.Workloads(*workname)
		if err != nil {
			fatal(err)
		}
		s.SetWorkloads(ws)
	}

	render := func(dst io.Writer) error {
		// Flushed after every experiment, so a failed write stops the run and
		// a later failure keeps what came before.
		out := bufio.NewWriter(dst)
		for _, g := range gens {
			if !want[g.name] {
				continue
			}
			t0 := time.Now()
			fmt.Fprintf(out, "### %s — %s\n\n", g.name, g.desc)
			sp := sess.Observer.StartSpan("experiment", g.name)
			err := g.run(s, out)
			sp.End()
			if err != nil {
				return fmt.Errorf("%s: %w", g.name, err)
			}
			fmt.Fprintf(out, "[%s generated in %s]\n\n", g.name, time.Since(t0).Round(time.Millisecond))
			if err := out.Flush(); err != nil {
				return fmt.Errorf("writing %s: %w", g.name, err)
			}
		}
		return nil
	}
	if *outPath != "" {
		err = cli.WriteFile(*outPath, render)
	} else {
		err = render(os.Stdout)
	}
	if err != nil {
		fatal(err)
	}
	if err := sess.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pkaexp:", err)
	os.Exit(1)
}
