package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// The -check mode compares two sets of saved runs of one workload — each
// file is the standard output of one fresh process — the way a reviewer
// compares a parent commit with a change: per end-to-end metric it prints
// each set's min, median, max and relative spread (the distance between
// the first and third quartile over the median, computed as Python's
// statistics.quantiles does), and it fails when the second set's median is
// worse than the first's by more than the metric's bound, when a spread is
// wider than the bound, or when any run failed an output check.

// savedRun is the result line of one saved run, and the host slowdown its
// full report carries.
type savedRun struct {
	Correct      bool             `json:"correct"`
	Attempted    int              `json:"attempted"`
	Failed       int              `json:"failed"`
	Metrics      map[string]value `json:"metrics"`
	HostSlowdown float64          `json:"host_slowdown"`
}

// loadRun reads the last line of a saved standard output, and the host
// slowdown from the full report on the line before it when there is one.
func loadRun(path string) (savedRun, error) {
	var run savedRun
	raw, err := os.ReadFile(path)
	if err != nil {
		return run, err
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	if len(lines) > 1 {
		_ = json.Unmarshal(lines[len(lines)-2], &run) // a file without the full report has no slowdown to show
	}
	if err := json.Unmarshal(lines[len(lines)-1], &run); err != nil {
		return run, fmt.Errorf("%s: last line is not a result object: %w", path, err)
	}
	return run, nil
}

func loadSet(csv string) ([]savedRun, error) {
	var set []savedRun
	for _, path := range strings.Split(csv, ",") {
		run, err := loadRun(strings.TrimSpace(path))
		if err != nil {
			return nil, err
		}
		set = append(set, run)
	}
	return set, nil
}

// column is one set's values of one metric.
type column struct {
	min, median, max, spread float64
}

func summarize(set []savedRun, name string) column {
	xs := make([]float64, len(set))
	for i, run := range set {
		xs[i] = run.Metrics[name].Value
	}
	return summarizeValues(xs)
}

func summarizeValues(xs []float64) column {
	s := sortedCopy(xs)
	q1, q2, q3 := quartiles(xs)
	return column{min: s[0], median: q2, max: s[len(s)-1], spread: ratio(q3-q1, q2)}
}

// runCheck prints the comparison and returns the exit code.
func runCheck(w io.Writer, spec string) int {
	a, b, ok := strings.Cut(spec, ":")
	if !ok {
		fmt.Fprintln(w, "check: want A1,A2,...:B1,B2,...")
		return 2
	}
	setA, err := loadSet(a)
	if err == nil && len(setA) < 5 {
		err = fmt.Errorf("first set has %d runs, want at least 5", len(setA))
	}
	var setB []savedRun
	if err == nil {
		setB, err = loadSet(b)
	}
	if err == nil && len(setB) < 5 {
		err = fmt.Errorf("second set has %d runs, want at least 5", len(setB))
	}
	if err != nil {
		fmt.Fprintln(w, "check:", err)
		return 2
	}

	fmt.Fprintf(w, "host: %d CPUs, %s, %s\n", runtime.NumCPU(), cpuModel(), runtime.Version())
	fmt.Fprintf(w, "%d runs against %d runs; host slowdown (min / median / max) %s against %s\n\n",
		len(setA), len(setB), slowdowns(setA), slowdowns(setB))
	fmt.Fprintf(w, "| metric | unit | A min / median / max | A spread | B min / median / max | B spread | B vs A | bound | verdict |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|---|\n")
	failed := false
	for _, run := range append(append([]savedRun(nil), setA...), setB...) {
		if !run.Correct || run.Failed != 0 {
			fmt.Fprintf(w, "a run failed %d of %d output checks\n", run.Failed, run.Attempted)
			failed = true
		}
	}
	for _, d := range endToEnd {
		if _, present := setA[0].Metrics[d.Name]; !present {
			continue
		}
		ca, cb := summarize(setA, d.Name), summarize(setB, d.Name)
		// worse is how far B's median sits on the wrong side of A's, as
		// a share of A's.
		worse := ratio(cb.median-ca.median, ca.median)
		if d.Better == "higher" {
			worse = -worse
		}
		verdict := "ok"
		switch {
		case worse > d.Bound:
			verdict = "REGRESSED"
		case d.Name != "setup_s" && (ca.spread > d.Bound || cb.spread > d.Bound):
			verdict = "UNSTEADY"
		}
		if verdict != "ok" {
			failed = true
		}
		fmt.Fprintf(w, "| %s | %s | %.5g / %.5g / %.5g | %.1f%% | %.5g / %.5g / %.5g | %.1f%% | %+.1f%% | %.1f%% | %s |\n",
			d.Name, d.Unit, ca.min, ca.median, ca.max, 100*ca.spread, cb.min, cb.median, cb.max, 100*cb.spread,
			100*ratio(cb.median-ca.median, ca.median), 100*d.Bound, verdict)
	}
	if failed {
		return 1
	}
	return 0
}

// slowdowns renders a set's calibrator readings.
func slowdowns(set []savedRun) string {
	xs := make([]float64, len(set))
	for i, run := range set {
		xs[i] = run.HostSlowdown
	}
	c := summarizeValues(xs)
	return fmt.Sprintf("%.2f / %.2f / %.2f", c.min, c.median, c.max)
}

// cpuModel names the host CPU for the table's header.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return runtime.GOARCH
}
