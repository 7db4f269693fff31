package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"pka/internal/stats"
)

// processStart approximates process start; setup_s counts from here.
var processStart = time.Now()

// options is one invocation's command line.
type options struct {
	workload string
	seed     uint64
	traced   bool
	traceOut string // Chrome trace file of the traced run ("" = none)
	tmp      string // directory for artifact stores, created and removed per run
	log      io.Writer
}

// report is everything one invocation measured. The contract's result
// line is its correct/attempted/failed/metrics subset; the rest is printed
// beside it so a percentile never travels without its sample count.
type report struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Traced    bool             `json:"traced"`
	Samples   int              `json:"samples"`
	Tail      string           `json:"tail"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// HostSlowdown is the calibrator's reading for this run and Uncalibrated
	// the host times as a stopwatch showed them (untraced run only).
	HostSlowdown float64            `json:"host_slowdown,omitempty"`
	Uncalibrated map[string]float64 `json:"uncalibrated,omitempty"`
	Layers       map[string]float64 `json:"layers,omitempty"`
	Problems     []string           `json:"problems,omitempty"`
}

// outcome is the checked result of one study.
type outcome struct {
	// digest is FNV-1a over the study's name, K, projected cycles and
	// simulated warp instructions: what must not change with cache
	// temperature, round or tracing.
	digest uint64
	// errPct is |projected − silicon| ÷ silicon cycles, in percent.
	errPct float64
	// fullWork ÷ simWork is the study's work reduction.
	fullWork, simWork float64
}

// ledger accumulates one pass's samples and output checks.
type ledger struct {
	// ms holds every successful study's wall time, by study name; rounds
	// holds every measured round's wall and CPU time.
	ms        map[string][]float64
	rounds    []roundCost
	attempted int
	failed    int
	problems  []string
	seen      map[string]outcome // first outcome per distinct study
}

// roundCost is what one round — every study of the workload once — cost.
type roundCost struct{ wallMs, cpuMs float64 }

func newLedger() *ledger { return &ledger{ms: map[string][]float64{}, seen: map[string]outcome{}} }

// samples is how many study times the ledger holds.
func (l *ledger) samples() int {
	n := 0
	for _, ms := range l.ms {
		n += len(ms)
	}
	return n
}

// fail counts one failed study and keeps the first few reasons.
func (l *ledger) fail(format string, args ...interface{}) {
	l.failed++
	if len(l.problems) < 8 {
		l.problems = append(l.problems, fmt.Sprintf(format, args...))
	}
}

// record books one finished study: its latency sample, and its outcome
// against the first outcome seen under the same name and, where one is
// committed, the golden digest.
func (l *ledger) record(name string, d time.Duration, oc outcome, err error) {
	l.attempted++
	if err != nil {
		l.fail("%s: %v", name, err)
		return
	}
	l.ms[name] = append(l.ms[name], ms(d))
	l.check(name, oc)
}

// check compares oc with what name produced before.
func (l *ledger) check(name string, oc outcome) {
	first, ok := l.seen[name]
	if !ok {
		l.seen[name] = oc
		if want, pinned := goldenDigests[name]; pinned && want != oc.digest {
			l.fail("%s: digest %#x, golden %#x", name, oc.digest, want)
		}
		return
	}
	if first.digest != oc.digest {
		l.fail("%s: digest %#x differs from first round's %#x", name, oc.digest, first.digest)
	}
}

// accuracy folds the distinct studies' outcomes into the two exact
// end-to-end metrics, summing in name order so that the last bit repeats.
func (l *ledger) accuracy() (errPct, reduction float64) {
	names := make([]string, 0, len(l.seen))
	for name := range l.seen {
		names = append(names, name)
	}
	sort.Strings(names)
	var errSum, full, sim float64
	for _, name := range names {
		oc := l.seen[name]
		errSum += oc.errPct
		full += oc.fullWork
		sim += oc.simWork
	}
	return ratio(errSum, float64(len(names))), ratio(full, sim)
}

// mark is a point on the clock: wall and CPU time (user + system) since
// process start.
type mark struct{ wall, cpu time.Duration }

// plainMark reads the clock as it is; the measured passes read it through
// their calibrator, which keeps its own cost off it.
func plainMark() mark {
	ru := rusage()
	return mark{wall: time.Since(processStart), cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return ru
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// round books the round that ran between two marks.
func (l *ledger) round(from, to mark) {
	l.rounds = append(l.rounds, roundCost{
		wallMs: ms(to.wall - from.wall),
		cpuMs:  ms(to.cpu - from.cpu),
	})
}

// quietPercentile is the percentile a repeated timing is reported at. The
// reference box is a small shared machine whose neighbours slow memory-bound
// code by 10 to 40 % for seconds at a time; interference only ever adds
// time, so a low percentile of repeats of the same work estimates the
// code's own cost far more steadily than their median (over eight runs of
// serve_closed the median spread by 28 %, the lower quartile by 11 %, the
// 10th percentile by 7 %), and where a study has many samples it does not
// rest on a single one as the minimum would.
const quietPercentile = 10

// quiet is the quiet percentile of xs.
func quiet(xs []float64) float64 { return percentile(sortedCopy(xs), quietPercentile) }

// tailPercentile is the percentile study_ms_tail reports.
const tailPercentile = 90

// hostTimes are the end-to-end metrics the calibrator's reading applies to.
var hostTimes = []string{"setup_s", "studies_per_s", "study_ms_p50", "study_ms_tail", "cpu_ms_per_study"}

// endToEndMetrics turns a measured pass into the end-to-end metric values.
// Each distinct study's time is the quiet percentile of its samples;
// study_ms_p50 and study_ms_tail are percentiles of those times over the
// study mix, each study weighted by how often it ran. Throughput and CPU
// time are the quiet percentile over rounds, which all hold the same work.
// Every host time is then divided by the run's slowdown (calibrate.go); the
// second map holds them as measured.
func endToEndMetrics(setup []float64, l *ledger, slowdown float64) (vals, uncalibrated map[string]float64) {
	var mix []weighted
	for _, ms := range l.ms {
		mix = append(mix, weighted{quiet(ms), len(ms)})
	}
	perRound := ratio(float64(l.samples()), float64(len(l.rounds)))
	wall, cpu := make([]float64, len(l.rounds)), make([]float64, len(l.rounds))
	for i, r := range l.rounds {
		wall[i], cpu[i] = r.wallMs, r.cpuMs
	}
	errPct, reduction := l.accuracy()
	vals = map[string]float64{
		"setup_s":              p50(setup),
		"studies_per_s":        ratio(perRound*1e3, quiet(wall)),
		"study_ms_p50":         weightedPercentile(mix, 50),
		"study_ms_tail":        weightedPercentile(mix, tailPercentile),
		"cpu_ms_per_study":     ratio(quiet(cpu), perRound),
		"peak_rss_mb":          peakRSSMB() - calBufMB, // every calibrated pass holds the buffer
		"pka_err_pct":          errPct,
		"pka_work_reduction_x": reduction,
	}
	uncalibrated = map[string]float64{}
	for _, name := range hostTimes {
		uncalibrated[name] = vals[name]
		if name == "studies_per_s" {
			vals[name] *= slowdown
		} else {
			vals[name] = ratio(vals[name], slowdown)
		}
	}
	return vals, uncalibrated
}

// heap is a snapshot of the Go runtime's allocation and GC accounting.
type heap struct {
	allocB   uint64
	mallocs  uint64
	gcCPU    float64 // seconds
	totalCPU float64 // seconds, as the runtime accounts it
}

func heapNow() heap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h := heap{allocB: ms.TotalAlloc, mallocs: ms.Mallocs}
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		h.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		h.totalCPU = s[1].Value.Float64()
	}
	return h
}

// runtimeMetrics is the go.* per-layer group over a window of n studies.
func runtimeMetrics(vals map[string]float64, from, to heap, n int) {
	vals["go.alloc_mb_per_study"] = ratio(float64(to.allocB-from.allocB)/(1<<20), float64(n))
	vals["go.allocs_per_study"] = ratio(float64(to.mallocs-from.mallocs), float64(n))
	vals["go.gc_cpu_frac"] = ratio(to.gcCPU-from.gcCPU, to.totalCPU-from.totalCPU)
}

// workloadDef is one named workload and the reason it exists.
type workloadDef struct {
	name string
	why  string
	run  func(o options, sc *scale) (*report, error)
}

var workloads = []workloadDef{
	{simCold.name, simCold.why, simCold.run},
	{selectCold.name, selectCold.why, selectCold.run},
	{warmBatch.name, warmBatch.why, warmBatch.run},
	{serveClosedName, serveClosedWhy, runServe},
}

// run executes one workload once and reports what it measured. Everything
// it starts — goroutines, listeners, directories — is gone when it returns.
func run(o options, sc *scale) (*report, error) {
	if o.log == nil {
		o.log = io.Discard
	}
	for _, w := range workloads {
		if w.name != o.workload {
			continue
		}
		if err := os.MkdirAll(o.tmp, 0o755); err != nil {
			return nil, err
		}
		return w.run(o, sc)
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}

// finish fills the report from the ledger and the metric values.
func finish(rep *report, l *ledger, vals map[string]float64) {
	defs := endToEnd
	if rep.Traced {
		defs = perLayer
	}
	rep.Metrics = fill(defs, vals)
	rep.Samples = l.samples()
	rep.Tail = fmt.Sprintf("p%d", tailPercentile)
	rep.Attempted, rep.Failed, rep.Problems = l.attempted, l.failed, l.problems
	rep.Correct = l.failed == 0 && l.attempted > 0
}

// roundOrder is the seeded order in which round r visits n studies.
func roundOrder(seed uint64, r, n int) []int {
	return stats.NewRNG(seed*0x9E3779B97F4A7C15 + uint64(r) + 1).Perm(n)
}

// printReport writes the human-readable summary of a run.
func printReport(w io.Writer, rep *report) {
	kind := "end-to-end (untraced)"
	if rep.Traced {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "%s seed %d: %s, %d samples, tail = %s, %d attempted, %d failed\n",
		rep.Workload, rep.Seed, kind, rep.Samples, rep.Tail, rep.Attempted, rep.Failed)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if v := rep.Metrics[n]; v.Value != 0 {
			fmt.Fprintf(w, "  %-34s %16.6g %s\n", n, v.Value, v.Unit)
		}
	}
	if !rep.Traced {
		fmt.Fprintf(w, "  host slowdown %.3f; as a stopwatch showed them:", rep.HostSlowdown)
		for _, n := range hostTimes {
			fmt.Fprintf(w, " %s %.6g", n, rep.Uncalibrated[n])
		}
		fmt.Fprintln(w)
	}
	for _, p := range rep.Problems {
		fmt.Fprintln(w, "  FAILED:", p)
	}
}
