package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one metric, its unit and which direction is better.
// Bound is the share of the parent's median by which an end-to-end metric
// may worsen before a change counts as a regression; per-layer metrics
// have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// hostBound is the bound of every host-time and host-memory metric. The
// 2-core shared reference box changes speed by 20 to 40 % for minutes at a
// time; calibration (calibrate.go) damps that, it does not remove it, and
// ten runs of one commit still spread by up to a tenth of their median
// (README, reference tables). The bound is the widest the benchmark format
// allows.
const hostBound = 0.25

// exactBound is the bound of the deterministic accuracy metrics: they
// repeat bit-for-bit, so any visible move means the model changed.
const exactBound = 0.001

// endToEnd lists what a user of the system sees, per workload. It must
// match BENCHMARK.json (TestBenchmarkJSONMatches). failed_frac is not in
// the list because a metric that is normally 0 has no relative bound; it
// is carried by the result line's "failed" and "attempted" counts.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", hostBound},
	{"studies_per_s", "1/s", "higher", hostBound},
	{"study_ms_p50", "ms", "lower", hostBound},
	{"study_ms_tail", "ms", "lower", hostBound},
	{"cpu_ms_per_study", "ms", "lower", hostBound},
	{"peak_rss_mb", "MiB", "lower", hostBound},
	{"pka_err_pct", "%", "lower", exactBound},
	{"pka_work_reduction_x", "x", "higher", exactBound},
}

// perLayer lists the traced run's metrics, grouped by the layer (package
// under internal/) they describe. A metric that does not apply to a
// workload reads 0 there.
var perLayer = []metricDef{
	{Name: "silicon.walk_ms", Unit: "ms", Better: "lower"},
	{Name: "silicon.kernels_per_s", Unit: "1/s", Better: "higher"},
	{Name: "profiler.detailed_us_per_kernel", Unit: "us", Better: "lower"},
	{Name: "profiler.light_us_per_kernel", Unit: "us", Better: "lower"},
	{Name: "linalg.pca_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.sweep_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.k_tried", Unit: "count", Better: "lower"},
	{Name: "classify.fit_ms", Unit: "ms", Better: "lower"},
	{Name: "classify.predict_us_per_kernel", Unit: "us", Better: "lower"},
	{Name: "pks.select_ms", Unit: "ms", Better: "lower"},
	{Name: "pks.self_ms", Unit: "ms", Better: "lower"},
	{Name: "pks.probe_select_ms", Unit: "ms", Better: "lower"},
	{Name: "pks.probe_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "sim.full_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.sampled_pks_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.sampled_pka_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.mwi_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim.kernels", Unit: "count", Better: "lower"},
	{Name: "sim.warp_instrs", Unit: "count", Better: "lower"},
	{Name: "sim.cycles", Unit: "count", Better: "lower"},
	{Name: "mem.l1_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "mem.l2_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "mem.dram_bytes", Unit: "bytes", Better: "lower"},
	{Name: "pkp.stopped_frac", Unit: "ratio", Better: "higher"},
	{Name: "pkp.simulated_frac", Unit: "ratio", Better: "lower"},
	{Name: "pkp.tick_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "exec.tasks", Unit: "count", Better: "lower"},
	{Name: "exec.mem_hits", Unit: "count", Better: "higher"},
	{Name: "exec.disk_hits", Unit: "count", Better: "higher"},
	{Name: "exec.sim_runs", Unit: "count", Better: "lower"},
	{Name: "exec.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "exec.taskkey_us", Unit: "us", Better: "lower"},
	{Name: "exec.codec_us", Unit: "us", Better: "lower"},
	{Name: "parallel.tasks", Unit: "count", Better: "lower"},
	{Name: "parallel.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "artifact.puts", Unit: "count", Better: "lower"},
	{Name: "artifact.put_us_p50", Unit: "us", Better: "lower"},
	{Name: "artifact.bytes_written", Unit: "bytes", Better: "lower"},
	{Name: "artifact.gets", Unit: "count", Better: "lower"},
	{Name: "artifact.get_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.evaluate_self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.fold_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.decode_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.marshal_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_wait_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "serve.run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.http_overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.repeat_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.novel_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.runner_util", Unit: "ratio", Better: "higher"},
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "obs.phase_coverage_pct", Unit: "%", Better: "higher"},
	{Name: "obs.spans", Unit: "count", Better: "lower"},
	{Name: "obs.dropped", Unit: "count", Better: "lower"},
	{Name: "go.alloc_mb_per_study", Unit: "MiB", Better: "lower"},
	{Name: "go.allocs_per_study", Unit: "count", Better: "lower"},
	{Name: "go.gc_cpu_frac", Unit: "ratio", Better: "lower"},
}

// value is one reported number with its unit, as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill renders vals in defs' order and units; a metric the run did not
// set reads 0.
func fill(defs []metricDef, vals map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

// percentile is the nearest-rank percentile of an ascending-sorted slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// p50 sorts a copy of xs and returns its median.
func p50(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// weighted is one value standing for n equal samples.
type weighted struct {
	v float64
	n int
}

// weightedPercentile is the nearest-rank percentile of the multiset in
// which every value appears n times.
func weightedPercentile(xs []weighted, p float64) float64 {
	xs = append([]weighted(nil), xs...)
	sort.Slice(xs, func(i, j int) bool { return xs[i].v < xs[j].v })
	total := 0
	for _, x := range xs {
		total += x.n
	}
	rank := int(math.Ceil(p / 100 * float64(total)))
	for _, x := range xs {
		if rank -= x.n; rank <= 0 {
			return x.v
		}
	}
	if len(xs) == 0 {
		return 0
	}
	return xs[len(xs)-1].v
}

// quartiles returns the first, second and third quartile of xs the way
// Python's statistics.quantiles(xs, n=4) does (the exclusive method), so
// the -check mode reports the spread the driver computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// ms and us render a duration as fractional milli- and microseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
