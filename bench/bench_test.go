package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// tinyScale runs the real code paths on the cheapest workloads of the
// catalogue, a few milliseconds per study.
func tinyScale() *scale {
	return &scale{
		sim:     []string{"Rodinia/gauss_s16", "Rodinia/bfs4096", "Parboil/mri"},
		selects: []string{"Polybench/fdtd2d", "Rodinia/gauss_s16", "Rodinia/bfs4096"},
		novel:   []string{"Rodinia/gauss_s16", "Parboil/mri"},
		probe:   "Rodinia/bfs4096",

		nSim:             counts{rounds: 4, tracedRounds: 2, warm: 1, setups: 2},
		nSelect:          counts{rounds: 2, tracedRounds: 1, warm: 1, setups: 1},
		nWarm:            counts{rounds: 20, tracedRounds: 5, warm: 2, setups: 1},
		nServe:           counts{rounds: 3, tracedRounds: 1, warm: 1, setups: 2},
		simReplayKernels: 1,
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// goroutines returns the stacks of every goroutine but the caller's test
// plumbing, once background goroutines had a moment to exit.
func settledGoroutines(t *testing.T, atMost int) string {
	t.Helper()
	var dump string
	for deadline := time.Now().Add(3 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		buf := make([]byte, 1<<20)
		dump = string(buf[:runtime.Stack(buf, true)])
		if runtime.NumGoroutine() <= atMost || time.Now().After(deadline) {
			return dump
		}
	}
}

// TestWorkloadsSmoke runs every workload untraced and traced at tiny
// scale and checks the shape of what comes back: the result schema, the
// metric sets, names, sample counts beside the percentiles, every output
// check passing, and nothing left running afterwards.
func TestWorkloadsSmoke(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || w.why == "" || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			t.Run(fmt.Sprintf("%s/traced=%v", w.name, traced), func(t *testing.T) {
				tmp := t.TempDir()
				tracePath := ""
				if traced {
					tracePath = filepath.Join(tmp, "trace.json")
				}
				var log bytes.Buffer
				rep, err := run(options{workload: w.name, seed: 3, traced: traced, traceOut: tracePath, tmp: tmp, log: &log}, tinyScale())
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", rep.Correct, rep.Attempted, rep.Failed, rep.Problems)
				}
				if rep.Samples < 1 || rep.Tail != "p90" {
					t.Errorf("percentiles without their sample count: samples=%d tail=%q", rep.Samples, rep.Tail)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(rep.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(rep.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := rep.Metrics[d.Name]
					if !ok || v.Unit != d.Unit {
						t.Errorf("metric %s: present=%v unit=%q, want unit %q", d.Name, ok, v.Unit, d.Unit)
					}
					if !traced && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %g, want > 0", d.Name, v.Value)
					}
				}
				if _, err := json.Marshal(rep); err != nil {
					t.Errorf("report does not marshal: %v", err)
				}
				left, err := os.ReadDir(tmp)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range left {
					if f.Name() != "trace.json" {
						t.Errorf("run left %s behind", f.Name())
					}
				}
				if !traced {
					return
				}
				raw, err := os.ReadFile(tracePath)
				if err != nil {
					t.Fatal(err)
				}
				spans, err := parseTrace(raw)
				if err != nil || len(spans) == 0 {
					t.Fatalf("trace file: %d spans, %v", len(spans), err)
				}
				tracks := map[string]bool{}
				for _, s := range spans {
					tracks[s.track] = true
				}
				if !tracks[trackReplay] || !(tracks[trackStudy] || tracks["bench:client-0"]) {
					t.Errorf("trace lacks the benchmark's own tracks: %v", tracks)
				}
				if rep.Metrics["obs.spans"].Value != float64(len(spans)) || rep.Layers["study_wall_ms"] <= 0 {
					t.Errorf("obs.spans=%g with %d spans in the file, layers=%v", rep.Metrics["obs.spans"].Value, len(spans), rep.Layers)
				}
				if !strings.Contains(log.String(), "phase table") {
					t.Errorf("traced run printed no phase table")
				}
				checkLayerShares(t, w.name, rep)
			})
		}
	}
	dump := settledGoroutines(t, before)
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines before, %d after:\n%s", before, n, dump)
	}
	for _, frame := range []string{"net/http.(*Server).Serve", "net.(*TCPListener).Accept", "serve.(*Server).work"} {
		if strings.Contains(dump, frame) {
			t.Errorf("a listener or runner is still up (%s):\n%s", frame, dump)
		}
	}
}

// checkLayerShares holds the traced run to what each workload exists to
// show: which tiers served its kernel tasks and where the time went.
func checkLayerShares(t *testing.T, name string, rep *report) {
	t.Helper()
	m := func(n string) float64 { return rep.Metrics[n].Value }
	switch name {
	case "sim_cold":
		if m("exec.disk_hits") != 0 || m("exec.sim_runs") == 0 || m("artifact.puts") != m("exec.sim_runs") {
			t.Errorf("sim_cold: disk_hits=%g sim_runs=%g puts=%g", m("exec.disk_hits"), m("exec.sim_runs"), m("artifact.puts"))
		}
		if cov := m("obs.phase_coverage_pct"); cov < 95 || cov > 105 {
			t.Errorf("sim_cold: phase table covers %.1f%% of the study", cov)
		}
	case "warm_batch":
		if m("exec.sim_runs") != 0 || m("artifact.puts") != 0 || m("exec.disk_hits") == 0 || m("exec.hit_ratio") != 1 {
			t.Errorf("warm_batch: sim_runs=%g puts=%g disk_hits=%g hit_ratio=%g", m("exec.sim_runs"), m("artifact.puts"), m("exec.disk_hits"), m("exec.hit_ratio"))
		}
		if rep.Layers["sim"] != 0 {
			t.Errorf("warm_batch spent %g ms per study simulating", rep.Layers["sim"])
		}
	case "select_cold":
		if m("exec.tasks") != 0 || m("artifact.puts")+m("artifact.gets") != 0 || m("cluster.k_tried") == 0 || m("pks.probe_select_ms") == 0 {
			t.Errorf("select_cold: exec.tasks=%g k_tried=%g probe=%g", m("exec.tasks"), m("cluster.k_tried"), m("pks.probe_select_ms"))
		}
	case "serve_closed":
		if m("exec.mem_hits") == 0 || m("exec.sim_runs") == 0 || m("serve.rejected") != 0 || m("serve.run_ms_p50") == 0 || m("serve.decode_us_p50") == 0 {
			t.Errorf("serve_closed: mem_hits=%g sim_runs=%g rejected=%g run_ms=%g", m("exec.mem_hits"), m("exec.sim_runs"), m("serve.rejected"), m("serve.run_ms_p50"))
		}
	}
}

// TestGoldenDigest runs one pinned study cold and warm; the ledger holds
// both to the committed digest.
func TestGoldenDigest(t *testing.T) {
	const name = "Rodinia/hots_1024"
	if _, ok := goldenDigests[name]; !ok {
		t.Fatalf("%s has no golden digest", name)
	}
	for _, n := range simList {
		if _, ok := goldenDigests[n]; !ok {
			t.Errorf("simList entry %s has no golden digest", n)
		}
	}
	ws, err := find([]string{name})
	if err != nil {
		t.Fatal(err)
	}
	l := newLedger()
	oc, d, err := coldStudy(ws[0], t.TempDir()).run(nil)
	l.record(name, d, oc, err)
	if l.failed != 0 {
		t.Fatal(l.problems)
	}
	oc.digest++
	l.record(name, d, oc, nil)
	if l.failed != 1 {
		t.Errorf("a changed digest went unnoticed")
	}
}

// TestCalibrator checks that the calibrator's own time stays off the clock
// it hands out, that passes are rate-limited, and that a nil one is inert.
func TestCalibrator(t *testing.T) {
	c, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	before, plain := c.mark(), plainMark()
	c.tick()
	c.tick() // too soon: no second pass
	after, plainAfter := c.mark(), plainMark()
	if len(c.passUs) != 1 || c.passUs[0] <= 0 {
		t.Fatalf("passes = %v, want one", c.passUs)
	}
	pass := time.Duration(c.passUs[0] * 1e3)
	if own, all := after.wall-before.wall, plainAfter.wall-plain.wall; all < pass || own > all-pass/2 {
		t.Errorf("a %v pass took %v of the plain clock and %v of the calibrator's", pass, all, own)
	}
	if s := c.slowdown(); s != c.passUs[0]/calNominalUs {
		t.Errorf("slowdown = %g with one pass of %g us", s, c.passUs[0])
	}
	var none *calibrator
	none.tick()
	if none.slowdown() != 1 || none.mark().wall <= 0 {
		t.Errorf("a nil calibrator must read plain time at slowdown 1")
	}
}

func TestServeSequence(t *testing.T) {
	size := serveRoundSize(novelList)
	a := serveSequence(7, 2, 4, simList, novelList)
	b := serveSequence(7, 2, 4, simList, novelList)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed planned two different sequences")
	}
	c := serveSequence(8, 2, 4, simList, novelList)
	if reflect.DeepEqual(a, c) {
		t.Error("two seeds planned the same order")
	}
	// Every seed and every round carries the same work: only the order
	// differs, and the thresholds that make the novel studies novel.
	count := func(reqs []request) map[string]int {
		m := map[string]int{}
		for _, r := range reqs {
			if r.novel {
				m["novel:"+novelList[r.entry]]++
			} else {
				m[string(r.body)]++
			}
		}
		return m
	}
	if len(a) != 4*size || !reflect.DeepEqual(count(a[:size]), count(c[3*size:])) {
		t.Errorf("%d requests in 4 rounds of %d, or two rounds with different mixes", len(a), size)
	}
	novel, bodies := 0, map[string]bool{}
	for _, r := range append(serveSequence(1, 0, 2, simList, novelList), a...) {
		if r.novel {
			novel++
			if bodies[string(r.body)] {
				t.Errorf("novel body repeats: %s", r.body)
			}
			bodies[string(r.body)] = true
		}
	}
	if novel != 6*size/4 {
		t.Errorf("%d novel requests in 6 rounds of %d, want a quarter", novel, size)
	}
	if got := apportion(10, []float64{1, 0.5, 1.0 / 3}); !reflect.DeepEqual(got, []int{5, 3, 2}) {
		t.Errorf("apportion = %v", got)
	}
}

func TestStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	// == [3.5, 24.0, 160.0]
	q1, q2, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q2 != 24 || q3 != 160 {
		t.Errorf("quartiles = %g %g %g", q1, q2, q3)
	}
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if percentile(s, 50) != 5 || percentile(s, 90) != 9 || percentile(s, 100) != 10 {
		t.Errorf("percentile: p50=%g p90=%g", percentile(s, 50), percentile(s, 90))
	}
	// 3 × 10, 1 × 20, 6 × 30: the 4th of 10 samples is 20, the 9th is 30.
	mix := []weighted{{30, 6}, {10, 3}, {20, 1}}
	if weightedPercentile(mix, 30) != 10 || weightedPercentile(mix, 40) != 20 || weightedPercentile(mix, 90) != 30 {
		t.Errorf("weightedPercentile: p30=%g p40=%g p90=%g", weightedPercentile(mix, 30), weightedPercentile(mix, 40), weightedPercentile(mix, 90))
	}
}

// TestAttribute checks self time: a study's duration minus the union of
// the phase spans it contains.
func TestAttribute(t *testing.T) {
	spans := []span{
		{trackStudy, "a", 0, 100},
		{"silicon", "a", 10, 20},
		{"pks-select", "a", 25, 20}, // overlaps silicon by 5
		{"sim:pks:a", "kernel", 50, 10},
		{"sampled:pks", "a", 50, 30},
		{trackStudy, "b", 200, 50},
		{"silicon", "b", 210, 40},
		{trackReplay, "x", 300, 1000},
	}
	pt := attribute(spans)
	if pt.studies != 2 || pt.wall != 150 {
		t.Fatalf("studies=%d wall=%d", pt.studies, pt.wall)
	}
	if want := int64(100 - (35 + 30) + 50 - 40); pt.self != want {
		t.Errorf("self = %d, want %d", pt.self, want)
	}
	if pt.byTrack["silicon"] != 60 || pt.byTrack["sampled:pks"] != 30 {
		t.Errorf("byTrack = %v", pt.byTrack)
	}
}

func TestCheckMode(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64, errPct float64) string {
		vals := map[string]float64{"setup_s": 2, "studies_per_s": 1000 / p50, "study_ms_p50": p50, "study_ms_tail": 2 * p50,
			"cpu_ms_per_study": p50, "peak_rss_mb": 20, "pka_err_pct": errPct, "pka_work_reduction_x": 100}
		line, err := json.Marshal(savedRun{Correct: true, Attempted: 10, Metrics: fill(endToEnd, vals)})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, append([]byte("a report line\n"), line...), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	set := func(prefix string, base, errPct float64) string {
		var paths []string
		for i := 0; i < 5; i++ {
			paths = append(paths, write(fmt.Sprintf("%s%d.json", prefix, i), base*(1+0.004*float64(i)), errPct))
		}
		return strings.Join(paths, ",")
	}
	a := set("a", 100, 3)
	var out bytes.Buffer
	if code := runCheck(&out, a+":"+set("same", 101, 3)); code != 0 {
		t.Errorf("equal sets: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := runCheck(&out, a+":"+set("slow", 130, 3)); code != 1 || !strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("30%% slower: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := runCheck(&out, a+":"+set("wrong", 100, 3.01)); code != 1 {
		t.Errorf("moved accuracy: exit %d\n%s", code, out.String())
	}
	if code := runCheck(&out, a); code != 2 {
		t.Errorf("one set: exit %d", code)
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json to the tables in this
// package, so neither drifts from the other.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) || doc.RunSeconds != nominalSeconds {
		t.Errorf("paths=%v run_seconds=%d", doc.Paths, doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s / %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool, limit int) {
		if len(got) != len(want) || len(got) > limit {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here, limit %d", kind, len(got), len(want), limit)
		}
		seen := map[string]bool{}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || (g.Bound != nil) != bounded || (bounded && *g.Bound != d.Bound) {
				t.Errorf("%s metric %d: %+v, want %+v", kind, i, g, d)
			}
			if !nameRE.MatchString(d.Name) || seen[d.Name] || !regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`).MatchString(d.Unit) {
				t.Errorf("%s metric %q: bad or repeated name, or bad unit %q", kind, d.Name, d.Unit)
			}
			if bounded && (d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s metric %q: bound %g outside (0, 0.25]", kind, d.Name, d.Bound)
			}
			seen[d.Name] = true
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd, true, 16)
	same("per_layer", doc.PerLayer, perLayer, false, 128)
}
