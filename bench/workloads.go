package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"pka/internal/artifact"
	"pka/internal/core"
	"pka/internal/gpu"
	"pka/internal/parallel"
	"pka/internal/pks"
	"pka/internal/sampling"
	"pka/internal/workload"
)

// simList is the fixed list the simulation workloads evaluate, cheapest
// first: every suite but Polybench, K from 1 to 13, 1 to 2 800 launches,
// and one workload (3dunet_inf) whose full simulation is infeasible. One
// cold pass is ≈ 6 s of width-1 work on the reference box, so a run holds
// several and each study's time is read from several samples.
var simList = []string{
	"Rodinia/hots_1024", "Rodinia/lud_i", "DeepBench/gemm_train_4", "Parboil/bfs",
	"Cutlass/1536x256x512_wgemm", "Rodinia/kmeans_819k", "Rodinia/dwt2d_rgb", "MLPerf/3dunet_inf",
}

// selectList is what select_cold selects over, each under every variant
// of selectVariants: 1 500 to 29 000 launches, K from 1 to 20.
var selectList = []string{
	"MLPerf/resnet50_64b_inf", "MLPerf/resnet50_128b_inf", "MLPerf/resnet50_256b_inf",
	"MLPerf/3dunet_inf", "Polybench/gramschmidt", "Polybench/fdtd2d",
}

// selectVariants are the PKS options select_cold runs each workload
// under: the defaults, a target so tight the sweep runs to K = 20, and a
// detailed-profiling cap that forces two-level selection (light profiling
// plus the classifier ensemble).
var selectVariants = []struct {
	tag  string
	opts pks.Options
}{
	{"default", pks.Options{}},
	{"target0.5", pks.Options{TargetErrorPct: 0.5}},
	{"maxdetailed1000", pks.Options{MaxDetailed: 1000}},
}

// selectProbe is select_cold's scale probe: 1.06 M launches, ≈ 7.5 s and
// ≈ 150 MiB. It is too slow to repeat, so it runs once, in set-up, where
// setup_s carries its time and peak_rss_mb its memory.
const selectProbe = "MLPerf/ssd_training"

// novelList is what serve_closed's novel class draws from: the part of
// simList whose sampled simulation takes a runner tens of milliseconds.
var novelList = []string{
	"Rodinia/lud_i", "Rodinia/dwt2d_rgb", "Rodinia/kmeans_819k",
	"Rodinia/hots_1024", "Parboil/bfs", "DeepBench/gemm_train_4",
}

// counts sizes one workload. A round is every study of the workload once
// (serve_closed: one serveRoundSize mix of requests).
type counts struct {
	rounds       int // measured rounds of the untraced run
	tracedRounds int // rounds of the traced run, which runs every study twice
	warm         int // discarded work that ends set-up: cold studies (sim_cold), else rounds
	setups       int // times set-up runs; setup_s is the median
}

// scale sizes a run. The command line always uses fullScale; the smoke
// test passes a tiny one to the same code.
type scale struct {
	sim, selects, novel []string
	probe               string // select_cold's scale probe

	nSim, nSelect, nWarm, nServe counts
	// simReplayKernels bounds the cycle-level part of the layer replay.
	simReplayKernels int
}

// nominalSeconds is the measured window the full-scale counts below were
// sized for on the 2-core reference box; -seconds scales them linearly.
// Work is a fixed count, never a deadline, so every count-type metric
// repeats exactly.
const nominalSeconds = 20

// fullScale is the scale of the command line. Set-up that is about a
// second long (sim_cold, serve_closed) repeats; set-up that holds seconds
// of fixed work (the probe, a cold pass) runs once.
func fullScale(seconds float64) *scale {
	n := func(at20 int) int {
		return int(math.Max(1, math.Round(float64(at20)*seconds/nominalSeconds)))
	}
	return &scale{
		sim: simList, selects: selectList, novel: novelList, probe: selectProbe,
		nSim:             counts{rounds: n(3), tracedRounds: n(1), warm: 2, setups: 3},
		nSelect:          counts{rounds: n(9), tracedRounds: n(2), warm: 1, setups: 1},
		nWarm:            counts{rounds: n(700), tracedRounds: n(50), warm: 20, setups: 1},
		nServe:           counts{rounds: n(16), tracedRounds: n(4), warm: 2, setups: 2},
		simReplayKernels: 3,
	}
}

// dev is the device every study runs on: the paper's selection machine.
var dev = gpu.VoltaV100()

// find resolves study-set names, failing on a name the catalogue lacks.
func find(names []string) ([]*workload.Workload, error) {
	workload.All() // build the whole catalogue, as every CLI does at start
	ws := make([]*workload.Workload, len(names))
	for i, n := range names {
		if ws[i] = workload.Find(n); ws[i] == nil {
			return nil, fmt.Errorf("workload %q is not in the catalogue", n)
		}
	}
	return ws, nil
}

// evalOutcome digests a full evaluation.
func evalOutcome(ev *core.Evaluation) outcome {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d", ev.Workload.FullName(), ev.Selection.K, ev.Silicon.Cycles)
	fullWork := core.TotalWarpWork(dev, ev.Workload)
	if ev.Full != nil {
		fmt.Fprintf(h, "|full|%d|%d", ev.Full.ProjCycles, ev.Full.SimWarpInstrs)
		fullWork = ev.Full.SimWarpInstrs
	}
	fmt.Fprintf(h, "|pks|%d|%d|pka|%d|%d", ev.PKS.ProjCycles, ev.PKS.SimWarpInstrs, ev.PKA.ProjCycles, ev.PKA.SimWarpInstrs)
	return outcome{
		digest:   h.Sum64(),
		errPct:   ev.PKA.ErrorPct,
		fullWork: float64(fullWork),
		simWork:  float64(ev.PKA.SimWarpInstrs),
	}
}

// evaluate is one pka.Evaluate call at width 1 on a fresh Exec over
// store, traced when tr is set.
func evaluate(w *workload.Workload, store *artifact.Store, tr *tracing) (outcome, error) {
	ex := sampling.NewExec(parallel.NewScheduler(1), store)
	tr.wire(ex)
	fr := tr.flight()
	ev, err := core.Evaluate(core.Config{Device: dev, Parallelism: 1, Exec: ex, Obs: tr.observer(), Flight: fr}, w)
	if err != nil {
		return outcome{}, err
	}
	if tr != nil {
		tr.absorbFlight(fr)
		tr.pksWarpInstrs += ev.PKS.SimWarpInstrs
		tr.pkaWarpInstrs += ev.PKA.SimWarpInstrs
	}
	return evalOutcome(ev), nil
}

// coldStudy evaluates w over a fresh, empty store directory: what
// `pka -w X -cache-dir D` costs the first time. Opening and closing the
// store are part of the call; making and removing the directory are not.
func coldStudy(w *workload.Workload, tmp string) study {
	return study{name: w.FullName(), run: func(tr *tracing) (outcome, time.Duration, error) {
		dir, err := os.MkdirTemp(tmp, "cold-")
		if err != nil {
			return outcome{}, 0, err
		}
		defer os.RemoveAll(dir)
		t0 := time.Now()
		sp := tr.begin(w.FullName())
		open := tr.span(trackArtifact, "open")
		store, err := artifact.Open(dir, artifact.Options{})
		open.End()
		if err != nil {
			tr.done(sp)
			return outcome{}, 0, err
		}
		oc, err := evaluate(w, store, tr)
		tr.absorbStore(store.Stats(), artifact.Stats{})
		cl := tr.span(trackArtifact, "close")
		cerr := store.Close()
		cl.End()
		tr.done(sp)
		if err == nil {
			err = cerr
		}
		return oc, time.Since(t0), err
	}}
}

// simCold is the cold simulation workload.
var simCold = &loop{
	name:         "sim_cold",
	why:          "cold pka.Evaluate on 8 fixed workloads, fresh store each: sim, mem, pkp and sampling do over 95 % of the work and the store only sees writes",
	counts:       func(sc *scale) counts { return sc.nSim },
	assertPhases: true,
	setup: func(sc *scale, o options) (*env, error) {
		ws, err := find(sc.sim)
		if err != nil {
			return nil, err
		}
		e := &env{close: func() error { return nil }}
		for _, w := range ws {
			e.studies = append(e.studies, coldStudy(w, o.tmp))
		}
		// Warm the process (simulator pool, heap, pattern cache) on the
		// cheapest studies, discarded.
		for i := 0; i < sc.nSim.warm && i < len(e.studies); i++ {
			if _, _, err := e.studies[i].run(nil); err != nil {
				return nil, err
			}
		}
		return e, nil
	},
	replay: replayEvaluate,
}

// warmBatch is the warm simulation workload: the same studies as sim_cold
// with every kernel outcome already on disk.
var warmBatch = &loop{
	name:         "warm_batch",
	why:          "the same 8 evaluations over a primed store, mem tier cold: every kernel task is a disk read, so it shows what is left when simulation is free",
	counts:       func(sc *scale) counts { return sc.nWarm },
	assertPhases: true,
	setup: func(sc *scale, o options) (*env, error) {
		ws, err := find(sc.sim)
		if err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(o.tmp, "warm-")
		if err != nil {
			return nil, err
		}
		store, err := artifact.Open(dir, artifact.Options{})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		e := &env{close: func() error {
			err := store.Close()
			os.RemoveAll(dir)
			return err
		}}
		for _, w := range ws {
			w := w
			e.studies = append(e.studies, study{name: w.FullName(), run: func(tr *tracing) (outcome, time.Duration, error) {
				before := store.Stats()
				t0 := time.Now()
				sp := tr.begin(w.FullName())
				oc, err := evaluate(w, store, tr)
				tr.done(sp)
				d := time.Since(t0)
				tr.absorbStore(store.Stats(), before)
				return oc, d, err
			}})
		}
		// One cold pass primes the store, then discarded warm rounds
		// settle the page cache and the heap. The cold pass is not what
		// this workload measures, and left alone its peak memory (16 to
		// 22 MiB, by the luck of one pass's collection timing) would be all
		// peak_rss_mb ever showed. It runs with the collector at 10 % and a
		// collection after every study, which keeps it under the warm
		// studies' own 16 MiB.
		gcPercent := debug.SetGCPercent(10)
		for r := 0; r <= sc.nWarm.warm; r++ {
			for _, s := range e.studies {
				if _, _, err := s.run(nil); err != nil {
					e.close()
					return nil, err
				}
				if r == 0 {
					runtime.GC()
				}
			}
			if r == 0 {
				debug.SetGCPercent(gcPercent)
			}
		}
		return e, nil
	},
	replay: replayEvaluate,
}

// selectOutcome digests a selection. Nothing is simulated, so the error is
// PKS's selection error and the work reduction is silicon cycles over
// representative cycles.
func selectOutcome(name string, sel *pks.Selection) outcome {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d|%d|%d", name, sel.K, sel.ProjectedCycles, sel.SiliconTotalCycles, sel.DetailedKernels)
	var repCycles int64
	for _, g := range sel.Groups {
		repCycles += g.Representative.Cycles
	}
	return outcome{
		digest:   h.Sum64(),
		errPct:   sel.SelectionErrorPct,
		fullWork: float64(sel.SiliconTotalCycles),
		simWork:  float64(repCycles),
	}
}

// selectStudy is one `pka -selection-only` call.
func selectStudy(w *workload.Workload, tag string, opts pks.Options) study {
	name := w.FullName() + "#" + tag
	return study{name: name, run: func(tr *tracing) (outcome, time.Duration, error) {
		opts := opts
		if tr != nil {
			opts.Metrics = tr.o.PKSMetrics()
		}
		t0 := time.Now()
		sp := tr.begin(name)
		sel, err := pks.Select(dev, w, opts)
		tr.done(sp)
		d := time.Since(t0)
		if err != nil {
			return outcome{}, d, err
		}
		return selectOutcome(name, sel), d, nil
	}}
}

// selectCold is the selection-only workload.
var selectCold = &loop{
	name:   "select_cold",
	why:    "pka.Select only, 6 workloads x 3 option sets, and a 1.06 M-launch probe in set-up: profiler, linalg, cluster, classify and pks do all the work and sim none",
	counts: func(sc *scale) counts { return sc.nSelect },
	setup: func(sc *scale, o options) (*env, error) {
		ws, err := find(sc.selects)
		if err != nil {
			return nil, err
		}
		e := &env{close: func() error { return nil }}
		for _, w := range ws {
			for _, v := range selectVariants {
				e.studies = append(e.studies, selectStudy(w, v.tag, v.opts))
			}
		}
		for r := 0; r < sc.nSelect.warm; r++ {
			for _, s := range e.studies {
				if _, _, err := s.run(nil); err != nil {
					return nil, err
				}
			}
		}
		pw, err := find([]string{sc.probe})
		if err != nil {
			return nil, err
		}
		// The probe starts from a collected heap, as a fresh
		// `pka -selection-only` process would.
		runtime.GC()
		_, d, err := selectStudy(pw[0], "probe", pks.Options{}).run(nil)
		if err != nil {
			return nil, err
		}
		e.probeMs, e.probeRSSMB = ms(d), peakRSSMB()
		return e, nil
	},
	replay: replaySelect,
}
