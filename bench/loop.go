package main

import (
	"fmt"
	"time"

	"pka/internal/sampling"
)

// study is one user-visible call, named so its rounds can be compared.
// run executes it once and returns the time the call itself took; tr is
// nil in untraced passes.
type study struct {
	name string
	run  func(tr *tracing) (outcome, time.Duration, error)
}

// env is what a loop's set-up hands to its measured pass.
type env struct {
	studies []study
	// probeMs and probeRSSMB describe the scale probe select_cold's
	// set-up runs: its time, and the memory high-water mark it left.
	probeMs, probeRSSMB float64
	// close releases what set-up acquired (stores, directories).
	close func() error
}

// loop is a closed-loop workload with one client at width 1: rounds over
// a fixed study list, each round in a seeded order.
type loop struct {
	name   string
	why    string
	counts func(sc *scale) counts
	setup  func(sc *scale, o options) (*env, error)
	// replay is the traced run's layer replay; it returns the layers block.
	replay func(e *env, tr *tracing, sc *scale, o options, pt phaseTimes, vals map[string]float64) (map[string]float64, error)
	// assertPhases makes a phase table that does not add up to the study
	// wall time a failure.
	assertPhases bool
}

// repeatSetup runs setup n times, closing every environment but the last,
// which it returns with each run's duration in seconds on cal's clock. The
// first timing starts at process start: setup_s is their median. The
// calibrator ticks around every set-up, so a run whose measured pass is
// short still has passes from its whole length.
func repeatSetup[E any](n int, cal *calibrator, setup func() (E, error), closeEnv func(E) error) (E, []float64, error) {
	var e E
	var secs []float64
	var start mark // the zero mark is process start
	for i := 0; i < n; i++ {
		if i > 0 {
			if err := closeEnv(e); err != nil {
				return e, nil, err
			}
			cal.tick()
			start = cal.mark()
		}
		var err error
		if e, err = setup(); err != nil {
			return e, nil, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, (cal.mark().wall - start.wall).Seconds())
	}
	cal.tick()
	return e, secs, nil
}

func (lp *loop) run(o options, sc *scale) (*report, error) {
	n := lp.counts(sc)
	var cal *calibrator
	if !o.traced {
		var err error
		if cal, err = newCalibrator(); err != nil {
			return nil, err
		}
		defer cal.close() // an unmap at the end of a run has nothing left to report to
		cal.tick()
	}
	e, setup, err := repeatSetup(n.setups, cal,
		func() (*env, error) { return lp.setup(sc, o) },
		func(e *env) error { return e.close() })
	if err != nil {
		return nil, err
	}
	rep := &report{Workload: lp.name, Seed: o.seed, Traced: o.traced}
	l := newLedger()
	var vals map[string]float64
	if o.traced {
		vals, rep.Layers, err = lp.tracedPass(e, sc, o, n.tracedRounds, l)
	} else {
		from := cal.mark()
		for r := 0; r < n.rounds; r++ {
			for _, i := range roundOrder(o.seed, r, len(e.studies)) {
				cal.tick()
				s := e.studies[i]
				oc, d, err := s.run(nil)
				l.record(s.name, d, oc, err)
			}
			to := cal.mark()
			l.round(from, to)
			from = to
		}
		cal.tick()
		rep.HostSlowdown = cal.slowdown()
		vals, rep.Uncalibrated = endToEndMetrics(setup, l, rep.HostSlowdown)
	}
	if cerr := e.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	finish(rep, l, vals)
	return rep, nil
}

// tracedPass runs every study of every round twice back to back, once
// untraced and once traced, alternating which goes first, so the tracing
// overhead is a paired comparison inside one process. It then runs the
// layer replay and computes the per-layer metrics.
func (lp *loop) tracedPass(e *env, sc *scale, o options, rounds int, l *ledger) (map[string]float64, map[string]float64, error) {
	tr := newTracing()
	// sample runs s once and returns its latency in ms, 0 when it failed.
	sample := func(s study, t *tracing) float64 {
		oc, d, err := s.run(t)
		l.record(s.name, d, oc, err)
		if err != nil {
			return 0
		}
		return ms(d)
	}
	var overhead []float64 // traced ÷ untraced − 1, per pair
	from := heapNow()
	for r := 0; r < rounds; r++ {
		for _, i := range roundOrder(o.seed, r, len(e.studies)) {
			s := e.studies[i]
			var plain, traced float64
			if len(overhead)%2 == 0 {
				plain = sample(s, nil)
				traced = sample(s, tr)
			} else {
				traced = sample(s, tr)
				plain = sample(s, nil)
			}
			if plain > 0 && traced > 0 {
				overhead = append(overhead, traced/plain-1)
			}
		}
	}
	vals := map[string]float64{}
	runtimeMetrics(vals, from, heapNow(), l.attempted)
	vals["obs.trace_overhead_pct"] = 100 * p50(overhead)
	vals["pks.probe_select_ms"], vals["pks.probe_rss_mb"] = e.probeMs, e.probeRSSMB

	// The trace is read before the replay adds its own spans, so the phase
	// attribution sees only the studies.
	spans, err := tr.readTrace("")
	if err != nil {
		return nil, nil, err
	}
	pt := attribute(spans)
	registryMetrics(vals, tr)
	layers, err := lp.replay(e, tr, sc, o, pt, vals)
	if err != nil {
		return nil, nil, err
	}
	if o.traceOut != "" {
		if spans, err = tr.readTrace(o.traceOut); err != nil {
			return nil, nil, err
		}
	}
	vals["obs.spans"] = float64(len(spans))
	vals["obs.dropped"] = float64(tr.o.Tracer.Dropped())

	var sum float64
	for name, ms := range layers {
		if name != "study_wall_ms" {
			sum += ms
		}
	}
	vals["obs.phase_coverage_pct"] = 100 * ratio(sum, layers["study_wall_ms"])
	if off := vals["obs.phase_coverage_pct"] - 100; lp.assertPhases && (off > 5 || off < -5) {
		l.fail("phase table sums to %.1f%% of the traced study wall time, want within 5%%", vals["obs.phase_coverage_pct"])
	}
	printPhaseTable(o.log, layers)
	return vals, layers, nil
}

// registryMetrics reads the per-layer numbers the program's own registry
// holds after the traced studies: the sim, mem, pkp, pks, exec and
// parallel counters, plus the artifact stores' statistics.
func registryMetrics(vals map[string]float64, tr *tracing) {
	sm := tr.o.SimMetrics()
	vals["sim.kernels"] = float64(sm.Kernels.Value())
	vals["sim.warp_instrs"] = float64(sm.WarpInstrs.Value())
	vals["sim.cycles"] = float64(sm.Cycles.Value())
	vals["mem.l1_hit_ratio"] = ratio(float64(sm.L1Hits.Value()), float64(sm.L1Hits.Value()+sm.L1Misses.Value()))
	vals["mem.l2_hit_ratio"] = ratio(float64(sm.L2Hits.Value()), float64(sm.L2Hits.Value()+sm.L2Misses.Value()))
	vals["mem.dram_bytes"] = float64(sm.DRAMBytes.Value())

	em := tr.o.ExecMetrics()
	var tasks float64
	for _, c := range em.Tasks {
		tasks += float64(c.Value())
	}
	mem, disk := float64(em.Tasks[sampling.TierMem].Value()), float64(em.Tasks[sampling.TierDisk].Value())
	vals["exec.tasks"] = tasks
	vals["exec.mem_hits"] = mem
	vals["exec.disk_hits"] = disk
	vals["exec.sim_runs"] = float64(em.Tasks[sampling.TierSim].Value())
	vals["exec.hit_ratio"] = ratio(mem+disk, tasks)

	pkaSims := float64(tr.tasks["pka/sim"])
	vals["pkp.stopped_frac"] = ratio(float64(tr.o.PKPMetrics().Stops.Value()), pkaSims)
	vals["pkp.simulated_frac"] = ratio(float64(tr.pkaWarpInstrs), float64(tr.pksWarpInstrs))
	vals["cluster.k_tried"] = float64(tr.o.PKSMetrics().SweepSteps.Value())

	vals["parallel.tasks"] = float64(tr.o.PoolMetrics().Tasks.Value())
	vals["parallel.queue_wait_ms_p50"] = p50(tr.waitsMs)

	vals["artifact.puts"] = float64(tr.store.Writes)
	vals["artifact.gets"] = float64(tr.store.Hits + tr.store.Misses)
	vals["artifact.bytes_written"] = float64(tr.store.SizeBytes)

	sampledSim := tr.serviceOf(func(phase, tier string) bool { return tier == "sim" && phase != "full" })
	vals["sim.mwi_per_s"] = ratio(float64(sm.WarpInstrs.Value())/1e6, sampledSim.Seconds())
}
