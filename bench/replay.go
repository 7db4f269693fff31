package main

import (
	"fmt"
	"os"
	"time"

	"pka/internal/artifact"
	"pka/internal/classify"
	"pka/internal/cluster"
	"pka/internal/linalg"
	"pka/internal/pkp"
	"pka/internal/pks"
	"pka/internal/profiler"
	"pka/internal/sampling"
	"pka/internal/silicon"
	"pka/internal/sim"
	"pka/internal/stats"
	"pka/internal/trace"
	"pka/internal/workload"
)

// The layer replay calls each layer's public functions directly, on the
// inputs the studies just ran on, with a span around every call. It is how
// layers that open no span of their own (profiler, linalg, cluster,
// classify, the task codec, the artifact store) get a host-time number
// without touching the program.

// replaySelection repeats what pks.Select does for w under opts, one
// timed call per layer.
func replaySelection(tr *tracing, w *workload.Workload, opts pks.Options) {
	target, maxK := opts.TargetErrorPct, opts.MaxK
	if target <= 0 {
		target = 5
	}
	if maxK <= 0 {
		maxK = 20
	}
	nDetailed := w.N
	if opts.MaxDetailed > 0 && opts.MaxDetailed < w.N {
		nDetailed = opts.MaxDetailed
	}
	detailed := make([]profiler.DetailedRecord, 0, nDetailed)
	sharedMem := make([]int, 0, nDetailed)
	tr.time("profiler.detailed", nDetailed, func() {
		next := w.Iterator()
		for k := next(); k != nil && len(detailed) < nDetailed; k = next() {
			rec, _, err := profiler.Detailed(dev, k)
			if err != nil {
				return
			}
			detailed = append(detailed, rec)
			sharedMem = append(sharedMem, k.SharedMemPerBlock)
		}
	})

	// The sweep clusters at most 20 000 strided rows, as pks does.
	sample := pks.SampleIndices(len(detailed), 20000)
	var points [][]float64
	tr.time("linalg.pca", 1, func() {
		feat := linalg.NewMatrix(len(sample), trace.NumFeatures)
		for r, idx := range sample {
			pks.ScaleFeatures(feat.Row(r), detailed[idx].Features)
		}
		pca, err := linalg.FitPCA(feat, 0.9, 2)
		if err != nil {
			return
		}
		proj, err := pca.Transform(feat)
		if err != nil {
			return
		}
		points = make([][]float64, proj.Rows)
		for i := range points {
			points[i] = proj.Row(i)
		}
	})
	if points == nil {
		return
	}

	var total int64
	for _, idx := range sample {
		total += detailed[idx].Cycles
	}
	var best *cluster.KMeansResult
	tr.time("cluster.sweep", 1, func() {
		ds, err := cluster.NewDataset(points)
		if err != nil {
			return
		}
		// Score each K as pks does under the first-chronological policy:
		// members come back in launch order, so the first is the
		// representative.
		best, _, _ = ds.Sweep(maxK, func(k int) uint64 { return uint64(k) },
			func(k int, res *cluster.KMeansResult) (float64, bool) {
				var projected int64
				for c := 0; c < res.K; c++ {
					if m := res.Members(c); len(m) > 0 {
						projected += detailed[sample[m[0]]].Cycles * int64(len(m))
					}
				}
				errPct := stats.AbsPctErr(float64(projected), float64(total))
				return errPct, errPct <= target
			})
	})

	if nDetailed < w.N && best != nil {
		// Two-level: fit the ensemble on the detailed prefix (a holdout
		// fit and the real one, as pks does), light-profile the rest and
		// map it.
		X := make([][]float64, len(sample))
		for i, idx := range sample {
			X[i] = profiler.FeaturesOfDetailed(detailed[idx], sharedMem[idx])
		}
		ens := classify.NewEnsemble(0)
		tr.time("classify.fit", 1, func() {
			var trX [][]float64
			var trY []int
			for i := range X {
				if i%5 != 4 {
					trX, trY = append(trX, X[i]), append(trY, best.Assignment[i])
				}
			}
			_ = classify.NewEnsemble(0).Fit(trX, trY, best.K) // timing only
			_ = ens.Fit(X, best.Assignment, best.K)           // a failed fit leaves Predict answering 0
		})
		light := make([]profiler.LightRecord, 0, w.N-nDetailed)
		tr.time("profiler.light", w.N-nDetailed, func() {
			for i := nDetailed; i < w.N; i++ {
				k := w.Kernel(i)
				rec, _, err := profiler.Light(dev, &k)
				if err != nil {
					return
				}
				light = append(light, rec)
			}
		})
		if best.K > 1 {
			tr.time("classify.predict", len(light), func() {
				for _, rec := range light {
					ens.Predict(profiler.FeaturesOfLight(rec))
				}
			})
		}
	}
}

// selectionMetrics reports the selection layers' replay timings; calls is
// how many selections were replayed.
func selectionMetrics(vals map[string]float64, tr *tracing, calls int) {
	n := float64(calls)
	vals["profiler.detailed_us_per_kernel"] = tr.usPerOp("profiler.detailed")
	vals["profiler.light_us_per_kernel"] = tr.usPerOp("profiler.light")
	vals["linalg.pca_ms"] = ratio(tr.busyMs("linalg.pca"), n)
	vals["cluster.sweep_ms"] = ratio(tr.busyMs("cluster.sweep"), n)
	vals["classify.fit_ms"] = ratio(tr.busyMs("classify.fit"), float64(tr.ops["classify.fit"]))
	vals["classify.predict_us_per_kernel"] = tr.usPerOp("classify.predict")
}

// replaySilicon walks w on the silicon model.
func replaySilicon(tr *tracing, w *workload.Workload) {
	tr.time("silicon.walk", w.N, func() {
		_, _ = silicon.ExecuteAll(dev, w.Iterator()) // timing only; the studies check the result
	})
}

// replayCodec times the Exec ladder's pure per-task work on w's first
// launches: the content key, and the outcome codec round trip.
func replayCodec(tr *tracing, w *workload.Workload) {
	n := w.N
	if n > 512 {
		n = 512
	}
	kernels := make([]trace.KernelDesc, n)
	for i := range kernels {
		kernels[i] = w.Kernel(i)
	}
	task := sampling.KernelTask{Mode: sampling.ModePKA, MaxCycles: sim.DefaultMaxCycles, PKP: sampling.NewPKPSpec(pkp.Options{})}
	tr.time("exec.taskkey", n, func() {
		for i := range kernels {
			sampling.TaskKey(dev, &kernels[i], task)
		}
	})
	oc := sampling.KernelOutcome{ProjCycles: 123456, SimWarpInstrs: 7890, ThreadInstrs: 1e6, DRAMUtil: 0.5, Truncated: true}
	tr.time("exec.codec", n, func() {
		for i := 0; i < n; i++ {
			if _, err := sampling.DecodeOutcome(sampling.EncodeOutcome(oc)); err != nil {
				return
			}
		}
	})
}

// replayArtifact times Put and Get, one operation at a time, against a
// scratch store of outcome-sized payloads.
func replayArtifact(tr *tracing, tmp string) error {
	dir, err := os.MkdirTemp(tmp, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := artifact.Open(dir, artifact.Options{})
	if err != nil {
		return err
	}
	const n = 256
	payload := sampling.EncodeOutcome(sampling.KernelOutcome{ProjCycles: 1})
	keys := make([]string, n)
	for i := range keys {
		keys[i] = artifact.Key([]byte("bench-replay"), []byte(fmt.Sprint(i)))
	}
	timeEach := func(name string, op func(key string)) {
		sp := tr.span(trackReplay, name)
		for _, key := range keys {
			t0 := time.Now()
			op(key)
			tr.perOp[name] = append(tr.perOp[name], us(time.Since(t0)))
		}
		sp.End()
	}
	timeEach("artifact.put", func(key string) { err = firstErr(err, store.Put(key, payload)) })
	timeEach("artifact.get", func(key string) {
		if _, ok := store.Get(key); !ok {
			err = firstErr(err, fmt.Errorf("artifact replay: %s missing after Put", key))
		}
	})
	return firstErr(err, store.Close())
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// replaySim runs one kernel on a cold simulator plainly and with a PKP
// projector ticking but never allowed to stop, so both runs simulate the
// same cycles and the difference is the controller's cost. The two
// alternate a few times because one run is only milliseconds long.
func replaySim(tr *tracing, k *trace.KernelDesc) {
	s := sim.New(dev)
	for i := 0; i < 5; i++ {
		tr.time("sim.run", 1, func() { _, _ = s.RunKernel(k, sim.Options{}) }) // timing only
		s.Flush()
		p := pkp.New(pkp.Options{})
		ticking := sim.ControllerFunc(func(t *sim.Telemetry) bool {
			p.Tick(t)
			return false
		})
		tr.time("sim.run_pkp_ticking", 1, func() { _, _ = s.RunKernel(k, sim.Options{Controller: ticking}) })
		s.Flush()
	}
}

// replayStack is the layer replay of the workloads that evaluate or serve
// ws: the silicon walk, the selection layers, the task codec, the artifact
// store, and the cycle loop with and without PKP.
func replayStack(tr *tracing, ws []*workload.Workload, sc *scale, o options, vals map[string]float64) error {
	for i, w := range ws {
		replaySilicon(tr, w)
		replaySelection(tr, w, pks.Options{})
		replayCodec(tr, w)
		if i < sc.simReplayKernels {
			k := w.Kernel(0)
			replaySim(tr, &k)
		}
	}
	if err := replayArtifact(tr, o.tmp); err != nil {
		return err
	}
	selectionMetrics(vals, tr, len(ws))
	vals["silicon.kernels_per_s"] = ratio(float64(tr.ops["silicon.walk"]), tr.busy["silicon.walk"].Seconds())
	vals["exec.taskkey_us"] = tr.usPerOp("exec.taskkey")
	vals["exec.codec_us"] = tr.usPerOp("exec.codec")
	vals["artifact.put_us_p50"] = p50(tr.perOp["artifact.put"])
	vals["artifact.get_us_p50"] = p50(tr.perOp["artifact.get"])
	vals["pkp.tick_overhead_pct"] = 100 * (ratio(tr.busyMs("sim.run_pkp_ticking"), tr.busyMs("sim.run")) - 1)
	return nil
}

// selectionReplayMs is the replayed selection layers' total, per call.
func selectionReplayMs(tr *tracing, calls int) float64 {
	var sum float64
	for _, name := range selectionLayers {
		sum += tr.busyMs(name)
	}
	return ratio(sum, float64(calls))
}

// selectionLayers are the replay calls that make up one selection.
var selectionLayers = []string{"profiler.detailed", "profiler.light", "linalg.pca", "cluster.sweep", "classify.fit", "classify.predict"}

// replayEvaluate is the layer replay of the evaluation workloads, and it
// assembles their layers block from the studies' own spans and provenance.
func replayEvaluate(e *env, tr *tracing, sc *scale, o options, pt phaseTimes, vals map[string]float64) (map[string]float64, error) {
	ws, err := find(sc.sim)
	if err != nil {
		return nil, err
	}
	if err := replayStack(tr, ws, sc, o, vals); err != nil {
		return nil, err
	}
	// The studies' own numbers: phase spans from the program, ladder
	// service times from its provenance records.
	vals["silicon.walk_ms"] = pt.perStudyMs(pt.byTrack["silicon"])
	vals["pks.select_ms"] = pt.perStudyMs(pt.byTrack["pks-select"])
	vals["pks.self_ms"] = vals["pks.select_ms"] - selectionReplayMs(tr, len(ws))
	perStudy := func(d time.Duration) float64 { return pt.perStudyMs(d.Microseconds()) }
	simOf := func(phase string) float64 {
		return perStudy(tr.serviceOf(func(p, tier string) bool { return p == phase && tier == "sim" }))
	}
	vals["sim.full_ms"], vals["sim.sampled_pks_ms"], vals["sim.sampled_pka_ms"] = simOf("full"), simOf("pks"), simOf("pka")
	simMs := vals["sim.full_ms"] + vals["sim.sampled_pks_ms"] + vals["sim.sampled_pka_ms"]
	ladderMs := perStudy(tr.serviceOf(func(string, string) bool { return true }))
	phasesMs := pt.perStudyMs(pt.byTrack["full-sim"] + pt.byTrack["sampled:pks"] + pt.byTrack["sampled:pka"])
	vals["core.fold_ms"] = phasesMs - ladderMs
	vals["core.evaluate_self_ms"] = pt.perStudyMs(pt.self)
	return map[string]float64{
		"study_wall_ms":       pt.perStudyMs(pt.wall),
		"artifact.open_close": pt.perStudyMs(pt.byTrack[trackArtifact]),
		"silicon":             vals["silicon.walk_ms"],
		"pks":                 vals["pks.select_ms"],
		"sim":                 simMs,
		"exec":                ladderMs - simMs,
		"core.fold":           vals["core.fold_ms"],
		"core.self":           vals["core.evaluate_self_ms"],
	}, nil
}

// replaySelect is the layer replay of select_cold: every variant's
// selection, layer by layer. pks opens no spans, so its layers block is
// the replay's timings, and pks.self_ms is what remains of the measured
// selections after them.
func replaySelect(e *env, tr *tracing, sc *scale, o options, pt phaseTimes, vals map[string]float64) (map[string]float64, error) {
	ws, err := find(sc.selects)
	if err != nil {
		return nil, err
	}
	calls := 0
	for _, w := range ws {
		replaySilicon(tr, w)
		for _, v := range selectVariants {
			replaySelection(tr, w, v.opts)
			calls++
		}
	}
	selectionMetrics(vals, tr, calls)
	vals["silicon.walk_ms"] = ratio(tr.busyMs("silicon.walk"), float64(len(ws)))
	vals["silicon.kernels_per_s"] = ratio(float64(tr.ops["silicon.walk"]), tr.busy["silicon.walk"].Seconds())
	vals["pks.select_ms"] = pt.perStudyMs(pt.wall)
	vals["pks.self_ms"] = vals["pks.select_ms"] - selectionReplayMs(tr, calls)
	layers := map[string]float64{"study_wall_ms": vals["pks.select_ms"], "pks.self": vals["pks.self_ms"]}
	for _, name := range selectionLayers {
		layers[name] = ratio(tr.busyMs(name), float64(calls))
	}
	return layers, nil
}
