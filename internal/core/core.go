// Package core assembles the full Principal Kernel Analysis pipeline the
// paper evaluates: silicon ground truth → Principal Kernel Selection →
// sampled cycle-level simulation of the representative kernels (optionally
// cut short by Principal Kernel Projection) → application-level projections
// of cycles, IPC, and DRAM utilization, with error and speedup accounting
// against both silicon and full simulation.
package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"pka/internal/gpu"
	"pka/internal/obs"
	"pka/internal/pkp"
	"pka/internal/pks"
	"pka/internal/sampling"
	"pka/internal/silicon"
	"pka/internal/stats"
	"pka/internal/tbpoint"
	"pka/internal/trace"
	"pka/internal/workload"
)

// SimRate is the modeled Accel-Sim simulation speed in warp
// instructions per second, used to convert simulated work into the
// "SimTime [H]" projections of Table 4 and the time axes of Figures 1 and
// 6. Accel-Sim executes a few thousand instructions per second per the
// paper's Figure 1 projections; the tables in EXPERIMENTS.md use this
// constant throughout.
const SimRate = 3000.0

// Config parameterizes an evaluation.
type Config struct {
	Device gpu.Device
	PKS    pks.Options
	PKP    pkp.Options
	// FullSimBudget bounds the warp instructions actually simulated for
	// full-simulation baselines. Zero applies the sampling default.
	FullSimBudget int64
	// KernelCapCycles is a per-kernel runaway guard for sampled runs;
	// capped kernels are linearly extrapolated and flagged. Zero applies
	// sim.DefaultMaxCycles.
	KernelCapCycles int64
	// Parallelism bounds how many per-workload artifacts the experiment
	// generators in internal/experiments run concurrently. Evaluate does
	// not read it: one evaluation's stages run in order on the calling
	// goroutine, and its kernel tasks fan out at Exec's scheduler width.
	// Zero means GOMAXPROCS; 1 runs them one at a time. Selection's K-Means
	// assignment and classifier fits use GOMAXPROCS whatever it is. Results
	// are identical at every setting: each unit of work is self-contained
	// and deterministic, parallelism only changes wall-clock time.
	Parallelism int
	// Obs, when non-nil, receives pipeline telemetry: a span per
	// pipeline phase, a span and counter batch per simulated kernel, and
	// PKS/PKP decision-audit records. Telemetry is observe-only — results
	// are byte-identical with or without it.
	Obs *obs.Observer
	// Exec, when non-nil, runs every per-kernel simulation as a task on
	// its kernel-granular scheduler and resolves outcomes through its
	// tier ladder: the in-memory singleflight cache, the outcomes banked in
	// the evaluation's pack, the persistent content-addressed artifact
	// store, then (when configured) the sharded fleet cache, then a fresh
	// local simulation.
	// Results are byte-identical with or without it — and at any tier mix
	// — because task outcomes are pure and merged back in kernel-launch
	// order.
	Exec *sampling.Exec
	// Flight, when non-nil, records one provenance entry per kernel task —
	// tier, shard peer, queue-wait and service durations — folded in
	// launch order. Observe-only.
	Flight *sampling.FlightRecorder
}

// PKSOptions returns cfg.PKS with the observer's audit stream and metric
// family filled in when the caller has not wired its own.
func (c Config) PKSOptions() pks.Options {
	o := c.PKS
	if c.Obs != nil {
		if o.Audit == nil {
			o.Audit = c.Obs.Audit
		}
		if o.Metrics == nil {
			o.Metrics = c.Obs.PKSMetrics()
		}
	}
	return o
}

// PKPOptions returns cfg.PKP wired to the observer for one kernel,
// defaulting the audit subject to the kernel's qualified name.
func (c Config) PKPOptions(subject string) pkp.Options {
	o := c.PKP
	if c.Obs != nil {
		if o.Audit == nil {
			o.Audit = c.Obs.Audit
		}
		if o.Metrics == nil {
			o.Metrics = c.Obs.PKPMetrics()
		}
		if o.AuditSubject == "" {
			o.AuditSubject = subject
		}
	}
	return o
}

// SimHours converts simulated work into projected simulation wall-clock
// hours at SimRate.
func SimHours(warpInstrs int64) float64 {
	return float64(warpInstrs) / SimRate / 3600
}

// SampledSim is the outcome of simulating only the selected kernels.
type SampledSim struct {
	// ProjCycles is the projected application cycle count (kernels
	// weighted by group population, plus launch overheads).
	ProjCycles int64
	// SimWarpInstrs is the work actually simulated.
	SimWarpInstrs int64
	// ErrorPct is the cycle error versus silicon.
	ErrorPct float64
	// IPC is the cycle-weighted projected IPC.
	IPC float64
	// DRAMUtil is the population-weighted projected DRAM utilization.
	DRAMUtil float64
	// SimHours is the projected simulation time at the modeled rate.
	SimHours float64
	// SpeedupVsFull is full-simulation work divided by sampled work. For
	// workloads whose full simulation is infeasible it is computed from
	// the workload's total instruction mass.
	SpeedupVsFull float64
	// Capped reports that some representative hit the runaway guard.
	Capped bool
}

// Evaluation bundles everything Table 4 reports for one workload — all of
// it under Evaluate's plan, and what its plan computed under Plan.Evaluate's.
type Evaluation struct {
	Workload  *workload.Workload
	Silicon   silicon.AppResult
	Selection *pks.Selection

	// Full is the full-simulation outcome, nil when infeasible; its ErrorPct
	// is Table 4's "SimError".
	Full *SampledSim
	// FullSimHours is the projected full-simulation time; for infeasible
	// workloads it is projected from total instruction mass.
	FullSimHours float64

	PKS SampledSim // selection only
	PKA SampledSim // selection + projection

	// OneB and TBPoint are the paper's §5.1 baselines, zero unless planned.
	OneB    SampledSim
	TBPoint SampledSim
}

// Plan is what one evaluation computes: the methods it runs, each named by
// the kernel-task policy of its passes (sampling.ModeFull, ModePKS, ModePKA,
// and the baselines: ModeFirstN over FirstN warp instructions and ModeBlocks
// over TBPoint's representatives), and whether it takes the workload's
// silicon total, which the error columns are measured against. The methods
// run full, 1B, TBPoint, PKS, PKA, whatever their order here.
type Plan struct {
	Passes  []sampling.TaskMode
	Silicon bool
	TBPoint *tbpoint.Selection
	// FirstN is 1B's budget in warp instructions; zero applies
	// sampling.DefaultFirstN.
	FirstN int64
}

// CompletePlan is Evaluate's plan, the paper's Table 4 row: every pass, and
// the silicon total.
func CompletePlan() Plan {
	return Plan{Passes: []sampling.TaskMode{sampling.ModeFull, sampling.ModePKS, sampling.ModePKA}, Silicon: true}
}

func (p Plan) has(m sampling.TaskMode) bool { return slices.Contains(p.Passes, m) }

// sampled lists the plan's sampled passes by their usePKP, PKS before PKA.
func (p Plan) sampled() []bool {
	var usePKPs []bool
	if p.has(sampling.ModePKS) {
		usePKPs = append(usePKPs, false)
	}
	if p.has(sampling.ModePKA) {
		usePKPs = append(usePKPs, true)
	}
	return usePKPs
}

// reps names one pass over a set of representative kernels: one workload's
// own groups, or the shared groups of a selection over segments.
type reps struct {
	// Prefix qualifies the phase label ("pks"/"pka"): empty for a
	// workload's own representatives, "dedup-" for shared ones.
	Prefix string
	// Subject labels the pass's span; SimTrack suffixes its SimObs name.
	Subject  string
	SimTrack string
	Kernels  []trace.KernelDesc
	// Owner names the workload kernel i was launched by.
	Owner func(i int) string
}

// pass returns the pass over r under task, labelled phase, its SimObs on the
// "sim:"+phase+r.SimTrack track. The same RiderPass drives the pass and
// describes it to the evaluation's pack, so a rider's projector audits under
// its own subject. With nothing to observe it — no observer, flight recorder
// or PKP audit or metrics of the caller's own — the pass has no Obs, so a pass
// the pack serves builds no per-task wiring.
func (r reps) pass(cfg Config, phase string, task sampling.KernelTask) sampling.RiderPass {
	if cfg.Obs == nil && cfg.Flight == nil && cfg.PKP.Audit == nil && cfg.PKP.Metrics == nil {
		return sampling.RiderPass{Task: task, Kernels: r.Kernels}
	}
	var simObs *obs.SimObs
	if cfg.Obs != nil {
		simObs = cfg.Obs.SimObs("sim:" + phase + r.SimTrack)
	}
	return sampling.RiderPass{Task: task, Kernels: r.Kernels, Obs: func(i int) sampling.TaskObs {
		to := sampling.TaskObs{Flight: cfg.Flight, Phase: phase, Sim: simObs, Index: i}
		if task.Mode == sampling.ModePKA {
			po := cfg.PKPOptions(r.Owner(i) + "/" + r.Kernels[i].Name)
			to.Audit, to.AuditSubject, to.PKPMetrics = po.Audit, po.AuditSubject, po.Metrics
		}
		return to
	}}
}

// sampled returns the phase label and the pass of PKS mode over r, or PKA
// mode (with PKP) when usePKP is set.
func (r reps) sampled(cfg Config, usePKP bool) (string, sampling.RiderPass) {
	phase := r.Prefix + "pks"
	if usePKP {
		phase = r.Prefix + "pka"
	}
	return phase, r.pass(cfg, phase, sampling.SampledTask(cfg.KernelCapCycles, cfg.PKP, usePKP))
}

// populations says what one application's projection weights
// representatives by: representative i stands for pop(i) of its launches.
type populations struct {
	pop      func(i int) int
	launches int
}

// eachLaunch weights n launches one each: full simulation and 1B fold every
// launch as its own stratum of population one.
func eachLaunch(n int) populations {
	return populations{func(int) int { return 1 }, n}
}

// pksPopulations weights representatives by sel's groups.
func pksPopulations(sel *pks.Selection) populations {
	return populations{func(i int) int { return sel.Groups[i].Count() }, sel.TotalKernels}
}

// run runs the passes in order under one span, labelled subject, as kernel
// tasks on cfg.Exec's scheduler (inline and serial when it is nil), and
// appends their outcomes to dst in launch order, so the float operations
// folding them are the same at any parallelism. total is their simulated
// work, hours and runaway-guard flag; a fold carries no simulated work, which
// may belong to no one app.
func run(cfg Config, span, subject string, dst []sampling.KernelOutcome, passes ...sampling.RiderPass) (outs []sampling.KernelOutcome, total SampledSim, err error) {
	sp := cfg.Obs.StartSpan(span, subject)
	defer sp.End()
	outs = dst
	for _, p := range passes {
		more, err := cfg.Exec.RunKernels(cfg.Device, p)
		if err != nil {
			return nil, total, err
		}
		outs = append(outs, more...)
	}
	for _, oc := range outs[len(dst):] {
		total.SimWarpInstrs += oc.SimWarpInstrs
		total.Capped = total.Capped || oc.Capped
	}
	total.SimHours = SimHours(total.SimWarpInstrs)
	return outs, total, nil
}

// fold projects one application's metrics from the outcomes: representative
// i stands for app.pop(i) launches, and every one of the app's launches
// pays the launch overhead. Representatives the app does not use
// (population 0) contribute nothing, not even their Capped flag.
func fold(outs []sampling.KernelOutcome, app populations) SampledSim {
	var out SampledSim
	var kernelCycles int64
	var threadInstrs, dramWeighted float64
	for i, oc := range outs {
		weight := int64(app.pop(i))
		if weight == 0 {
			continue
		}
		out.Capped = out.Capped || oc.Capped
		kernelCycles += oc.ProjCycles * weight
		threadInstrs += oc.ThreadInstrs * float64(weight)
		dramWeighted += oc.DRAMUtil * float64(oc.ProjCycles*weight)
	}
	out.ProjCycles = kernelCycles + int64(app.launches)*silicon.KernelLaunchOverheadCycles
	if kernelCycles > 0 {
		out.IPC = threadInstrs / float64(kernelCycles)
		out.DRAMUtil = dramWeighted / float64(kernelCycles)
	}
	return out
}

// RunSegments is the sampled pass of a selection the workloads share
// (pks.SelectSegments, as suite dedup makes it): group g's representative,
// launched by ws[seg.Owner[g]], is simulated once — PKS mode, or PKA mode
// (with PKP) when usePKP is set — and workload a's projection folds the
// outcomes by its own group populations, seg.Sels[a]. The simulated work is
// reported once, in total. The result is identical at any parallelism and
// cache state.
func RunSegments(cfg Config, ws []*workload.Workload, seg *pks.Segments, usePKP bool) (total SampledSim, apps []SampledSim, err error) {
	if len(ws) != len(seg.Sels) {
		return total, nil, fmt.Errorf("core: selection has %d segments, got %d workloads", len(seg.Sels), len(ws))
	}
	names := make([]string, len(ws))
	for a, w := range ws {
		names[a] = w.FullName()
	}
	r := reps{
		Prefix:  "dedup-",
		Subject: strings.Join(names, ","),
		Kernels: make([]trace.KernelDesc, len(seg.Owner)),
		Owner:   func(i int) string { return names[seg.Owner[i]] },
	}
	for g, a := range seg.Owner {
		r.Kernels[g] = ws[a].Kernel(seg.Sels[a].Groups[g].RepIndex)
	}
	pops := make([]populations, len(seg.Sels))
	for a, sel := range seg.Sels {
		pops[a] = pksPopulations(sel)
	}
	phase, p := r.sampled(cfg, usePKP)
	// The call's pack is keyed by, and holds, the segments' selections (which
	// launch stands for a group, seg.Owner, is in the digest of its keys).
	var selRaw []byte
	for _, sel := range seg.Sels {
		selRaw = append(selRaw, pks.EncodeSelection(sel)...) // self-delimiting
	}
	pack := cfg.Exec.OpenPack(cfg.Device, nil, r.Subject, selRaw, []sampling.KernelTask{p.Task}, nil)
	pack.Bind(cfg.Device, &p)
	outs, total, err := run(cfg, "sampled:"+phase, r.Subject, nil, p)
	if err != nil {
		return total, nil, fmt.Errorf("core: shared representatives of %s: %w", r.Subject, err)
	}
	pack.Save(selRaw, outs)
	apps = make([]SampledSim, len(pops))
	for a, app := range pops {
		apps[a] = fold(outs, app)
	}
	return total, apps, nil
}

// workloadReps lists w's n representatives of one selection, representative
// i being launch rep(i). launches is w.Kernels() where the caller holds it
// (an evaluation's scan, shared and only read: the representatives are
// copies), nil to generate the representatives.
func workloadReps(w *workload.Workload, n int, rep func(i int) int, launches []trace.KernelDesc) reps {
	kernels := make([]trace.KernelDesc, n)
	for i := range kernels {
		if launches != nil {
			kernels[i] = launches[rep(i)]
		} else {
			kernels[i] = w.Kernel(rep(i))
		}
	}
	return ownReps(w, kernels)
}

// ownReps names a pass over kernels, all of them w's own launches.
func ownReps(w *workload.Workload, kernels []trace.KernelDesc) reps {
	return reps{
		Subject:  w.FullName(),
		SimTrack: ":" + w.FullName(),
		Kernels:  kernels,
		Owner:    func(int) string { return w.FullName() },
	}
}

// RunSampled simulates one representative kernel per group (with PKP when
// usePKP is set) and projects application-level metrics from the group
// weights: the one-pass plan, with sel handed in.
func RunSampled(cfg Config, w *workload.Workload, sel *pks.Selection, usePKP bool) (SampledSim, error) {
	mode := sampling.ModePKS
	if usePKP {
		mode = sampling.ModePKA
	}
	ev, err := Plan{Passes: []sampling.TaskMode{mode}}.Evaluate(cfg, w, sel)
	if err != nil {
		return SampledSim{}, err
	}
	if usePKP {
		return ev.PKA, nil
	}
	return ev.PKS, nil
}

// Evaluate runs the complete pipeline for one workload: silicon ground
// truth, PKS, full simulation when feasible, and the sampled PKS/PKA
// simulations with error and speedup accounting — CompletePlan, with the
// selection resolved as Select resolves it.
func Evaluate(cfg Config, w *workload.Workload) (*Evaluation, error) {
	return CompletePlan().Evaluate(cfg, w, nil)
}

// Evaluate runs the plan on one workload; every study surface calls it. sel,
// when non-nil, is used verbatim by the sampled passes (a caller's own selection,
// or a study's Volta selection on another device); nil resolves it as Select
// does. A selection that does not fit w is an error.
//
// The launches are walked at most once (sampling.ScanLaunches, which the
// workload remembers: a second study of it on the same device and plan walks
// none), and only for
// what the plan folds out of them: the silicon total, the selection's store
// key, the full baseline's launches. A lone full pass without silicon stops
// that walk at the budget. Infeasible full simulation leaves Full nil, its
// hours projected from the instruction mass — or, with no other pass planned,
// is the ErrInfeasible error. With an Exec the passes share the evaluation's
// pack (sampling.Pack), which plans their riders, so each kernel is simulated
// once; a lone pass carries no riders and stops where its own policy stops.
// Every method's outcomes go through one fold (full simulation and 1B weight
// each launch one) and one accounting step, and only what the plan computed
// is filled in: error columns need silicon, speedups and full-simulation
// hours the full pass. The result is identical at any scheduler width, with
// or without an Exec.
func (p Plan) Evaluate(cfg Config, w *workload.Workload, sel *pks.Selection) (*Evaluation, error) {
	ev, _, err := p.evaluate(cfg, w, sel)
	return ev, err
}

// evaluate is Evaluate, also handing back the evaluation's pack (nil without
// an Exec) for the tests to find drained and on disk.
func (p Plan) evaluate(cfg Config, w *workload.Workload, sel *pks.Selection) (*Evaluation, *sampling.Pack, error) {
	if w == nil {
		return nil, nil, errors.New("core: nil workload")
	}
	ev := &Evaluation{Workload: w}
	usePKPs := p.sampled()
	full, sampled := p.has(sampling.ModeFull), len(usePKPs) > 0
	oneB, tb := p.has(sampling.ModeFirstN), p.has(sampling.ModeBlocks)

	// Stage 1: at most one scan of the launches, for what the plan folds out
	// of them — silicon total, instruction mass (whole, for 1B), the launches
	// themselves while full simulation stays feasible, the selection's key
	// when that comes from the store — then the selection, both on the
	// calling goroutine: warm they take microseconds, less than a handoff.
	want := sampling.Want{Silicon: p.Silicon, Keep: full, Budget: cfg.FullSimBudget, Bounded: full && !sampled && !p.Silicon && !oneB}
	if sampled && sel == nil && cfg.Exec.Selections() != nil { // selectKeyed will look the key up
		want.Key, want.KeyOpts = true, cfg.PKSOptions().AppendKey(nil)
	}
	var sc sampling.Scan
	if want.Silicon || want.Keep || want.Key || oneB {
		sp := cfg.Obs.StartSpan("silicon", w.FullName())
		var err error
		sc, err = sampling.ScanLaunches(cfg.Device, w, want)
		sp.End()
		if err != nil {
			return nil, nil, err
		}
	}
	ev.Silicon = sc.Silicon

	mass := int64(float64(sc.WarpInstrs) * cfg.Device.ISAScale) // TotalWarpWork, off the scan

	// The methods in the order they run — full, 1B, TBPoint, then PKS before
	// PKA, so a PKS task that simulates carries its PKA rider — each its
	// passes under one span, folded together in launch order into out.
	type method struct {
		span   string
		passes []sampling.RiderPass
		app    populations
		out    *SampledSim // nil: full simulation infeasible, its span alone
	}
	methods := make([]method, 0, len(p.Passes))
	var firstN sampling.FirstNPlan
	if full {
		m := method{span: "full-sim"}
		switch {
		case sc.Kernels != nil:
			var tobs func(i int) sampling.TaskObs // provenance only: no SimObs of its own
			if cfg.Flight != nil {
				tobs = func(i int) sampling.TaskObs {
					return sampling.TaskObs{Flight: cfg.Flight, Phase: "full", Index: i}
				}
			}
			ev.Full = &SampledSim{}
			m.passes = []sampling.RiderPass{{Task: sampling.KernelTask{Mode: sampling.ModeFull}, Kernels: sc.Kernels, Keys: sc.Keys, Obs: tobs}}
			m.app, m.out = eachLaunch(len(sc.Kernels)), ev.Full
		case !sampled && !oneB && !tb:
			return nil, nil, fmt.Errorf("%w: %s", sampling.ErrInfeasible, w.FullName())
		}
		methods = append(methods, m)
	}
	if oneB {
		// 1B: its whole launches (the full baseline's own tasks, served from
		// memory where that ran) and the launch it cuts.
		firstN = sampling.PlanFirstN(cfg.Device, w, sc.Kernels, p.FirstN)
		whole := ownReps(w, firstN.Whole).pass(cfg, "1b", sampling.KernelTask{Mode: sampling.ModeFull})
		if sc.Keys != nil { // the whole launches are the scan's first ones
			whole.Keys = sc.Keys[:len(firstN.Whole)]
		}
		cut := ownReps(w, firstN.Cut).pass(cfg, "1b-cut", firstN.Task)
		methods = append(methods, method{"first-n", []sampling.RiderPass{whole, cut},
			eachLaunch(len(firstN.Whole) + len(firstN.Cut)), &ev.OneB})
	}
	if tb {
		g := p.TBPoint.Groups
		r := workloadReps(w, len(g), func(i int) int { return g[i].RepIndex }, sc.Kernels)
		rp := r.pass(cfg, "tbpoint", sampling.BlocksTask(cfg.KernelCapCycles, tbpoint.BlockFraction))
		app := populations{func(i int) int { return g[i].Count }, w.N}
		methods = append(methods, method{"sampled:tbpoint", []sampling.RiderPass{rp}, app, &ev.TBPoint})
	}
	// The evaluation's pack (sampling.Pack), read where the selection would be,
	// holds the selection and every outcome the passes below resolve.
	tasks := make([]sampling.KernelTask, 0, len(p.Passes)+1)
	for _, m := range methods {
		for _, rp := range m.passes {
			tasks = append(tasks, rp.Task)
		}
	}
	for _, usePKP := range usePKPs {
		tasks = append(tasks, sampling.SampledTask(cfg.KernelCapCycles, cfg.PKP, usePKP))
	}
	selRaw := []byte(sc.Key) // then the selection's encoding, for the pack to hold
	if sel != nil && cfg.Exec.Store() != nil {
		selRaw = pks.EncodeSelection(sel)
	}
	pack := cfg.Exec.OpenPack(cfg.Device, w, w.FullName(), selRaw, tasks, sc.Keys)
	if sampled {
		var err error
		if sel == nil {
			sp := cfg.Obs.StartSpan("pks-select", w.FullName())
			sel, selRaw, err = selectKeyed(cfg, w, sc.Key, pack)
			sp.End()
			if err != nil {
				return nil, nil, err
			}
		}
		ev.Selection = sel
		// sel may come from a caller or the store: check before it indexes w.
		if err := sel.CheckFor(w.N); err != nil {
			return nil, nil, err
		}
		r := workloadReps(w, len(sel.Groups), func(i int) int { return sel.Groups[i].RepIndex }, sc.Kernels)
		for _, usePKP := range usePKPs {
			phase, rp := r.sampled(cfg, usePKP)
			out := &ev.PKS
			if usePKP {
				out = &ev.PKA
			}
			methods = append(methods, method{"sampled:" + phase, []sampling.RiderPass{rp}, pksPopulations(sel), out})
		}
	}
	var passes []*sampling.RiderPass // every pass, in the order the pack lays them out
	n := 0
	for _, m := range methods {
		for i := range m.passes {
			passes = append(passes, &m.passes[i])
			n += len(m.passes[i].Kernels)
		}
	}
	pack.Bind(cfg.Device, passes...)

	// Stage 2: every method, its outcomes folded by its populations and kept,
	// in pass order, for the pack.
	outs := make([]sampling.KernelOutcome, 0, n)
	for _, m := range methods {
		from := len(outs)
		var total SampledSim
		var err error
		if outs, total, err = run(cfg, m.span, w.FullName(), outs, m.passes...); err != nil {
			return nil, nil, fmt.Errorf("core: %s of %s: %w", m.span, w.FullName(), err)
		}
		if m.out == nil {
			continue
		}
		*m.out = fold(outs[from:], m.app)
		m.out.SimWarpInstrs = total.SimWarpInstrs
	}
	pack.Save(selRaw, outs)
	if oneB {
		extrapolate(&ev.OneB, firstN, mass)
	}

	// Stage 3: what every method reports beside its projection. Full
	// simulation costs what it simulated, or where infeasible what its mass
	// projects (with no error column: the paper's MLPerf rows).
	fullWork := mass
	if ev.Full != nil {
		fullWork = ev.Full.SimWarpInstrs
	}
	if full {
		ev.FullSimHours = SimHours(fullWork)
	}
	for _, m := range methods {
		if out := m.out; out != nil {
			out.SimHours = SimHours(out.SimWarpInstrs)
			if p.Silicon {
				out.ErrorPct = stats.AbsPctErr(float64(out.ProjCycles), float64(sc.Silicon.Cycles))
			}
			if full && out.SimWarpInstrs > 0 {
				out.SpeedupVsFull = float64(fullWork) / float64(out.SimWarpInstrs)
			}
		}
	}
	return ev, pack, nil
}

// extrapolate projects 1B past its budget as the first-N methodology projects
// a truncated run: unless out folds every launch of the workload whole, the
// prefix's warp IPC is held over the rest of its mass, and every launch never
// entered pays its launch overhead.
func extrapolate(out *SampledSim, plan sampling.FirstNPlan, mass int64) {
	if len(plan.Whole) == plan.Launches {
		return
	}
	entered := int64(len(plan.Whole) + len(plan.Cut))
	simCycles := out.ProjCycles - entered*silicon.KernelLaunchOverheadCycles
	if past := mass - plan.N; past > 0 && out.SimWarpInstrs > 0 && simCycles > 0 {
		prefixWarpIPC := float64(out.SimWarpInstrs) / float64(simCycles)
		out.ProjCycles += int64(float64(past) / prefixWarpIPC)
		out.ProjCycles += (int64(plan.Launches) - entered) * silicon.KernelLaunchOverheadCycles
	}
}

// TotalWarpWork returns the workload's full dynamic warp-instruction mass
// on the device — the denominator of every speedup-vs-full figure, and
// the before/after axis of the suite-dedup bench.
func TotalWarpWork(dev gpu.Device, w *workload.Workload) int64 {
	return int64(float64(w.ApproxWarpInstructions(1<<62)) * dev.ISAScale)
}
