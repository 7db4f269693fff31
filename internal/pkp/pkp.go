// Package pkp implements Principal Kernel Projection, the paper's
// intra-kernel reduction (Section 3.2). A Projector rides along inside the
// cycle-level simulator as a Controller, tracking the rolling standard
// deviation of the kernel's IPC over the last n cycles (n = 3000). Once the
// normalized deviation drops below the stability threshold s (default
// 0.25) — and, for kernels larger than one wave, enough thread blocks have
// retired that steady-state resource contention is captured — simulation
// stops and the remaining cycles are projected linearly from the
// unfinished thread blocks. The method is borrowed from stock-price
// stability detection; its GPU justification is that thread lifetimes are
// short and grids execute one code phase, so aggregate IPC converges even
// for irregular programs (paper Figure 5).
//
// Two signal-processing details matter on a cycle-accurate substrate:
//
//   - The raw per-cycle issue count of any memory-bound kernel is bursty
//     (warps convoy behind the DRAM queue), so the detector smooths the
//     signal into fixed-size cycle buckets and then watches the *drift* of
//     the n-cycle rolling mean — the moving-average convergence the
//     stock-price analogy actually describes. A stationary-but-noisy IPC
//     is stable; a ramping one is not.
//
//   - Uniform kernels retire thread blocks in synchronized wave bursts,
//     so a completion rate measured over any window shorter than a wave
//     aliases badly. When the grid is at least two waves deep, the
//     projector times the gap between the first and second wave
//     completions and projects from that; for shallower grids it falls
//     back to the lifetime average, and for sub-wave grids (no completions
//     at all when stability fires) it projects from instruction progress.
package pkp

import (
	"pka/internal/obs"
	"pka/internal/sim"
	"pka/internal/stats"
	"pka/internal/trace"
)

// Defaults from the paper: one threshold and one window for all 147
// workloads — no per-workload tuning.
const (
	DefaultThreshold = 0.25
	DefaultWindow    = 3000
	// BucketCycles is the smoothing granularity of the IPC signal.
	BucketCycles = 100
	// driftSpan is how many rolling-mean observations the drift detector
	// compares (driftSpan * BucketCycles cycles of mean history).
	driftSpan = 15
)

// Options configures a Projector.
type Options struct {
	// Threshold is s: the normalized dispersion of the windowed IPC below
	// which the signal is quasi-stable. Zero applies DefaultThreshold.
	Threshold float64
	// Window is n, the rolling window length in cycles. Zero applies
	// DefaultWindow.
	Window int
	// DisableWaveConstraint drops the requirement that full waves of
	// thread blocks retire before stopping (ablation; the paper argues
	// the constraint is needed to capture contention).
	DisableWaveConstraint bool

	// Audit, when non-nil, receives a decision record for the first
	// wave-constraint hold, the stop decision itself (cycle, rolling-mean
	// drift, wave state), and the projection computed from the truncated
	// run. Records are emitted at most a handful of times per kernel —
	// never on the per-cycle path — so auditing cannot slow the detector.
	Audit *obs.Audit
	// AuditSubject labels this projector's audit records (typically the
	// kernel name).
	AuditSubject string
	// Metrics, when non-nil, receives stop counters and stop-cycle /
	// drift-CV histograms.
	Metrics *obs.PKPMetrics
}

func (o Options) filled() Options {
	if o.Threshold <= 0 {
		o.Threshold = DefaultThreshold
	}
	if o.Window <= 0 {
		o.Window = DefaultWindow
	}
	return o
}

// Projector detects IPC stability online. It implements sim.Controller.
type Projector struct {
	opts    Options
	rolling *stats.Rolling // window of bucket-mean IPC samples
	drift   *stats.Rolling // recent history of the rolling mean

	bucketInstr  float64
	bucketCycles int64

	// Wave timing: cycle at which the first and second full waves of
	// thread blocks completed (-1 = not yet).
	wave1At, wave2At int64

	stableAt   int64
	sawStable  bool
	waveHeldAt int64 // first cycle a stable signal was held by the wave constraint (-1 = never)
}

// New returns a Projector with the given options.
func New(opts Options) *Projector {
	o := opts.filled()
	buckets := o.Window / BucketCycles
	if buckets < 2 {
		buckets = 2
	}
	return &Projector{
		opts:       o,
		rolling:    stats.NewRolling(buckets),
		drift:      stats.NewRolling(driftSpan),
		stableAt:   -1,
		wave1At:    -1,
		wave2At:    -1,
		waveHeldAt: -1,
	}
}

// Tick implements sim.Controller.
func (p *Projector) Tick(t *sim.Telemetry) bool {
	p.bucketInstr += t.IssuedThisCycle
	p.bucketCycles += 1 + t.IdleGap // idle cycles are genuine zero-IPC time

	if p.bucketCycles >= BucketCycles {
		p.rolling.Push(p.bucketInstr / float64(p.bucketCycles))
		p.bucketInstr = 0
		p.bucketCycles = 0
		if p.rolling.Full() {
			p.drift.Push(p.rolling.Mean())
		}
	}

	if t.WaveSize > 0 {
		if p.wave1At < 0 && t.BlocksCompleted >= t.WaveSize {
			p.wave1At = t.Cycle
		}
		if p.wave2At < 0 && t.BlocksCompleted >= 2*t.WaveSize {
			p.wave2At = t.Cycle
		}
	}

	if !p.drift.Full() {
		return false
	}
	if p.drift.CoefVar() >= p.opts.Threshold {
		return false
	}
	// Quasi-stable. Enforce the wave constraint unless the grid is
	// smaller than a wave (paper: small grids never reach a full wave and
	// are stopped on stability alone). Grids at least two waves deep wait
	// for the second wave so the completion rate can be measured free of
	// the cold-start wave.
	if !p.opts.DisableWaveConstraint && t.BlocksTotal > t.WaveSize {
		held := false
		if t.BlocksTotal >= 2*t.WaveSize {
			held = p.wave2At < 0
		} else {
			held = p.wave1At < 0
		}
		if held {
			if p.waveHeldAt < 0 {
				p.waveHeldAt = t.Cycle
				if m := p.opts.Metrics; m != nil {
					m.WaveHolds.Inc()
				}
				p.audit("wave-hold", t)
			}
			return false
		}
	}
	p.sawStable = true
	p.stableAt = t.Cycle
	if m := p.opts.Metrics; m != nil {
		m.Stops.Inc()
		m.StopCycle.Observe(float64(t.Cycle))
		m.DriftCV.Observe(p.drift.CoefVar())
	}
	p.audit("stop", t)
	return true
}

// audit logs one decision record carrying everything the stop condition
// was evaluated on, so the decision can be re-derived from the log alone.
func (p *Projector) audit(event string, t *sim.Telemetry) {
	if p.opts.Audit == nil {
		return
	}
	p.opts.Audit.Record("pkp", event, p.opts.AuditSubject, t.Cycle, map[string]float64{
		"drift_cv":         p.drift.CoefVar(),
		"threshold":        p.opts.Threshold,
		"window_cycles":    float64(p.opts.Window),
		"rolling_mean_ipc": p.rolling.Mean(),
		"blocks_completed": float64(t.BlocksCompleted),
		"blocks_total":     float64(t.BlocksTotal),
		"wave_size":        float64(t.WaveSize),
		"wave1_at":         float64(p.wave1At),
		"wave2_at":         float64(p.wave2At),
		"warp_instrs":      float64(t.WarpInstrs),
	})
}

// Stable reports whether stability was detected before kernel completion.
func (p *Projector) Stable() bool { return p.sawStable }

// StableAt returns the cycle stability fired at, or -1.
func (p *Projector) StableAt() int64 { return p.stableAt }

// Projection extrapolates full-kernel statistics from a (possibly
// truncated) simulation result.
type Projection struct {
	// Cycles is the projected end-to-end kernel cycle count.
	Cycles int64
	// ThreadInstrs is the projected executed thread instructions.
	ThreadInstrs float64
	// IPC is the projected kernel IPC.
	IPC float64
	// DRAMUtil and L2MissRate carry the measured steady-state rates
	// forward (rates, unlike counts, need no scaling).
	DRAMUtil   float64
	L2MissRate float64
	// SimulatedCycles and SimulatedWarpInstrs are what was actually
	// simulated — the cost side of the speedup ledger.
	SimulatedCycles     int64
	SimulatedWarpInstrs int64
	// Truncated reports whether any extrapolation happened.
	Truncated bool
}

// Projection extrapolates the result of the run this Projector controlled.
// When the run saw two complete waves, the per-block rate comes from the
// inter-wave gap (immune to both the launch ramp and wave-burst aliasing);
// otherwise it degrades like Project.
func (p *Projector) Projection(res *sim.KernelResult) Projection {
	pr := baseProjection(res)
	waveGap := pr.Truncated && p.wave1At >= 0 && p.wave2At > p.wave1At && res.WaveSize > 0
	if waveGap {
		perBlock := float64(p.wave2At-p.wave1At) / float64(res.WaveSize)
		unfinished := res.BlocksTotal - res.BlocksCompleted
		pr.Cycles = res.Cycles + int64(perBlock*float64(unfinished))
		if res.BlocksCompleted > 0 {
			pr.ThreadInstrs = res.ThreadInstrs * float64(res.BlocksTotal) / float64(res.BlocksCompleted)
		}
		if pr.Cycles > 0 {
			pr.IPC = pr.ThreadInstrs / float64(pr.Cycles)
		}
	}
	if p.opts.Audit != nil {
		truncated, wg, stable := 0.0, 0.0, 0.0
		if pr.Truncated {
			truncated = 1
		}
		if waveGap {
			wg = 1
		}
		if p.sawStable {
			stable = 1
		}
		// The record carries the detector's full stop condition (drift CV
		// versus threshold, stability verdict, stop cycle) alongside the
		// projection, so stop and no-stop decisions alike can be re-derived
		// from the log.
		p.opts.Audit.Record("pkp", "projection", p.opts.AuditSubject, res.Cycles, map[string]float64{
			"truncated":        truncated,
			"wave_gap_rate":    wg,
			"stable":           stable,
			"stable_at":        float64(p.stableAt),
			"drift_cv":         p.drift.CoefVar(),
			"threshold":        p.opts.Threshold,
			"simulated_cycles": float64(pr.SimulatedCycles),
			"projected_cycles": float64(pr.Cycles),
			"projected_ipc":    pr.IPC,
			"blocks_completed": float64(res.BlocksCompleted),
			"blocks_total":     float64(res.BlocksTotal),
		})
	}
	return pr
}

// Sweep simulates k on s once, to completion, with one Projector per option
// set riding along as a probe of that pass — Figure 5 drawn literally: the
// stopping points sit on the complete run's own trace. It returns the
// complete run (with an IPC trace when traceEvery > 0) and, per option set,
// the projection from where that Projector would have stopped a run of its
// own (its SimulatedCycles is the stop cycle).
func Sweep(s *sim.Simulator, k *trace.KernelDesc, traceEvery int64, opts ...Options) (*sim.KernelResult, []Projection, error) {
	projectors := make([]*Projector, len(opts))
	riders := make([]sim.Probe, len(opts))
	for i, o := range opts {
		projectors[i] = New(o)
		riders[i].Controller = projectors[i]
	}
	res, err := s.RunProbes(k, sim.Options{TraceEvery: traceEvery, Riders: riders})
	if err != nil {
		return nil, nil, err
	}
	projs := make([]Projection, len(opts))
	for i, p := range projectors {
		projs[i] = p.Projection(res[1+i])
	}
	return res[0], projs, nil
}

// Project converts a simulation result into full-kernel projections
// without online state: lifetime-average block rate when completions
// exist, instruction-progress scaling otherwise (cyclesLeft =
// unfinishedBlocks * elapsed / finishedBlocks, per the paper). It serves
// results truncated by other means (instruction budgets, cycle caps);
// prefer Projector.Projection for PKP-controlled runs.
func Project(res *sim.KernelResult) Projection {
	return baseProjection(res)
}

func baseProjection(res *sim.KernelResult) Projection {
	pr := Projection{
		Cycles:              res.Cycles,
		ThreadInstrs:        res.ThreadInstrs,
		IPC:                 res.IPC,
		DRAMUtil:            res.DRAMUtil,
		L2MissRate:          res.L2MissRate,
		SimulatedCycles:     res.Cycles,
		SimulatedWarpInstrs: res.WarpInstrs,
	}
	if !res.StoppedEarly || res.BlocksCompleted >= res.BlocksTotal {
		return pr
	}
	pr.Truncated = true
	unfinished := res.BlocksTotal - res.BlocksCompleted
	switch {
	case res.BlocksCompleted > 0:
		perBlock := float64(res.Cycles) / float64(res.BlocksCompleted)
		pr.Cycles = res.Cycles + int64(perBlock*float64(unfinished))
		scale := float64(res.BlocksTotal) / float64(res.BlocksCompleted)
		pr.ThreadInstrs = res.ThreadInstrs * scale
	case res.WarpInstrs > 0 && res.ExpectedWarpInstrs > res.WarpInstrs:
		// No block ever retired (sub-wave grids stopped on stability
		// alone): blocks run concurrently, so block-granularity scaling
		// would massively overestimate. Scale by instruction progress
		// instead.
		scale := float64(res.ExpectedWarpInstrs) / float64(res.WarpInstrs)
		pr.Cycles = int64(float64(res.Cycles) * scale)
		pr.ThreadInstrs = res.ThreadInstrs * scale
	default:
		pr.Cycles = res.Cycles * int64(res.BlocksTotal)
		pr.ThreadInstrs = res.ThreadInstrs * float64(res.BlocksTotal)
	}
	if pr.Cycles > 0 {
		pr.IPC = pr.ThreadInstrs / float64(pr.Cycles)
	}
	return pr
}
