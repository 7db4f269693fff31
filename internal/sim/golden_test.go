package sim

import (
	"math"
	"testing"

	"pka/internal/gpu"
	"pka/internal/trace"
)

// This file pins the simulator's observable behavior bit-for-bit: for a
// battery of kernels covering every instruction class, device, and loop
// feature (idle jumps, truncation, trace buckets, warm caches, block
// imbalance), it folds the complete per-cycle telemetry stream and the
// final KernelResult into one FNV-1a hash and compares against recorded
// constants. Any change to issue order, cycle counts, cache behavior, or
// the telemetry a Controller observes shifts the hash — the event-driven
// scheduler must reproduce the original round-robin scan exactly, and this
// is the test that holds it to that.

type goldenHash struct{ h uint64 }

func newGoldenHash() *goldenHash { return &goldenHash{h: 14695981039346656037} }

func (g *goldenHash) u64(v uint64) {
	for i := 0; i < 8; i++ {
		g.h ^= v & 0xFF
		g.h *= 1099511628211
		v >>= 8
	}
}

func (g *goldenHash) i64(v int64)   { g.u64(uint64(v)) }
func (g *goldenHash) f64(v float64) { g.u64(math.Float64bits(v)) }
func (g *goldenHash) boolean(v bool) {
	if v {
		g.u64(1)
	} else {
		g.u64(0)
	}
}

// tickHash returns a Controller that folds every telemetry field of every
// tick into the hash, optionally stopping when stop returns true.
func (g *goldenHash) controller(stop func(*Telemetry) bool) Controller {
	return ControllerFunc(func(t *Telemetry) bool {
		g.i64(t.Cycle)
		g.i64(t.IdleGap)
		g.f64(t.ThreadInstrs)
		g.i64(t.WarpInstrs)
		g.f64(t.IssuedThisCycle)
		g.u64(uint64(t.BlocksCompleted))
		g.u64(uint64(t.BlocksTotal))
		g.u64(uint64(t.WaveSize))
		return stop != nil && stop(t)
	})
}

func (g *goldenHash) result(r *KernelResult) {
	g.i64(r.Cycles)
	g.i64(r.WarpInstrs)
	g.i64(r.ExpectedWarpInstrs)
	g.f64(r.ThreadInstrs)
	g.f64(r.IPC)
	g.f64(r.L2MissRate)
	g.f64(r.DRAMUtil)
	g.u64(uint64(r.BlocksCompleted))
	g.u64(uint64(r.BlocksTotal))
	g.u64(uint64(r.WaveSize))
	g.boolean(r.StoppedEarly)
	g.u64(uint64(len(r.Trace)))
	for _, s := range r.Trace {
		g.i64(s.Cycle)
		g.f64(s.IPC)
		g.f64(s.L2Miss)
		g.f64(s.DRAMUtil)
	}
}

// goldenCase is one pinned scenario: the kernels run back-to-back on ONE
// simulator (warm L2/DRAM state across kernels is part of the pin).
type goldenCase struct {
	name    string
	dev     gpu.Device
	kernels []trace.KernelDesc
	opts    func(g *goldenHash) Options
	want    uint64
}

// WideSM is a synthetic V100 with twice the warp and thread limits. Every
// catalogue device holds at most 64 warps per SM, so one ready word and one
// wheel word per bucket; this one holds up to 128, so a warp set can be two
// words. Exported for the external tests.
func WideSM() gpu.Device {
	d := gpu.VoltaV100()
	d.Name = "wide-sm"
	d.NumSMs = 12
	d.MaxWarpsPerSM = 128
	d.MaxThreadsPerSM = 4096
	return d
}

func goldenCases() []goldenCase {
	allOps := trace.KernelDesc{
		Name: "all-ops", Grid: trace.D1(320), Block: trace.D1(192),
		Mix: trace.InstrMix{
			Compute: 40, GlobalLoads: 8, GlobalStores: 4, LocalLoads: 3,
			SharedLoads: 6, SharedStores: 5, GlobalAtomics: 2, TensorOps: 7,
		},
		CoalescingFactor: 3.3, WorkingSetBytes: 24 << 20, StridedFraction: 0.55,
		DivergenceEff: 0.87, Seed: 1234,
	}
	memory := trace.KernelDesc{
		Name: "memory", Grid: trace.D1(640), Block: trace.D1(256),
		Mix:              trace.InstrMix{Compute: 10, GlobalLoads: 40},
		CoalescingFactor: 8, WorkingSetBytes: 512 << 20, StridedFraction: 0.2,
		DivergenceEff: 1, Seed: 2,
	}
	compute := trace.KernelDesc{
		Name: "compute", Grid: trace.D1(410), Block: trace.D1(256),
		Mix:              trace.InstrMix{Compute: 200, GlobalLoads: 2},
		CoalescingFactor: 4, WorkingSetBytes: 64 << 10, StridedFraction: 1,
		DivergenceEff: 1, Seed: 1,
	}
	imbalanced := compute
	imbalanced.Name = "imbalanced"
	imbalanced.BlockImbalance = 1.5
	imbalanced.Seed = 77
	tiny := compute
	tiny.Name = "tiny"
	tiny.Grid = trace.D1(3)
	oddWS := trace.KernelDesc{
		// Non-power-of-two working set exercises the modulo (not mask)
		// address-wrap path.
		Name: "odd-ws", Grid: trace.D1(200), Block: trace.D1(160),
		Mix:              trace.InstrMix{Compute: 30, GlobalLoads: 12, GlobalStores: 6},
		CoalescingFactor: 4, WorkingSetBytes: 3*(1<<20) + 128*37, StridedFraction: 0.5,
		DivergenceEff: 0.93, Seed: 909,
	}
	// 25 resident 5-warp blocks on the wide SM = 125 warps, two bitset
	// words with a ragged tail.
	wideMix := allOps
	wideMix.Name = "wide-mix"
	wideMix.Grid = trace.D1(700)
	wideMix.Block = trace.D1(160)
	wideMix.Seed = 4242

	return []goldenCase{
		{
			name: "all-ops-volta", dev: gpu.VoltaV100(),
			kernels: []trace.KernelDesc{allOps},
			want:    0xcb72922f74f7d5d3,
		},
		{
			name: "warm-sequence-volta", dev: gpu.VoltaV100(),
			// Same kernel twice (warm caches), then a different one: pins
			// cross-kernel L2/DRAM state handling.
			kernels: []trace.KernelDesc{compute, compute, memory},
			want:    0x0f6dd5bd33b9ad4c,
		},
		{
			name: "memory-turing", dev: gpu.TuringRTX2060(),
			kernels: []trace.KernelDesc{memory, oddWS},
			want:    0xfd5bf7e949670194,
		},
		{
			name: "imbalanced-ampere", dev: gpu.AmpereRTX3070(),
			kernels: []trace.KernelDesc{imbalanced, tiny},
			want:    0x33c813a2744fbf7e,
		},
		{
			name: "truncated-volta", dev: gpu.VoltaV100(),
			kernels: []trace.KernelDesc{memory},
			opts: func(g *goldenHash) Options {
				return Options{
					Controller: g.controller(func(t *Telemetry) bool {
						return t.WarpInstrs > 40000
					}),
					TraceEvery: 150,
				}
			},
			want: 0x37f13b7b9b0765f3,
		},
		{
			name: "traced-maxcycles-volta", dev: gpu.VoltaV100(),
			kernels: []trace.KernelDesc{allOps},
			opts: func(g *goldenHash) Options {
				return Options{TraceEvery: 97, MaxCycles: 20000}
			},
			want: 0x0bdcff9fe6381cd3,
		},
		{
			// Hash recorded on the linked-list wheel and timestamp-LRU cache,
			// before the bitset wheel existed: the multi-word path is held
			// to an implementation that had no such path.
			name: "wide-sm-two-words", dev: WideSM(),
			kernels: []trace.KernelDesc{wideMix, oddWS},
			want:    0x90ef3c76621c1318,
		},
	}
}

// hash runs the case's kernels back to back through run (one simulator's
// RunKernel, or refSim's) and folds what they show into one hash.
func (tc goldenCase) hash(t *testing.T, run func(*trace.KernelDesc, Options) (*KernelResult, error)) uint64 {
	t.Helper()
	g := newGoldenHash()
	for i := range tc.kernels {
		var opts Options
		if tc.opts != nil {
			opts = tc.opts(g)
		}
		if opts.Controller == nil {
			opts.Controller = g.controller(nil)
		}
		res, err := run(&tc.kernels[i], opts)
		if err != nil {
			t.Fatal(err)
		}
		g.result(res)
	}
	return g.h
}

func TestGoldenTelemetryHashes(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.hash(t, New(tc.dev).RunKernel); got != tc.want {
				t.Errorf("telemetry/result hash = %#016x, want %#016x (simulator output changed)", got, tc.want)
			}
		})
	}
}
