// Zero-allocation guarantee for the simulator's cycle loop. The telemetry
// hookup (Options.Obs) reports once per kernel, so the marginal cost of an
// extra simulated cycle must be zero heap allocations even with every hook
// installed — BenchmarkSimTick reports it and TestSimTickZeroAlloc pins it.
//
// This file is an external test (package sim_test) so it can drive the
// loop through the real PKP controller, which lives downstream of sim.
package sim_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"pka/internal/gpu"
	"pka/internal/obs"
	"pka/internal/pkp"
	"pka/internal/sim"
	"pka/internal/trace"
)

// tickKernel is far too large to finish inside any run below, so MaxCycles
// alone bounds the loop and every measured cycle exercises the steady-state
// path: issue, memory system, controller. Blocks are small so hundreds
// complete within the first few thousand cycles — the per-kernel span args
// then box identically for every run length (boxing an int into an `any`
// is free only below 256), keeping the per-kernel report's allocation
// count constant so run-length differencing isolates the loop.
func tickKernel() trace.KernelDesc {
	return trace.KernelDesc{
		Name:             "tick-bench",
		Grid:             trace.D1(1 << 20),
		Block:            trace.D1(64),
		Mix:              trace.InstrMix{Compute: 60, GlobalLoads: 2, SharedLoads: 2},
		CoalescingFactor: 4,
		WorkingSetBytes:  1 << 20,
		StridedFraction:  0.7,
		DivergenceEff:    0.95,
		Seed:             42,
	}
}

// neverStop runs PKP's full per-cycle bookkeeping but discards its verdict,
// so the kernel is never truncated. Audit stays unwired: PKP emits audit
// records only at the stop decision, which this wrapper suppresses.
func neverStop() sim.Controller {
	p := pkp.New(pkp.Options{})
	return sim.ControllerFunc(func(t *sim.Telemetry) bool {
		p.Tick(t)
		return false
	})
}

// mallocsForCycles simulates exactly `cycles` cycles of k with a fresh
// simulator, observer, and controller, and returns the heap objects the
// whole run allocated. Per-run setup (SM state, the kernel span, the track
// metadata) is identical across calls, so differencing two calls isolates
// the loop's marginal allocations. With riders set the pass carries two
// more probes — a real projector, free to stop, and a ticking one under a
// cap the run outlives — so settling a probe mid-run is on the measured path.
func mallocsForCycles(tb testing.TB, dev gpu.Device, k trace.KernelDesc, cycles int64, riders bool) uint64 {
	tb.Helper()
	s := sim.New(dev)
	o := obs.NewObserver()
	so := o.SimObs("alloc-test")
	opts := sim.Options{Controller: neverStop(), MaxCycles: cycles, Obs: so}
	if riders {
		opts.Riders = []sim.Probe{{Controller: pkp.New(pkp.Options{})}, {Controller: neverStop(), MaxCycles: cycles / 2}}
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := s.RunKernel(&k, opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		tb.Fatal(err)
	}
	if res.Cycles < cycles {
		tb.Fatalf("kernel finished in %d cycles, want >= %d (enlarge tickKernel)", res.Cycles, cycles)
	}
	// Boxing the per-kernel span args is allocation-free below 256, so a
	// too-short run would report fewer kernel-end allocations and skew the
	// difference the caller takes.
	if res.BlocksCompleted <= 255 {
		tb.Fatalf("only %d blocks completed at %d cycles, want > 255 (shrink tickKernel blocks)", res.BlocksCompleted, cycles)
	}
	return after.Mallocs - before.Mallocs
}

// TestSimTickZeroAlloc asserts allocs/op == 0 for the cycle loop with all
// telemetry hooks installed, as a one-probe run and as a three-probe pass,
// on V100 and on the wide SM (multi-word due and warp sets): growing the
// run 16x must not allocate a single additional heap object.
func TestSimTickZeroAlloc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// A concurrent GC cycle mid-measurement allocates a few runtime-owned
	// objects that would be misattributed to the loop; the runs below
	// allocate only KBs of setup, so pausing collection is safe.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// On the wide SM, 160-thread blocks keep 25 resident per SM, 125 warps:
	// two-word warp sets (V100's 80 SMs already make the due set two words).
	wideK := tickKernel()
	wideK.Block = trace.D1(160)
	for _, c := range []struct {
		dev gpu.Device
		k   trace.KernelDesc
	}{{gpu.VoltaV100(), tickKernel()}, {sim.WideSM(), wideK}} {
		for _, riders := range []bool{false, true} {
			base := mallocsForCycles(t, c.dev, c.k, 8192, riders)
			big := mallocsForCycles(t, c.dev, c.k, 16*8192, riders)
			if big > base {
				t.Fatalf("cycle loop allocates on %s (riders=%v): %d extra heap objects over %d extra cycles (setup baseline %d)",
					c.dev.Name, riders, big-base, 15*8192, base)
			}
		}
	}
}

// BenchmarkSimTick measures one simulated cycle per benchmark op, with the
// obs hooks and the PKP detector installed. The per-kernel setup cost
// amortizes across b.N, so allocs/op must report 0.
func BenchmarkSimTick(b *testing.B) {
	k := tickKernel()
	s := sim.New(gpu.VoltaV100())
	o := obs.NewObserver()
	so := o.SimObs("bench")
	ctrl := neverStop()
	b.ReportAllocs()
	b.ResetTimer()
	res, err := s.RunKernel(&k, sim.Options{Controller: ctrl, MaxCycles: int64(b.N), Obs: so})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.WarpInstrs)/float64(res.Cycles), "warp-instr/cycle")
}
