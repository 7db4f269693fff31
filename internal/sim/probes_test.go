// The fence for RunProbes: result i of a probed pass must be, bit for bit,
// what RunKernel returns for probe i alone on a fresh simulator — so that a
// study may read the cycle cap's and PKP's answers off the full baseline's
// pass. External test (package sim_test) because the probes that matter are
// real PKP projectors, which live downstream of sim.
package sim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pka/internal/gpu"
	"pka/internal/pkp"
	"pka/internal/sim"
	"pka/internal/trace"
)

// probeSpec describes one probe; controllers are stateful, so the solo run
// and the probed pass each build their own.
type probeSpec struct {
	name string
	ctl  func() sim.Controller // nil = no controller
	cap  int64
}

func (p probeSpec) build() sim.Probe {
	pr := sim.Probe{MaxCycles: p.cap}
	if p.ctl != nil {
		pr.Controller = p.ctl()
	}
	return pr
}

func projector(threshold float64) func() sim.Controller {
	return func() sim.Controller { return pkp.New(pkp.Options{Threshold: threshold}) }
}

// checkProbes runs probes as one pass (probes[0] the run's own, the rest
// riders) and each alone, both on fresh simulators, and compares them.
func checkProbes(t *testing.T, dev gpu.Device, k *trace.KernelDesc, traceEvery int64, probes []probeSpec) {
	t.Helper()
	built := make([]sim.Probe, len(probes))
	for i, p := range probes {
		built[i] = p.build()
	}
	got, err := sim.New(dev).RunProbes(k, sim.Options{
		Controller: built[0].Controller, MaxCycles: built[0].MaxCycles, Riders: built[1:], TraceEvery: traceEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(probes) {
		t.Fatalf("%d results for %d probes", len(got), len(probes))
	}
	for i, p := range probes {
		solo := p.build()
		want, err := sim.New(dev).RunKernel(k, sim.Options{Controller: solo.Controller, MaxCycles: solo.MaxCycles, TraceEvery: traceEvery})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.SameResult(got[i], want); err != nil {
			t.Errorf("%s on %s, probe %d (%s, cap %d) of %d: probed vs solo: %v", k.Name, dev.Name, i, p.name, p.cap, len(probes), err)
			continue
		}
		// A projector that rode along must have ended in the state its own
		// run leaves it in: same stop, same projection.
		if pa, ok := built[i].Controller.(*pkp.Projector); ok {
			pb := solo.Controller.(*pkp.Projector)
			if pa.StableAt() != pb.StableAt() || !reflect.DeepEqual(pa.Projection(got[i]), pb.Projection(want)) {
				t.Errorf("%s on %s, probe %d (%s): projector stopped at %d riding, %d alone", k.Name, dev.Name, i, p.name, pa.StableAt(), pb.StableAt())
			}
		}
	}
}

// probeKernels generates seeded kernels for dev: random mixes at sub-wave,
// one-wave and multi-wave grids, with few resident blocks per SM so a wave
// stays cheap to simulate.
func probeKernels(rng *rand.Rand, dev gpu.Device) []trace.KernelDesc {
	var ks []trace.KernelDesc
	for _, waves := range []float64{0.4, 1, 2.3, 3} {
		k := trace.KernelDesc{
			Block:         trace.D1(32 * (2 + rng.Intn(5))),
			RegsPerThread: 96 + 32*rng.Intn(3),
			Mix: trace.InstrMix{
				Compute:       40 + rng.Intn(200),
				GlobalLoads:   2 + rng.Intn(24),
				GlobalStores:  rng.Intn(6),
				SharedLoads:   rng.Intn(12),
				SharedStores:  rng.Intn(4),
				GlobalAtomics: rng.Intn(2),
			},
			CoalescingFactor: 1 + 7*rng.Float64(),
			WorkingSetBytes:  int64(1+rng.Intn(96)) << 20,
			StridedFraction:  rng.Float64(),
			DivergenceEff:    0.6 + 0.4*rng.Float64(),
			BlockImbalance:   float64(rng.Intn(2)) * rng.Float64(),
			Seed:             rng.Uint64(),
		}
		wave := dev.ComputeOccupancy(k.Resources()).BlocksPerSM * dev.NumSMs
		k.Grid = trace.D1(max(1, int(waves*float64(wave))))
		k.Name = fmt.Sprintf("gen-%.1fw-%d", waves, k.Grid.X)
		ks = append(ks, k)
	}
	return ks
}

// TestProbesMatchSoloRuns: seeded kernels × devices × probe sets, with the
// caps placed where the loop could get it wrong — inside an idle jump, on
// and around the retiring cycle, just below, on and above PKP's stop — a
// projector that never stabilises and two that stop on the same cycle.
func TestProbesMatchSoloRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	stops, jumps := 0, 0
	for _, dev := range []gpu.Device{gpu.VoltaV100(), gpu.TuringRTX2060(), sim.WideSM()} {
		for _, k := range probeKernels(rng, dev) {
			k := k
			// Scout the trajectory: its length, PKP's stop, and a cap that an
			// idle jump steps over.
			inJump := int64(0)
			full, err := sim.New(dev).RunKernel(&k, sim.Options{Controller: sim.ControllerFunc(func(tl *sim.Telemetry) bool {
				if inJump == 0 && tl.IdleGap >= 2 && tl.Cycle > 50 {
					inJump = tl.Cycle - 1
				}
				return false
			})})
			if err != nil {
				t.Fatal(err)
			}
			pka, err := sim.New(dev).RunKernel(&k, sim.Options{Controller: pkp.New(pkp.Options{})})
			if err != nil {
				t.Fatal(err)
			}
			stop, end := pka.Cycles, full.Cycles
			if stop < end {
				stops++
			}
			noCtl := func(name string, cap int64) probeSpec { return probeSpec{name: name, cap: cap} }
			sets := [][]probeSpec{
				// What a cold Evaluate asks for: full, the cycle cap, PKP.
				{noCtl("full", 0), noCtl("pks", sim.DefaultMaxCycles), {name: "pka", ctl: projector(0)}},
				// The same with the shortest probe as the run's own.
				{{name: "pka", ctl: projector(0)}, noCtl("full", 0)},
				// Twin projectors, one that never stabilises, a looser and a
				// tighter one, and caps around PKP's stop.
				{{name: "pka", ctl: projector(0)}, {name: "pka-twin", ctl: projector(0)},
					{name: "never", ctl: projector(1e-12)}, {name: "loose", ctl: projector(2.5)}, {name: "tight", ctl: projector(0.025)},
					noCtl("below-stop", stop-1), noCtl("on-stop", stop), noCtl("above-stop", stop+1)},
				// PKP under a cap below and above its own stop, and caps
				// around the retiring cycle.
				{{name: "pka-capped-below", ctl: projector(0), cap: stop - 1}, {name: "pka-capped-above", ctl: projector(0), cap: stop + 1},
					noCtl("before-retire", end-1), noCtl("on-retire", end), noCtl("after-retire", end+1), noCtl("early", end/3)},
			}
			if inJump > 0 {
				jumps++
				sets = append(sets, []probeSpec{noCtl("in-jump", inJump), {name: "pka", ctl: projector(0)}, noCtl("full", 0)})
			}
			for i, set := range sets {
				traceEvery := int64(0)
				if i%2 == 1 {
					traceEvery = 97
				}
				checkProbes(t, dev, &k, traceEvery, set)
			}
		}
	}
	// The generator must actually reach the cases the caps are named for.
	t.Logf("%d kernels stopped by PKP, %d with an idle jump", stops, jumps)
	if stops < 4 || jumps < 4 {
		t.Errorf("only %d kernels stopped by PKP and %d with an idle jump: the generator misses what this test is for", stops, jumps)
	}
}
