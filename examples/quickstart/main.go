// Quickstart: run the complete Principal Kernel Analysis pipeline on one
// study workload and on a custom user-defined workload, entirely through
// the public pka API.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"pka"
)

func main() {
	// --- Part 1: a study workload. gaussian elimination launches 414
	// near-identical kernels; PKS collapses them into one group.
	w := pka.FindWorkload("Rodinia/gauss_208")
	if w == nil {
		log.Fatal("study workload missing")
	}
	cfg := pka.Config{Device: pka.VoltaV100()}
	ev, err := pka.Evaluate(cfg, w)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d kernels -> %d group(s)\n", w.FullName(), w.N, ev.Selection.K)
	fmt.Printf("  selection error (silicon)  %.2f%%\n", ev.Selection.SelectionErrorPct)
	fmt.Printf("  silicon speedup            %.0fx\n", ev.Selection.SiliconSpeedup)
	if ev.Full != nil {
		fmt.Printf("  full simulation error      %.1f%% vs silicon\n", ev.Full.ErrorPct)
	}
	fmt.Printf("  PKA simulation error       %.1f%% vs silicon\n", ev.PKA.ErrorPct)
	fmt.Printf("  PKA simulated-work cut     %.0fx\n\n", ev.PKA.SpeedupVsFull)

	// --- Part 2: your own application. Describe each kernel launch (grid,
	// block, instruction mix, memory behaviour) and PKA does the rest.
	myApp := pka.NewWorkload("example", "alternating-pipeline", 60, func(i int) pka.KernelDesc {
		if i%3 == 2 { // every third launch is a bandwidth-bound reduce
			return pka.KernelDesc{
				Name: "reduce_pass", Grid: pka.D1(512), Block: pka.D1(256),
				Mix:              pka.InstrMix{Compute: 12, GlobalLoads: 24, GlobalStores: 1},
				CoalescingFactor: 4, WorkingSetBytes: 512 << 20,
				StridedFraction: 0.4, DivergenceEff: 1, Seed: uint64(i),
			}
		}
		return pka.KernelDesc{
			Name: "map_pass", Grid: pka.D1(640), Block: pka.D1(256),
			Mix:              pka.InstrMix{Compute: 150, GlobalLoads: 4, GlobalStores: 1},
			CoalescingFactor: 4, WorkingSetBytes: 8 << 20,
			StridedFraction: 0.95, DivergenceEff: 1, Seed: uint64(i),
		}
	})
	sel, err := pka.Select(pka.VoltaV100(), myApp, pka.SelectOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d kernels -> %d group(s), error %.2f%%\n",
		myApp.FullName(), myApp.N, sel.K, sel.SelectionErrorPct)
	for gi, g := range sel.Groups {
		fmt.Printf("  group %d: rep kernel %d (%s), population %d\n",
			gi, g.RepIndex, g.Representative.Name, g.Count())
	}

	// Reuse the selection across GPU generations, as the paper validates.
	cg, err := pka.ProjectOnDevice(pka.TuringRTX2060(), myApp, sel)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  Volta-selected kernels on Turing: error %.2f%%, speedup %.0fx\n",
		cg.ErrorPct(), cg.Speedup())
}
