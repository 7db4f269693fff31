package pka_test

import (
	"fmt"

	"pka"
)

// ExampleSelect shows Principal Kernel Selection collapsing a repetitive
// launch stream into one weighted representative.
func ExampleSelect() {
	app := pka.NewWorkload("docs", "repeated-gemm", 25, func(i int) pka.KernelDesc {
		return pka.KernelDesc{
			Name: "sgemm", Grid: pka.D2(8, 8), Block: pka.D1(256),
			Mix:              pka.InstrMix{Compute: 200, GlobalLoads: 8, SharedLoads: 16},
			CoalescingFactor: 4, WorkingSetBytes: 8 << 20, StridedFraction: 0.95,
			DivergenceEff: 1, Seed: uint64(i) + 1,
		}
	})
	sel, err := pka.Select(pka.VoltaV100(), app, pka.SelectOptions{})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("groups: %d\n", sel.K)
	fmt.Printf("representative: kernel %d\n", sel.Groups[0].RepIndex)
	fmt.Printf("population: %d\n", sel.Groups[0].Count())
	// Output:
	// groups: 1
	// representative: kernel 0
	// population: 25
}

// ExampleNewProjector shows Principal Kernel Projection stopping a
// simulation at IPC stability and projecting the rest of the kernel.
func ExampleNewProjector() {
	k := pka.KernelDesc{
		Name: "steady", Grid: pka.D1(6400), Block: pka.D1(256),
		Mix:              pka.InstrMix{Compute: 120, GlobalLoads: 4},
		CoalescingFactor: 4, WorkingSetBytes: 1 << 20, StridedFraction: 0.95,
		DivergenceEff: 1, Seed: 5,
	}
	p := pka.NewProjector(pka.ProjectorOptions{})
	res, err := pka.NewSimulator(pka.VoltaV100()).RunKernel(&k, pka.SimOptions{Controller: p})
	if err != nil {
		fmt.Println(err)
		return
	}
	proj := p.Projection(res)
	fmt.Printf("stopped early: %v\n", res.StoppedEarly)
	fmt.Printf("simulated a fraction: %v\n", res.BlocksCompleted < res.BlocksTotal)
	fmt.Printf("projection covers the grid: %v\n", proj.Cycles > res.Cycles)
	// Output:
	// stopped early: true
	// simulated a fraction: true
	// projection covers the grid: true
}

// ExampleDevice_WithSMs shows the MPS-style SM masking used by the
// paper's 80-versus-40-SM case study.
func ExampleDevice_WithSMs() {
	full := pka.VoltaV100()
	half := full.WithSMs(40)
	fmt.Printf("%d -> %d SMs, same bandwidth: %v\n",
		full.NumSMs, half.NumSMs, full.DRAMBandwidthGBs == half.DRAMBandwidthGBs)
	// Output:
	// 80 -> 40 SMs, same bandwidth: true
}
