// IPC stability: visualize the observation Principal Kernel Projection is
// built on (paper Section 3.2 / Figure 5) — the instantaneous IPC of GPU
// kernels, even irregular ones, stabilizes around its final average. The
// example traces two kernels, draws their IPC/L2/DRAM series as ASCII
// charts, and marks where PKP would stop at each threshold.
//
//	go run ./examples/ipcstability
package main

import (
	"fmt"
	"log"

	"pka"
	"pka/internal/pkp"
	"pka/internal/report"
)

func main() {
	dev := pka.VoltaV100()
	for _, spec := range []struct {
		label, wname string
		kernelID     int
	}{
		{"regular: atax matvec", "Polybench/atax", 0},
		{"irregular: bfs frontier", "Rodinia/bfs65536", 8},
	} {
		w := pka.FindWorkload(spec.wname)
		if w == nil {
			log.Fatalf("missing %s", spec.wname)
		}
		k := w.Kernel(spec.kernelID)
		// One pass: the three projectors ride along on the complete run, each
		// read off at the cycle it would have stopped a run of its own.
		thresholds := []float64{2.5, 0.25, 0.025}
		full, projs, err := pkp.Sweep(pka.NewSimulator(dev), &k, 250,
			pkp.Options{Threshold: thresholds[0]}, pkp.Options{Threshold: thresholds[1]}, pkp.Options{Threshold: thresholds[2]})
		if err != nil {
			log.Fatal(err)
		}

		chart := &pka.Chart{
			Title:  spec.label,
			YLabel: "normalized IPC / rates",
		}
		var ipc, l2, dram []float64
		peak := 1.0
		for _, s := range full.Trace {
			if s.IPC > peak {
				peak = s.IPC
			}
		}
		for _, s := range full.Trace {
			ipc = append(ipc, s.IPC/peak)
			l2 = append(l2, s.L2Miss)
			dram = append(dram, s.DRAMUtil)
		}
		chart.Series = []report.Series{
			{Name: "IPC / peak", Values: ipc},
			{Name: "L2 miss rate", Values: l2},
			{Name: "DRAM utilization", Values: dram},
		}
		fmt.Println(chart)

		fmt.Printf("full kernel: %d cycles, %d/%d blocks\n", full.Cycles, full.BlocksCompleted, full.BlocksTotal)
		for i, proj := range projs {
			errPct := 100 * abs(float64(proj.Cycles)-float64(full.Cycles)) / float64(full.Cycles)
			fmt.Printf("  s=%-6g stop@%-8d cycles  projection %-8d  error %5.1f%%  speedup %.1fx\n",
				thresholds[i], proj.SimulatedCycles, proj.Cycles, errPct, float64(full.Cycles)/float64(proj.SimulatedCycles))
		}
		fmt.Println()
	}
	fmt.Println("smaller s waits longer for confidence: more cycles, less error — the paper's tunable tradeoff.")
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
