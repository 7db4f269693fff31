package workload

import (
	"fmt"

	"pka/internal/trace"
)

// cutlassShapes are the ten GEMM problem sizes used for both the SGEMM
// (CUDA-core) and WGEMM (tensor-core) CUTLASS perf workloads.
var cutlassShapes = [10][3]int{
	// The CUTLASS perf shapes, scaled 1/4 per dimension so single-kernel
	// simulations stay within this harness's compute budget (the shape
	// labels keep the original problem names).
	{640, 32, 640},
	{640, 128, 640},
	{640, 256, 640},
	{1024, 32, 1024},
	{1024, 256, 1024},
	{1024, 1024, 1024},
	{256, 256, 256},
	{2048, 32, 2048},
	{128, 128, 512},
	{1536, 256, 512},
}

// cutlass returns the 20 CUTLASS perf workloads: 10 SGEMM inputs and 10
// tensor-core WGEMM inputs. Each launches the same GEMM seven times
// (warmup + timed repetitions), matching Table 3's "kernel 0, count 7".
func cutlass() []*Workload {
	const suite = "Cutlass"
	var out []*Workload
	for _, tensor := range []bool{false, true} {
		variant := "sgemm"
		kname := "cutlass_sgemm_nn"
		if tensor {
			variant = "wgemm"
			kname = "cutlass_wmma_gemm_nn"
		}
		for _, shape := range cutlassShapes {
			m, n, kk := shape[0], shape[1], shape[2]
			name := fmt.Sprintf("%dx%dx%d_%s", m, n, kk, variant)
			useTensor := tensor
			out = append(out, New(suite, name, 7, func(i int) trace.KernelDesc {
				k := gemmKernel(kname, m, n, kk, useTensor)
				k.Seed = seedOf(name, uint64(i))
				return k
			}))
		}
	}
	return out
}
