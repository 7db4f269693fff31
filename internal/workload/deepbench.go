package workload

import (
	"fmt"

	"pka/internal/trace"
)

// deepBench returns Baidu DeepBench: isolated, hand-tuned deep-learning
// primitives — convolution, GEMM, and RNN benches — in inference and
// training flavours, with and without tensor cores. These launch few,
// targeted kernels, so PKS speedups are muted (1-7x) compared to the
// kernel-storm suites; their value in the study is exactly that contrast.
func deepBench() []*Workload {
	const suite = "DeepBench"
	var out []*Workload

	convShapes := [5][6]int{
		// batch, C, H, W, K, r — DeepBench layer shapes scaled to this
		// harness's compute budget.
		{8, 32, 56, 56, 64, 3},
		{4, 64, 28, 28, 128, 3},
		{8, 128, 14, 14, 256, 3},
		{4, 256, 7, 7, 256, 3},
		{8, 3, 112, 112, 32, 7},
	}
	for _, tensor := range []bool{false, true} {
		for _, train := range []bool{false, true} {
			for idx, s := range convShapes {
				out = append(out, convBenchWorkload(suite, idx, s, train, tensor))
			}
		}
	}

	gemmShapes := [5][3]int{
		{1281, 175, 512},
		{35, 175, 512},
		{1281, 375, 512},
		{1920, 2, 640},
		{768, 375, 256},
	}
	for _, tensor := range []bool{false, true} {
		for _, train := range []bool{false, true} {
			for idx, s := range gemmShapes {
				out = append(out, gemmBenchWorkload(suite, idx, s, train, tensor))
			}
		}
	}

	// RNN benches: (hidden, batch, timesteps). Inference CUDA has 9
	// inputs, inference TensorCore has 10, training variants 5 each —
	// matching the per-row input counts in Table 4.
	rnnInf := [10][3]int{
		{880, 16, 25}, {1024, 32, 12}, {1280, 32, 25}, {512, 16, 12},
		{1408, 32, 12}, {1536, 16, 12}, {1792, 32, 25}, {256, 16, 25},
		{768, 8, 25}, {1024, 16, 50},
	}
	for i := 0; i < 9; i++ {
		out = append(out, rnnBenchWorkload(suite, i, rnnInf[i], false, false))
	}
	for i := 0; i < 10; i++ {
		out = append(out, rnnBenchWorkload(suite, i, rnnInf[i], false, true))
	}
	rnnTrain := [5][3]int{
		{880, 32, 25}, {1024, 64, 12}, {1280, 64, 25}, {512, 32, 12}, {1536, 32, 12},
	}
	for i := 0; i < 5; i++ {
		out = append(out, rnnBenchWorkload(suite, i, rnnTrain[i], true, false))
		out = append(out, rnnBenchWorkload(suite, i, rnnTrain[i], true, true))
	}

	return out
}

func variantTag(train, tensor bool) string {
	tag := "inf"
	if train {
		tag = "train"
	}
	if tensor {
		tag += "_tc"
	}
	return tag
}

func convBenchWorkload(suite string, idx int, s [6]int, train, tensor bool) *Workload {
	name := fmt.Sprintf("conv_%s_%d", variantTag(train, tensor), idx)
	batch, c, h, w, k, r := s[0], s[1], s[2], s[3], s[4], s[5]
	var seq []trace.KernelDesc
	reps := 5
	for rep := 0; rep < reps; rep++ {
		fw := convKernel("volta_scudnn_128x64", batch, c, h, w, k, r, tensor)
		fw.Seed = seedOf(name+"fw", uint64(rep))
		seq = append(seq, fw)
		if train {
			bd := convKernel("volta_scudnn_bwd_data", batch, k, h, w, c, r, tensor)
			bd.Seed = seedOf(name+"bd", uint64(rep))
			bf := convKernel("volta_scudnn_bwd_filter", batch, c, h, w, k, r, tensor)
			bf.Seed = seedOf(name+"bf", uint64(rep))
			seq = append(seq, bd, bf)
		}
	}
	seq = append(seq, elementwiseKernel("add_bias", batch*k*h*w, 2))
	wl := fixedSeq(suite, name, seq)
	// The cudnnFind autotuner picks different algorithms under the
	// profiler, so kernel sequences mismatch between runs (paper §5.2.2,
	// §5.2.3 and the artifact appendix): CUDA training loses its
	// simulation columns, TensorCore training its Turing/Ampere silicon
	// columns.
	if train && !tensor {
		wl.Quirk = "cudnn-autotune"
	}
	if train && tensor {
		wl.Quirk = "cudnn-autotune-tc"
	}
	return wl
}

func gemmBenchWorkload(suite string, idx int, s [3]int, train, tensor bool) *Workload {
	name := fmt.Sprintf("gemm_%s_%d", variantTag(train, tensor), idx)
	m, n, k := s[0], s[1], s[2]
	var seq []trace.KernelDesc
	reps := 4
	for rep := 0; rep < reps; rep++ {
		fw := gemmKernel("volta_sgemm_128x128", m, n, k, tensor)
		fw.Seed = seedOf(name+"fw", uint64(rep))
		seq = append(seq, fw)
		if train {
			bw := gemmKernel("volta_sgemm_128x128_tn", k, n, m, tensor)
			bw.Seed = seedOf(name+"bw", uint64(rep))
			seq = append(seq, bw)
		}
	}
	return fixedSeq(suite, name, seq)
}

func rnnBenchWorkload(suite string, idx int, s [3]int, train, tensor bool) *Workload {
	name := fmt.Sprintf("rnn_%s_%d", variantTag(train, tensor), idx)
	hidden, batch, steps := s[0], s[1], s[2]
	perStep := 2 // gate GEMM + pointwise
	n := steps * perStep
	if train {
		n *= 2 // forward + backward passes
	}
	return New(suite, name, n, func(i int) trace.KernelDesc {
		step := i / perStep
		if i%perStep == 0 {
			k := rnnCellKernel("volta_sgemm_rnn_cell", hidden, batch, tensor)
			k.Seed = seedOf(name+"cell", uint64(step))
			return k
		}
		k := elementwiseKernel("pointwise_gates", hidden*batch*4, 12)
		k.Seed = seedOf(name+"gates", uint64(step))
		return k
	})
}
