package workload

import "pka/internal/trace"

// polybench returns the PolyBench/GPU suite: dense linear-algebra and
// stencil codes, including the very long single-kernel apps (correlation,
// covariance, syr2k) whose simulation the paper reports in days, and the
// kernel-storm apps (fdtd2d, gramschmidt) where PKS wins 500-700x.
func polybench() []*Workload {
	const suite = "Polybench"
	var out []*Workload

	// 2Dcnn: one 2D convolution sweep.
	out = append(out, fixedSeq(suite, "2Dcnn", []trace.KernelDesc{
		stencilKernel("Convolution2D_kernel", 2048, 2048, 9),
	}))

	// 2mm / 3mm: chained matrix multiplies.
	out = append(out, fixedSeq(suite, "2mm", []trace.KernelDesc{
		gemmKernel("mm2_kernel1", 1024, 1024, 1024, false),
		gemmKernel("mm2_kernel2", 1024, 1024, 1024, false),
	}))
	out = append(out, fixedSeq(suite, "3mm", []trace.KernelDesc{
		gemmKernel("mm3_kernel1", 768, 768, 768, false),
		gemmKernel("mm3_kernel2", 768, 768, 768, false),
		gemmKernel("mm3_kernel3", 768, 768, 768, false),
	}))

	// 3dconvolution: one z-slice kernel per plane.
	out = append(out, New(suite, "3dconvolution", 254, func(i int) trace.KernelDesc {
		k := stencilKernel("convolution3D_kernel", 128, 128, 27)
		k.Seed = seedOf("poly-3dconv", uint64(i))
		return k
	}))

	// atax / bicg / mvt: paired matrix-vector products.
	out = append(out, fixedSeq(suite, "atax", []trace.KernelDesc{
		matvecKernel("atax_kernel1", 16384),
		matvecKernel("atax_kernel2", 16384),
	}))
	out = append(out, fixedSeq(suite, "bicg", []trace.KernelDesc{
		matvecKernel("bicg_kernel1", 16384),
		matvecKernel("bicg_kernel2", 16384),
	}))
	out = append(out, fixedSeq(suite, "mvt", []trace.KernelDesc{
		matvecKernel("mvt_kernel1", 16384),
		matvecKernel("mvt_kernel2", 16384),
	}))

	// correlation / covariance: dominated by one enormous O(n^3)-ish
	// kernel — the workloads whose full simulation takes ~500 hours.
	out = append(out, fixedSeq(suite, "correlation", []trace.KernelDesc{
		elementwiseKernel("mean_kernel", 1024, 30),
		elementwiseKernel("std_kernel", 1024, 40),
		elementwiseKernel("reduce_kernel", 1024*1024, 6),
		bigTriangular("corr_kernel", 1024),
	}))
	out = append(out, fixedSeq(suite, "covariance", []trace.KernelDesc{
		elementwiseKernel("mean_kernel", 1024, 30),
		elementwiseKernel("reduce_kernel", 1024*1024, 6),
		bigTriangular("covar_kernel", 1024),
	}))

	// fdtd2d: 3 kernels per timestep, 500 steps. Two of the kernels are
	// near-identical field updates (they cluster together), the third is
	// distinct — Table 3 reports groups of 1000 and 500.
	out = append(out, New(suite, "fdtd2d", 1500, func(i int) trace.KernelDesc {
		step := i / 3
		var k trace.KernelDesc
		switch i % 3 {
		case 0:
			k = stencilKernel("fdtd_step1_kernel", 192, 192, 3)
		case 1:
			k = stencilKernel("fdtd_step2_kernel", 192, 192, 3)
		default:
			// The third field update does the curl accumulation: far
			// more arithmetic and neighbour traffic than steps 1-2,
			// which is why it forms its own PKS group (Table 3).
			k = stencilKernel("fdtd_step3_kernel", 192, 192, 9)
			k.Mix.Compute += 150
			k.Mix.GlobalLoads += 6
		}
		k.Seed = seedOf("poly-fdtd"+k.Name, uint64(step))
		return k
	}))

	// gemm / gesummv / syrk / syr2k: single launches; syr2k is the
	// 50-day-simulation monster that PKP alone rescues.
	out = append(out, fixedSeq(suite, "gemm", []trace.KernelDesc{
		gemmKernel("gemm_kernel", 1024, 1024, 1024, false),
	}))
	out = append(out, fixedSeq(suite, "gsummv", []trace.KernelDesc{
		matvecKernel("gesummv_kernel", 16384),
	}))
	out = append(out, fixedSeq(suite, "syrk", []trace.KernelDesc{
		bigTriangular("syrk_kernel", 1024),
	}))
	out = append(out, fixedSeq(suite, "syr2k", []trace.KernelDesc{
		bigTriangular("syr2k_kernel", 1280),
	}))

	// gramschmidt: 3 kernels per column over 2048 columns; the column
	// vector shrinks, so instances spread across ~6 natural size groups.
	out = append(out, New(suite, "gramschmidt", 3*2048, func(i int) trace.KernelDesc {
		col := i / 3
		remaining := 2048 - col
		if remaining < 16 {
			remaining = 16
		}
		var k trace.KernelDesc
		switch i % 3 {
		case 0:
			k = reductionKernel("gramschmidt_kernel1", remaining*8)
		case 1:
			k = elementwiseKernel("gramschmidt_kernel2", remaining*8, 8)
		default:
			k = matvecKernel("gramschmidt_kernel3", remaining)
		}
		k.Seed = seedOf("poly-gs"+k.Name, uint64(col))
		return k
	}))

	return out
}

// bigTriangular models the enormous rank-update kernels (syrk, syr2k,
// correlation): every thread walks a long row, so single-kernel runtime is
// huge and intra-kernel (PKP) reduction is the only lever.
func bigTriangular(name string, n int) trace.KernelDesc {
	return trace.KernelDesc{
		Name:             name,
		Grid:             trace.D2(n/32, n/8),
		Block:            trace.D2(32, 8),
		RegsPerThread:    48,
		Mix:              trace.InstrMix{GlobalLoads: n / 8, GlobalStores: 1, Compute: n / 2},
		CoalescingFactor: 4,
		WorkingSetBytes:  int64(n) * int64(n) * 8,
		StridedFraction:  0.97,
		DivergenceEff:    0.98,
		Seed:             seedOf(name, uint64(n)),
	}
}
