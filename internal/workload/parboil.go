package workload

import "pka/internal/trace"

// parboil returns the Parboil suite: scientific/throughput kernels with a
// mix of single-launch and heavily iterated applications.
func parboil() []*Workload {
	const suite = "Parboil"
	var out []*Workload

	// bfs: one dominant expansion launch plus small frontier launches.
	out = append(out, bfsWorkload(suite, "bfs", 1_000_000, 12))

	// cutcp: cutoff Coulomb potential — three kernel shapes with counts
	// 2/3/6 (paper Table 3).
	var cutcp []trace.KernelDesc
	for i := 0; i < 2; i++ {
		cutcp = append(cutcp, stencilKernel("cuda_cutoff_potential_lattice", 528, 528, 8))
	}
	for i := 0; i < 3; i++ {
		cutcp = append(cutcp, elementwiseKernel("reset_atoms", 100000, 4))
	}
	for i := 0; i < 6; i++ {
		k := nbodyKernel("cutoff_lattice_block", 1200)
		k.Seed = seedOf("cutcp6", uint64(i))
		cutcp = append(cutcp, k)
	}
	out = append(out, fixedSeq(suite, "cutcp", cutcp))

	// histo: four distinct phases iterated 20 times (Table 3: groups of
	// 20/20/20/20 with kernels 0..3 selected). The phases differ in
	// atomic density and working set, which is what keeps them in
	// separate clusters.
	prescan := histogramKernel("histo_prescan_kernel", 996*1040, 256)
	prescan.Mix.GlobalAtomics = 0
	prescan.Mix.Compute = 24
	main := histogramKernel("histo_main_kernel", 996*1040, 4096)
	main.Mix.GlobalAtomics = 5
	main.Mix.SharedLoads = 8
	main.DivergenceEff = 0.6
	final := elementwiseKernel("histo_final_kernel", 4096*256, 3)
	final.Mix.GlobalStores = 3
	final.StridedFraction = 0.99
	var histo []trace.KernelDesc
	for iter := 0; iter < 20; iter++ {
		histo = append(histo,
			prescan,
			elementwiseKernel("histo_intermediates_kernel", 996*1040, 6),
			main,
			final,
		)
	}
	out = append(out, fixedSeq(suite, "histo", histo))

	// mri-q: three phases, FFT-like plus point-wise.
	out = append(out, fixedSeq(suite, "mri", []trace.KernelDesc{
		elementwiseKernel("ComputePhiMag_GPU", 3072, 6),
		matvecKernel("ComputeQ_GPU_1", 2048),
		matvecKernel("ComputeQ_GPU_2", 2048),
	}))

	// sad: three distinct single launches (no reduction possible).
	out = append(out, fixedSeq(suite, "sad", []trace.KernelDesc{
		stencilKernel("mb_sad_calc", 704, 528, 16),
		reductionKernel("larger_sad_calc_8", 704*528),
		reductionKernel("larger_sad_calc_16", 704*528/4),
	}))

	// sgemm: one large matrix multiply.
	out = append(out, fixedSeq(suite, "sgemm", []trace.KernelDesc{
		gemmKernel("mysgemmNT", 1024, 1040, 1024, false),
	}))

	// spmv: the same jds_kernel launched 50 times.
	out = append(out, New(suite, "spmv", 50, func(i int) trace.KernelDesc {
		k := spmvKernel("spmv_jds", 146689, 3977139)
		k.Seed = seedOf("parboil-spmv", uint64(i))
		return k
	}))

	// stencil: 7-point 3D Jacobi iterated 100 times.
	out = append(out, New(suite, "stencil", 100, func(i int) trace.KernelDesc {
		k := stencilKernel("block2D_hybrid_coarsen_x", 512, 512, 7)
		k.WorkingSetBytes = 512 * 512 * 64 * 4
		k.Seed = seedOf("parboil-stencil", uint64(i))
		return k
	}))

	return out
}
