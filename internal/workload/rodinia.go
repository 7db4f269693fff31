package workload

import "pka/internal/trace"

// fixedSeq builds a workload from a fully materialized kernel sequence.
func fixedSeq(suite, name string, seq []trace.KernelDesc) *Workload {
	return New(suite, name, len(seq), func(i int) trace.KernelDesc { return seq[i] })
}

// rodinia returns the Rodinia 3.1 suite: short-running kernels sized so
// that full simulation completes, plus the heavily multi-kernel apps
// (gaussian, nw, srad, streamcluster) that make Principal Kernel Selection
// shine at 100-700x.
func rodinia() []*Workload {
	const suite = "Rodinia"
	var out []*Workload

	// b+tree: two query kernels over a pre-built tree.
	out = append(out, fixedSeq(suite, "b+tree", []trace.KernelDesc{
		treeSearch("findK", 10000),
		treeSearch("findRangeK", 10000),
	}))

	// backprop: one forward and one weight-adjust layer pass.
	out = append(out, fixedSeq(suite, "backprop", []trace.KernelDesc{
		layerForward("bpnn_layerforward", 65536),
		layerForward("bpnn_adjust_weights", 65536),
	}))

	// BFS at three graph scales. Frontier grows then collapses; per-launch
	// grids differ wildly, and the biggest launch dominates runtime.
	out = append(out, bfsWorkload(suite, "bfs1MW", 1_000_000, 14))
	out = append(out, bfsWorkload(suite, "bfs4096", 4096, 8))
	out = append(out, bfsWorkload(suite, "bfs65536", 65536, 10))

	// dwt2d: multi-level wavelet decomposition.
	out = append(out, dwtWorkload(suite, "dwt2d_192", 192, 1))
	out = append(out, dwtWorkload(suite, "dwt2d_rgb", 1024, 3))

	// gaussian elimination: 2 kernels (Fan1/Fan2) per column, columns-1
	// iterations; the poster child for kernel-count reduction.
	out = append(out, gaussianWorkload(suite, "gauss_208", 208))
	out = append(out, gaussianWorkload(suite, "gauss_mat4", 4))
	out = append(out, gaussianWorkload(suite, "gauss_s16", 16))
	out = append(out, gaussianWorkload(suite, "gauss_s64", 64))
	out = append(out, gaussianWorkload(suite, "gauss_s256", 256))

	// hotspot: a single fused temperature-propagation kernel.
	out = append(out, fixedSeq(suite, "hots_1024", []trace.KernelDesc{
		stencilKernel("calculate_temp", 1024, 1024, 5),
	}))
	out = append(out, fixedSeq(suite, "hots_512", []trace.KernelDesc{
		stencilKernel("calculate_temp", 512, 512, 5),
	}))

	// hybridsort: bucket split, histogram, then merge passes.
	out = append(out, hybridsortWorkload(suite, "hstort_500k", 500_000, 10))
	out = append(out, hybridsortWorkload(suite, "hstort_r", 4_000_000, 14))

	// kmeans: alternating assignment and centroid phases.
	out = append(out, kmeansWorkload(suite, "kmeans_28k", 28_000, 3))
	out = append(out, kmeansWorkload(suite, "kmeans_819k", 819_200, 4))
	out = append(out, kmeansWorkload(suite, "kmeans_oi", 494_020, 4))

	// lavaMD: one large n-body-style kernel.
	out = append(out, fixedSeq(suite, "lavaMD", []trace.KernelDesc{
		nbodyKernel("kernel_gpu_cuda", 6000),
	}))

	// lud: diagonal/perimeter/internal kernel triple per step with a
	// shrinking active matrix.
	out = append(out, ludWorkload(suite, "lud_i", 1024))
	out = append(out, ludWorkload(suite, "lud_256", 256))

	// myocyte: the tracing/profiling runs launch mismatched kernel counts
	// (paper Section 5.2.3); excluded from result columns.
	myo := fixedSeq(suite, "myocyte", []trace.KernelDesc{
		odeSolver("solver_2", 1)})
	myo.Quirk = "trace-mismatch"
	out = append(out, myo)

	// nn: single nearest-neighbor distance kernel.
	out = append(out, fixedSeq(suite, "nn", []trace.KernelDesc{
		elementwiseKernel("euclid", 42764, 12),
	}))

	// nw: needleman-wunsch anti-diagonal wavefront; grids grow to the
	// diagonal then shrink, two kernels alternating.
	out = append(out, nwWorkload(suite, "nw", 2048))

	// streamcluster: pgain evaluated hundreds of times on similar grids.
	out = append(out, scWorkload(suite, "scluster", 65536, 600))

	// srad_v1: two alternating diffusion kernels over 100 iterations.
	out = append(out, sradWorkload(suite, "srad_v1", 502, 458, 100))

	// particlefilter: per-frame likelihood/resample kernel quartet.
	out = append(out, pfilterWorkload(suite, "particlefilter", 10))

	return out
}

func treeSearch(name string, queries int) trace.KernelDesc {
	k := graphKernel(name, queries, 64<<20, 0.3)
	k.DivergenceEff = 0.7
	k.Mix.GlobalAtomics = 0
	k.Mix.GlobalLoads = 12
	return k
}

func layerForward(name string, units int) trace.KernelDesc {
	k := reductionKernel(name, units)
	k.Mix.Compute += 10
	return k
}

func bfsWorkload(suite, name string, nodes, depth int) *Workload {
	// Frontier profile: exponential growth to a peak at depth/2, then decay.
	frontiers := make([]int, 0, 2*depth)
	f := 64
	for d := 0; d < depth; d++ {
		if d < depth/2 {
			f *= 4
		} else {
			f /= 3
		}
		if f > nodes {
			f = nodes
		}
		if f < 32 {
			f = 32
		}
		frontiers = append(frontiers, f, f) // Kernel and Kernel2 per level
	}
	seq := make([]trace.KernelDesc, len(frontiers))
	for i, fr := range frontiers {
		kname := "Kernel"
		if i%2 == 1 {
			kname = "Kernel2"
		}
		seq[i] = graphKernel(kname, fr, nodes*24, 1.0)
		seq[i].Seed = seedOf(name+kname, uint64(i))
	}
	return fixedSeq(suite, name, seq)
}

func dwtWorkload(suite, name string, dim, channels int) *Workload {
	var seq []trace.KernelDesc
	for c := 0; c < channels; c++ {
		for d := dim; d >= 32; d /= 2 {
			seq = append(seq, stencilKernel("fdwt53Kernel", d, d, 9))
			seq = append(seq, elementwiseKernel("c_CopySrcToComponents", d*d, 4))
		}
	}
	return fixedSeq(suite, name, seq)
}

func gaussianWorkload(suite, name string, n int) *Workload {
	iters := n - 1
	if iters < 1 {
		iters = 1
	}
	return New(suite, name, 2*iters, func(i int) trace.KernelDesc {
		if i%2 == 0 {
			k := elementwiseKernel("Fan1", n, 6)
			k.Seed = seedOf(name+"fan1", uint64(i))
			return k
		}
		k := stencilKernel("Fan2", n, n, 2)
		k.Seed = seedOf(name+"fan2", uint64(i))
		return k
	})
}

func hybridsortWorkload(suite, name string, n, passes int) *Workload {
	var seq []trace.KernelDesc
	seq = append(seq, histogramKernel("histogram1024Kernel", n, 1024))
	seq = append(seq, elementwiseKernel("bucketprefixoffset", 1024*128, 6))
	seq = append(seq, histogramKernel("bucketsort", n, 1024))
	for p := 0; p < passes; p++ {
		seq = append(seq, mergeKernel("mergeSortPass", n/(1<<p)))
	}
	seq = append(seq, elementwiseKernel("mergepack", n, 3))
	return fixedSeq(suite, name, seq)
}

func mergeKernel(name string, n int) trace.KernelDesc {
	if n < 1024 {
		n = 1024
	}
	k := reductionKernel(name, n)
	k.DivergenceEff = 0.65
	k.StridedFraction = 0.6
	return k
}

func kmeansWorkload(suite, name string, points, iters int) *Workload {
	var seq []trace.KernelDesc
	seq = append(seq, elementwiseKernel("invert_mapping", points, 3))
	for i := 0; i < iters; i++ {
		assign := matvecKernel("kmeansPoint", 1400)
		assign.Grid = trace.D1((points + 255) / 256)
		assign.WorkingSetBytes = int64(points) * 34 * 4
		assign.Seed = seedOf(name+"assign", uint64(i))
		seq = append(seq, assign)
	}
	return fixedSeq(suite, name, seq)
}

func nbodyKernel(name string, boxes int) trace.KernelDesc {
	return trace.KernelDesc{
		Name:              name,
		Grid:              trace.D1(boxes),
		Block:             trace.D1(128),
		RegsPerThread:     64,
		SharedMemPerBlock: 12 * 1024,
		Mix: trace.InstrMix{
			GlobalLoads: 40, GlobalStores: 4,
			SharedLoads: 160, SharedStores: 8,
			Compute: 700,
		},
		CoalescingFactor: 4,
		WorkingSetBytes:  int64(boxes) * 128 * 16 * 4,
		StridedFraction:  0.85,
		DivergenceEff:    0.95,
		Seed:             seedOf(name, uint64(boxes)),
	}
}

func ludWorkload(suite, name string, n int) *Workload {
	const tile = 16
	steps := n / tile
	return New(suite, name, 3*steps, func(i int) trace.KernelDesc {
		step := i / 3
		active := n - step*tile
		if active < tile {
			active = tile
		}
		switch i % 3 {
		case 0:
			k := reductionKernel("lud_diagonal", tile*tile)
			k.Grid = trace.D1(1)
			k.Seed = seedOf(name+"diag", uint64(step))
			return k
		case 1:
			k := stencilKernel("lud_perimeter", active, tile, 4)
			k.Seed = seedOf(name+"perim", uint64(step))
			return k
		default:
			k := gemmKernel("lud_internal", active, active, tile, false)
			k.Seed = seedOf(name+"internal", uint64(step))
			return k
		}
	})
}

func odeSolver(name string, workloads int) trace.KernelDesc {
	k := elementwiseKernel(name, workloads*512, 400)
	k.DivergenceEff = 0.35
	k.BlockImbalance = 0.6
	return k
}

func nwWorkload(suite, name string, n int) *Workload {
	const tile = 16
	diags := n / tile
	return New(suite, name, 2*diags, func(i int) trace.KernelDesc {
		d := i / 2
		width := d + 1
		if d >= diags/2 {
			width = diags - d
		}
		if width < 1 {
			width = 1
		}
		kname := "needle_cuda_shared_1"
		if i%2 == 1 {
			kname = "needle_cuda_shared_2"
		}
		k := trace.KernelDesc{
			Name:              kname,
			Grid:              trace.D1(width),
			Block:             trace.D1(tile),
			RegsPerThread:     24,
			SharedMemPerBlock: (tile + 1) * (tile + 1) * 4 * 2,
			Mix: trace.InstrMix{
				GlobalLoads: 3, GlobalStores: 2,
				SharedLoads: 3 * tile, SharedStores: tile,
				Compute: 6 * tile,
			},
			CoalescingFactor: 6,
			WorkingSetBytes:  int64(n) * int64(n) * 4,
			StridedFraction:  0.8,
			DivergenceEff:    0.9,
			Seed:             seedOf(name+kname, uint64(d)),
		}
		return k
	})
}

func scWorkload(suite, name string, points, launches int) *Workload {
	return New(suite, name, launches, func(i int) trace.KernelDesc {
		k := matvecKernel("kernel_compute_cost", 256)
		k.Grid = trace.D1((points + 511) / 512)
		k.Block = trace.D1(512)
		k.WorkingSetBytes = int64(points) * 72
		k.DivergenceEff = 0.75
		k.Seed = seedOf(name, uint64(i))
		return k
	})
}

func sradWorkload(suite, name string, rows, cols, iters int) *Workload {
	return New(suite, name, 2*iters, func(i int) trace.KernelDesc {
		kname := "srad_cuda_1"
		if i%2 == 1 {
			kname = "srad_cuda_2"
		}
		k := stencilKernel(kname, rows, cols, 4)
		k.Seed = seedOf(name+kname, uint64(i/2))
		return k
	})
}

func pfilterWorkload(suite, name string, frames int) *Workload {
	var seq []trace.KernelDesc
	for f := 0; f < frames; f++ {
		seq = append(seq,
			elementwiseKernel("likelihood_kernel", 40000, 40),
			reductionKernel("sum_kernel", 40000),
			elementwiseKernel("normalize_weights_kernel", 40000, 8),
			graphKernel("find_index_kernel", 40000, 40000*8, 0.5),
		)
	}
	return fixedSeq(suite, name, seq)
}
