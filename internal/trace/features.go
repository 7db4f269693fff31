package trace

import "pka/internal/gpu"

// NumFeatures is the length of the Table-2 feature vector.
const NumFeatures = 12

// FeatureNames lists the microarchitecture-agnostic metrics of the paper's
// Table 2, in vector order, with their Nsight Compute counterparts.
var FeatureNames = [NumFeatures]string{
	"coalesced_global_loads",  // l1tex__t_sectors_pipe_lsu_mem_global_op_ld.sum
	"coalesced_global_stores", // l1tex__t_sectors_pipe_lsu_mem_global_op_st.sum
	"coalesced_local_loads",   // l1tex__t_sectors_pipe_lsu_mem_local_op_ld.sum
	"thread_global_loads",     // smsp__inst_executed_op_global_ld.sum
	"thread_global_stores",    // smsp__inst_executed_op_global_st.sum
	"thread_local_loads",      // smsp__inst_executed_op_local_ld.sum
	"thread_shared_loads",     // smsp__inst_executed_op_shared_ld.sum
	"thread_shared_stores",    // smsp__inst_executed_op_shared_st.sum
	"thread_global_atomics",   // smsp__sass_inst_executed_op_global_atom.sum
	"instructions",            // smsp__inst_executed.sum
	"divergence_efficiency",   // smsp__thread_inst_executed_per_inst_executed.ratio
	"thread_blocks",           // launch_grid_size
}

// AppendFeatureVector appends the kernel's Table-2 metric vector, as
// detailed profiling on the given device would report it, to dst, so a
// caller walking launch after launch can reuse one buffer. Counts scale with
// the generation's ISA representation, reproducing the paper's caveat that
// instruction makeup varies slightly across machine ISAs; the divergence
// ratio and grid size are ISA-independent.
func (k *KernelDesc) AppendFeatureVector(dst []float64, dev gpu.Device) []float64 {
	warps := float64(k.Grid.Count()) * float64(k.WarpsPerBlock())
	threads := float64(k.Threads()) * k.DivergenceEff // executed thread-instruction scale
	isa := dev.ISAScale

	return append(dst,
		warps*float64(k.Mix.GlobalLoads)*k.CoalescingFactor*isa,
		warps*float64(k.Mix.GlobalStores)*k.CoalescingFactor*isa,
		warps*float64(k.Mix.LocalLoads)*k.CoalescingFactor*isa,
		threads*float64(k.Mix.GlobalLoads)*isa,
		threads*float64(k.Mix.GlobalStores)*isa,
		threads*float64(k.Mix.LocalLoads)*isa,
		threads*float64(k.Mix.SharedLoads)*isa,
		threads*float64(k.Mix.SharedStores)*isa,
		threads*float64(k.Mix.GlobalAtomics)*isa,
		warps*float64(k.Mix.Total())*isa,
		k.DivergenceEff*float64(dev.WarpSize),
		float64(k.Grid.Count()),
	)
}
