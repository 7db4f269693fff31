package workload

import "pka/internal/trace"

// MLPerfScale shrinks the MLPerf kernel-launch counts relative to the
// paper's runs (SSD Training launched 5.3 million kernels). The default
// 1/5 scale keeps the structural story intact — these are still the only
// workloads with 10^5-10^6 launches, two-level profiling still triggers —
// while full silicon passes stay in seconds. EXPERIMENTS.md records the
// scale used for every measured number.
const MLPerfScale = 5

// mlperf returns the seven reference-implementation workloads studied:
// three ResNet-50 inference batch sizes, SSD training, GNMT training, BERT
// offline inference, and 3D-Unet inference.
func mlperf() []*Workload {
	return []*Workload{
		mlperfFromTemplate("bert_offline_inf", bertIteration(), 3_500_000/MLPerfScale),
		mlperfFromTemplate("ssd_training", ssdIteration(), 5_300_000/MLPerfScale),
		mlperfFromTemplate("resnet50_64b_inf", resnetIteration(64), 145_000/MLPerfScale),
		mlperfFromTemplate("resnet50_128b_inf", resnetIteration(128), 72_000/MLPerfScale),
		mlperfFromTemplate("resnet50_256b_inf", resnetIteration(256), 36_000/MLPerfScale),
		mlperfFromTemplate("gnmt_training", gnmtIteration(), 2_400_000/MLPerfScale),
		mlperfFromTemplate("3dunet_inf", unetIteration(), 14_000/MLPerfScale),
	}
}

// mlperfFromTemplate tiles a per-iteration kernel template to n launches.
// Kernel i is template[i % len] with a launch-unique seed, so instances of
// the same layer are near-identical (they should cluster) while address
// streams stay distinct.
func mlperfFromTemplate(name string, template []trace.KernelDesc, n int) *Workload {
	if n < len(template) {
		n = len(template)
	}
	return New("MLPerf", name, n, func(i int) trace.KernelDesc {
		k := template[i%len(template)]
		k.Seed ^= uint64(i) * 0x9E3779B97F4A7C15
		return k
	})
}

// resnetIteration builds one inference iteration of ResNet-50 at the given
// batch size. Kernel names follow the per-group composition of the paper's
// Figure 4: cuDNN convolution variants, Winograd kernels, fused ReLU
// kernels at several tensor sizes, batch-norm, pooling, the final GEMM and
// softmax, plus framework glue kernels.
func resnetIteration(batch int) []trace.KernelDesc {
	var seq []trace.KernelDesc
	add := func(k trace.KernelDesc) { seq = append(seq, k) }

	// Stem: 7x7 conv, bn, relu, maxpool.
	add(convKernel("implicit_con", batch, 3, 112, 112, 64, 7, true))
	add(elementwiseKernel("bn_fw_inf", batch*64*112*112/4, 6))
	add(elementwiseKernel("big_relu_interior", batch*64*112*112/4, 2))
	add(stencilKernel("MaxPool2D", 112, 112*batch/4, 9))

	// Four residual stages; channel counts double, spatial dims halve.
	stage := func(c, h, blocks int, reluName string) {
		for b := 0; b < blocks; b++ {
			add(convKernel("implicit_con", batch, c, h, h, c, 1, true))
			add(convKernel("winograd_big", batch, c, h, h, c, 3, true))
			add(elementwiseKernel("genWinograd", batch*c*h*h/8, 4))
			add(convKernel("implicit_con", batch, c, h, h, 4*c, 1, true))
			add(elementwiseKernel("bn_fw_inf", batch*c*h*h/4, 6))
			add(elementwiseKernel(reluName, batch*c*h*h/4, 2))
			add(elementwiseKernel("SimpleBinary", batch*c*h*h/4, 3))
		}
	}
	stage(64, 56, 3, "tiny_relu_1")
	stage(128, 28, 4, "tiny_relu_2")
	stage(256, 14, 6, "med_relu_small")
	stage(512, 7, 3, "tiny_relu_interior")

	// Head: pooling, FC, softmax and glue.
	add(reductionKernel("RowwiseReduce", batch*2048))
	add(gemmKernel("sgemm", batch, 1000, 2048, false))
	add(gemmKernel("gemv2N", batch, 1000, 2048, false))
	add(reductionKernel("splitKreduce", batch*1000))
	add(elementwiseKernel("somax_fw", batch*1000, 10))
	add(elementwiseKernel("op_tensor3", batch*2048, 3))
	add(elementwiseKernel("op_tensor4", batch*2048, 4))
	add(elementwiseKernel("Relu", batch*2048, 2))
	add(elementwiseKernel("RowwiseBinary", batch*1000, 3))
	add(elementwiseKernel("ComputeArg", batch*1000, 5))
	add(elementwiseKernel("computeOffsets", batch*64, 3))
	return seq
}

// ssdIteration builds one SSD-300 training step: a ResNet-34-ish backbone
// forward, detection heads, loss, and backward/optimizer kernels. Training
// steps launch far more (and more varied) kernels than inference.
func ssdIteration() []trace.KernelDesc {
	const batch = 16
	var seq []trace.KernelDesc
	add := func(k trace.KernelDesc) { seq = append(seq, k) }

	stage := func(c, h, blocks int) {
		for b := 0; b < blocks; b++ {
			add(convKernel("volta_scudnn_fw", batch, c, h, h, c, 3, true))
			add(elementwiseKernel("bn_fw_tr", batch*c*h*h/4, 8))
			add(elementwiseKernel("relu_fw", batch*c*h*h/4, 2))
			// Backward pair + weight gradients.
			add(convKernel("volta_scudnn_bwd_data", batch, c, h, h, c, 3, true))
			add(convKernel("volta_scudnn_bwd_filter", batch, c, h, h, c, 3, true))
			add(elementwiseKernel("bn_bw", batch*c*h*h/4, 10))
		}
	}
	stage(64, 75, 3)
	stage(128, 38, 4)
	stage(256, 19, 6)
	stage(512, 10, 3)

	// Detection heads, loss and optimizer sweep.
	for head := 0; head < 6; head++ {
		add(convKernel("loc_head_conv", batch, 256, 10, 10, 24, 3, true))
		add(convKernel("conf_head_conv", batch, 256, 10, 10, 324, 3, true))
	}
	add(elementwiseKernel("smooth_l1_loss", batch*8732*4, 14))
	add(reductionKernel("cross_entropy_loss", batch*8732))
	add(graphKernel("nms_kernel", batch*8732/4, 8732*16, 0.9))
	for p := 0; p < 8; p++ {
		add(elementwiseKernel("sgd_momentum_update", 3_200_000, 6))
	}
	return seq
}

// bertIteration builds one BERT-Large offline-inference batch: 24
// transformer layers of QKV projections, attention, and MLP blocks.
func bertIteration() []trace.KernelDesc {
	const (
		seqLen = 384
		hidden = 1024
		batch  = 2
	)
	var seq []trace.KernelDesc
	add := func(k trace.KernelDesc) { seq = append(seq, k) }
	for layer := 0; layer < 24; layer++ {
		add(gemmKernel("volta_h884gemm_qkv", batch*seqLen, 3*hidden, hidden, true))
		add(gemmKernel("volta_h884gemm_attn_score", batch*16*seqLen, seqLen, 64, true))
		add(elementwiseKernel("softmax_warp", batch*16*seqLen*seqLen/64, 8))
		add(gemmKernel("volta_h884gemm_attn_ctx", batch*16*seqLen, 64, seqLen, true))
		add(gemmKernel("volta_h884gemm_proj", batch*seqLen, hidden, hidden, true))
		add(elementwiseKernel("layernorm_fw", batch*seqLen*hidden/16, 12))
		add(gemmKernel("volta_h884gemm_mlp1", batch*seqLen, 4*hidden, hidden, true))
		add(elementwiseKernel("gelu_fw", batch*seqLen*4*hidden/16, 10))
		add(gemmKernel("volta_h884gemm_mlp2", batch*seqLen, hidden, 4*hidden, true))
		add(elementwiseKernel("layernorm_fw2", batch*seqLen*hidden/16, 12))
		add(elementwiseKernel("residual_add", batch*seqLen*hidden/16, 2))
		add(elementwiseKernel("dropout_mask", batch*seqLen*hidden/16, 4))
	}
	add(gemmKernel("squad_output_gemm", batch*seqLen, 2, hidden, false))
	return seq
}

// gnmtIteration builds one GNMT training step: bidirectional LSTM encoder,
// attention, LSTM decoder, and the giant vocabulary projection, each with
// backward passes.
func gnmtIteration() []trace.KernelDesc {
	const (
		hidden = 1024
		batch  = 64
		steps  = 25
	)
	var seq []trace.KernelDesc
	add := func(k trace.KernelDesc) { seq = append(seq, k) }
	for layer := 0; layer < 4; layer++ {
		for t := 0; t < steps; t++ {
			add(rnnCellKernel("lstm_cell_fw", hidden, batch, true))
			add(elementwiseKernel("lstm_pointwise", batch*hidden*4, 14))
		}
	}
	for t := 0; t < steps; t++ {
		add(gemmKernel("attention_score", batch, steps, hidden, true))
		add(elementwiseKernel("attention_softmax", batch*steps, 8))
		add(rnnCellKernel("lstm_cell_dec", hidden, batch, true))
	}
	add(gemmKernel("vocab_projection", batch*steps, 4000, hidden, true))
	add(reductionKernel("nll_loss", batch*steps*100))
	// Backward: roughly mirror the forward cell count.
	for layer := 0; layer < 4; layer++ {
		for t := 0; t < steps; t++ {
			add(rnnCellKernel("lstm_cell_bw", hidden, batch, true))
			add(elementwiseKernel("lstm_pointwise_bw", batch*hidden*4, 16))
		}
	}
	for p := 0; p < 6; p++ {
		add(elementwiseKernel("adam_update", 8_000_000, 10))
	}
	return seq
}

// unetIteration builds one 3D-Unet inference pass over a BRATS-style
// volume: large 3D convolutions in an encoder-decoder with skips.
func unetIteration() []trace.KernelDesc {
	const batch = 1
	var seq []trace.KernelDesc
	add := func(k trace.KernelDesc) { seq = append(seq, k) }
	dims := []struct{ c, h int }{{32, 128}, {64, 64}, {128, 32}, {256, 16}}
	for _, d := range dims { // encoder
		add(convKernel("conv3d_fw", batch, d.c, d.h, d.h*4, d.c*2, 3, true))
		add(elementwiseKernel("instancenorm_fw", batch*d.c*d.h*d.h*4, 10))
		add(elementwiseKernel("leaky_relu", batch*d.c*d.h*d.h*4, 2))
		add(stencilKernel("maxpool3d", d.h, d.h*2, 27))
	}
	for i := len(dims) - 1; i >= 0; i-- { // decoder
		d := dims[i]
		add(convKernel("conv3d_transpose", batch, d.c*2, d.h, d.h*4, d.c, 3, true))
		add(elementwiseKernel("skip_concat", batch*d.c*d.h*d.h*4, 3))
		add(convKernel("conv3d_fw_dec", batch, d.c, d.h, d.h*4, d.c, 3, true))
		add(elementwiseKernel("instancenorm_dec", batch*d.c*d.h*d.h*4, 10))
	}
	add(elementwiseKernel("softmax_volume", batch*4*128*128*128/8, 8))
	return seq
}
