package main

// goldenDigests pins the result digest of every simList evaluation (see
// evalOutcome). sim_cold computes them by simulating, warm_batch by reading
// the same outcomes back from disk; both must land on these values, so
// cache temperature cannot change a byte. A change that moves one changed
// the model, not the speed.
var goldenDigests = map[string]uint64{
	"Rodinia/lud_i":              0xe249f0054a311386,
	"Rodinia/dwt2d_rgb":          0x321931c3a6baae9d,
	"Rodinia/kmeans_819k":        0xdb008593d32f15fb,
	"Rodinia/hots_1024":          0xd5a1b56700ec8c46,
	"Parboil/bfs":                0x7ac83e08140bf690,
	"DeepBench/gemm_train_4":     0xf770d5d9ac70873f,
	"Cutlass/1536x256x512_wgemm": 0x039e10e1ac1b1ead,
	"MLPerf/3dunet_inf":          0x1cdddb95c52f4bc4,
}
