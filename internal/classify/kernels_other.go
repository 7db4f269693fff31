//go:build !amd64

package classify

// avx2Kernels exists on amd64 only; every other target trains through
// goKernels.
var avx2Kernels *mlpKernels
