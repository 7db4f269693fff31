package classify

// avx2Kernels runs the MLP's training loops four hidden units to a YMM
// register (kernels_amd64.s). Each lane does the Go reference's multiplies
// and adds, in its order, with no fused multiply-add, so the fitted bits are
// the reference's. It is nil unless the CPU has AVX2 and the OS saves the
// YMM registers.
var avx2Kernels = func() *mlpKernels {
	if !hasAVX2() {
		return nil
	}
	return &mlpKernels{
		name:           "avx2",
		transposed:     true,
		hiddenForward:  hiddenForwardAVX2,
		outputBackward: outputBackwardAVX2,
		hiddenUpdate:   hiddenUpdateAVX2,
	}
}()

// hasAVX2 reports whether the CPU has AVX2 and the OS has enabled the XMM
// and YMM state (OSXSAVE, then XCR0 bits 1 and 2).
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// The AVX2 kernels keep w1 as dim × hidden (transposed). Lengths are not
// checked: w1 holds mlpHidden·len(x) weights and w2 mlpHidden·len(probs).

//go:noescape
func hiddenForwardAVX2(hidden *[mlpHidden]float64, w1 []float64, b1 *[mlpHidden]float64, x []float64)

//go:noescape
func outputBackwardAVX2(dHidden *[mlpHidden]float64, w2 []float64, hidden *[mlpHidden]float64, probs []float64, lr float64)

//go:noescape
func hiddenUpdateAVX2(w1 []float64, b1, hidden, dHidden *[mlpHidden]float64, x []float64, lr float64)
