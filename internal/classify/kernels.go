package classify

import "cmp"

// mlpKernels is one implementation of the MLP's three dense training loops.
// Every set does the same float operations on the same operands in the same
// order, so every set fits the same bits; they differ in speed and, through
// transposed, in how w1 is laid out while Fit runs.
type mlpKernels struct {
	name string
	// transposed: the set reads and writes w1 as dim × hidden, not hidden ×
	// dim. Fit transposes into that layout and back, so m.w1 is always
	// hidden × dim.
	transposed bool
	// hiddenForward sets hidden to the ReLU of b1 + w1·x, each sum starting
	// from its bias and adding its terms in index order.
	hiddenForward func(hidden *[mlpHidden]float64, w1 []float64, b1 *[mlpHidden]float64, x []float64)
	// outputBackward sets dHidden to w2ᵀ·probs (the gradient reaching the
	// hidden layer), summed in class order from +0, each term from a weight
	// before its update, and steps every w2 weight by -lr·probs[c]·hidden[h].
	outputBackward func(dHidden *[mlpHidden]float64, w2 []float64, hidden *[mlpHidden]float64, probs []float64, lr float64)
	// hiddenUpdate steps w1 and b1 of every hidden unit the ReLU let through
	// by -lr·dHidden[h]·x and -lr·dHidden[h]. A unit whose hidden value is
	// <= 0 (either zero) is skipped, and one that is NaN is not.
	hiddenUpdate func(w1 []float64, b1, hidden, dHidden *[mlpHidden]float64, x []float64, lr float64)
}

// goKernels is the reference set: plain Go, the loops every other set is
// tested against.
var goKernels = &mlpKernels{
	name:           "go",
	hiddenForward:  hiddenForwardGo,
	outputBackward: outputBackwardGo,
	hiddenUpdate:   hiddenUpdateGo,
}

// kernels is the set MLP.Fit trains through, chosen once, at init: AVX2
// where the CPU and OS run it (avx2Kernels is nil elsewhere), Go otherwise.
// Tests switch it to run both.
var kernels = cmp.Or(avx2Kernels, goKernels)

func hiddenForwardGo(hidden *[mlpHidden]float64, w1 []float64, b1 *[mlpHidden]float64, x []float64) {
	affine(hidden[:], w1, len(x), b1[:], 1, x)
	for h, sum := range hidden {
		if sum < 0 { // ReLU; not max(sum, 0), which turns a -0 sum into +0
			hidden[h] = 0
		}
	}
}

// outputBackwardGo runs four classes side by side: dHidden still takes its
// class terms in class order, each from the weight before that class's update.
func outputBackwardGo(dHidden *[mlpHidden]float64, w2 []float64, hidden *[mlpHidden]float64, probs []float64, lr float64) {
	const nh = mlpHidden
	*dHidden = [mlpHidden]float64{}
	numClasses := len(probs)
	c := 0
	for ; c+4 <= numClasses; c += 4 {
		g0, g1, g2, g3 := probs[c], probs[c+1], probs[c+2], probs[c+3]
		l0, l1, l2, l3 := lr*g0, lr*g1, lr*g2, lr*g3
		r0, r1, r2, r3 := w2[c*nh:][:nh], w2[(c+1)*nh:][:nh], w2[(c+2)*nh:][:nh], w2[(c+3)*nh:][:nh]
		for h, v := range hidden {
			a0, a1, a2, a3 := r0[h], r1[h], r2[h], r3[h]
			d := dHidden[h]
			d += g0 * a0
			d += g1 * a1
			d += g2 * a2
			d += g3 * a3
			dHidden[h] = d
			r0[h] = a0 - l0*v
			r1[h] = a1 - l1*v
			r2[h] = a2 - l2*v
			r3[h] = a3 - l3*v
		}
	}
	for ; c < numClasses; c++ {
		g := probs[c]
		l := lr * g
		r := w2[c*nh:][:nh]
		for h, v := range hidden {
			dHidden[h] += g * r[h]
			r[h] -= l * v
		}
	}
}

func hiddenUpdateGo(w1 []float64, b1, hidden, dHidden *[mlpHidden]float64, x []float64, lr float64) {
	dim := len(x)
	for h, v := range hidden {
		if v <= 0 {
			continue
		}
		l := lr * dHidden[h]
		w := w1[h*dim:][:dim]
		for j, xj := range x {
			w[j] -= l * xj
		}
		b1[h] -= l
	}
}
