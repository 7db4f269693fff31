#include "textflag.h"

// The MLP's training loops, four hidden units (float64 lanes) to a YMM
// register, the 32 units in eight registers Y0–Y7. Every lane does the Go
// reference's IEEE multiplies and adds (kernels.go) in its order: a product
// is rounded before it is added (VMULPD, then VADDPD or VSUBPD, never a
// fused multiply-add), so each lane's result is the scalar one to the bit.
// Each function clears the upper YMM halves (VZEROUPPER) before it returns.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func hiddenForwardAVX2(hidden *[32]float64, w1 []float64, b1 *[32]float64, x []float64)
//
// sum[h] = b1[h], then sum[h] += w1[j][h]·x[j] for j in order; then the ReLU
// hidden[h] = 0 where sum[h] < 0 (an ordered compare: -0 and NaN stay).
TEXT ·hiddenForwardAVX2(SB), NOSPLIT, $0-64
	MOVQ hidden+0(FP), DI
	MOVQ w1_base+8(FP), SI
	MOVQ b1+32(FP), BX
	MOVQ x_base+40(FP), DX
	MOVQ x_len+48(FP), CX
	VMOVUPD 0(BX), Y0
	VMOVUPD 32(BX), Y1
	VMOVUPD 64(BX), Y2
	VMOVUPD 96(BX), Y3
	VMOVUPD 128(BX), Y4
	VMOVUPD 160(BX), Y5
	VMOVUPD 192(BX), Y6
	VMOVUPD 224(BX), Y7
	TESTQ CX, CX
	JZ   fwdrelu

fwdloop:
	VBROADCASTSD (DX), Y8
	VMULPD 0(SI), Y8, Y9
	VADDPD Y9, Y0, Y0
	VMULPD 32(SI), Y8, Y10
	VADDPD Y10, Y1, Y1
	VMULPD 64(SI), Y8, Y11
	VADDPD Y11, Y2, Y2
	VMULPD 96(SI), Y8, Y12
	VADDPD Y12, Y3, Y3
	VMULPD 128(SI), Y8, Y9
	VADDPD Y9, Y4, Y4
	VMULPD 160(SI), Y8, Y10
	VADDPD Y10, Y5, Y5
	VMULPD 192(SI), Y8, Y11
	VADDPD Y11, Y6, Y6
	VMULPD 224(SI), Y8, Y12
	VADDPD Y12, Y7, Y7
	ADDQ $256, SI
	ADDQ $8, DX
	DECQ CX
	JNZ  fwdloop

fwdrelu:
	VXORPD  Y8, Y8, Y8
	VCMPPD  $0x11, Y8, Y0, Y9 // LT_OQ: sum < 0
	VANDNPD Y0, Y9, Y0        // clear those lanes to +0
	VCMPPD  $0x11, Y8, Y1, Y10
	VANDNPD Y1, Y10, Y1
	VCMPPD  $0x11, Y8, Y2, Y11
	VANDNPD Y2, Y11, Y2
	VCMPPD  $0x11, Y8, Y3, Y12
	VANDNPD Y3, Y12, Y3
	VCMPPD  $0x11, Y8, Y4, Y9
	VANDNPD Y4, Y9, Y4
	VCMPPD  $0x11, Y8, Y5, Y10
	VANDNPD Y5, Y10, Y5
	VCMPPD  $0x11, Y8, Y6, Y11
	VANDNPD Y6, Y11, Y6
	VCMPPD  $0x11, Y8, Y7, Y12
	VANDNPD Y7, Y12, Y7
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VZEROUPPER
	RET

// func outputBackwardAVX2(dHidden *[32]float64, w2 []float64, hidden *[32]float64, probs []float64, lr float64)
//
// d[h] = +0; then for each class c in order, with g = probs[c] and
// l = lr·g: d[h] += g·w2[c][h] with the weight as it was, then
// w2[c][h] -= l·hidden[h].
TEXT ·outputBackwardAVX2(SB), NOSPLIT, $0-72
	MOVQ dHidden+0(FP), DI
	MOVQ w2_base+8(FP), SI
	MOVQ hidden+32(FP), BX
	MOVQ probs_base+40(FP), DX
	MOVQ probs_len+48(FP), CX
	VBROADCASTSD lr+64(FP), Y15
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	TESTQ CX, CX
	JZ   outdone

outloop:
	VBROADCASTSD (DX), Y8 // g
	VMULPD  Y8, Y15, Y9   // l = lr·g

	VMOVUPD 0(SI), Y10
	VMULPD  Y10, Y8, Y11
	VADDPD  Y11, Y0, Y0
	VMULPD  0(BX), Y9, Y12
	VSUBPD  Y12, Y10, Y10
	VMOVUPD Y10, 0(SI)

	VMOVUPD 32(SI), Y13
	VMULPD  Y13, Y8, Y14
	VADDPD  Y14, Y1, Y1
	VMULPD  32(BX), Y9, Y12
	VSUBPD  Y12, Y13, Y13
	VMOVUPD Y13, 32(SI)

	VMOVUPD 64(SI), Y10
	VMULPD  Y10, Y8, Y11
	VADDPD  Y11, Y2, Y2
	VMULPD  64(BX), Y9, Y12
	VSUBPD  Y12, Y10, Y10
	VMOVUPD Y10, 64(SI)

	VMOVUPD 96(SI), Y13
	VMULPD  Y13, Y8, Y14
	VADDPD  Y14, Y3, Y3
	VMULPD  96(BX), Y9, Y12
	VSUBPD  Y12, Y13, Y13
	VMOVUPD Y13, 96(SI)

	VMOVUPD 128(SI), Y10
	VMULPD  Y10, Y8, Y11
	VADDPD  Y11, Y4, Y4
	VMULPD  128(BX), Y9, Y12
	VSUBPD  Y12, Y10, Y10
	VMOVUPD Y10, 128(SI)

	VMOVUPD 160(SI), Y13
	VMULPD  Y13, Y8, Y14
	VADDPD  Y14, Y5, Y5
	VMULPD  160(BX), Y9, Y12
	VSUBPD  Y12, Y13, Y13
	VMOVUPD Y13, 160(SI)

	VMOVUPD 192(SI), Y10
	VMULPD  Y10, Y8, Y11
	VADDPD  Y11, Y6, Y6
	VMULPD  192(BX), Y9, Y12
	VSUBPD  Y12, Y10, Y10
	VMOVUPD Y10, 192(SI)

	VMOVUPD 224(SI), Y13
	VMULPD  Y13, Y8, Y14
	VADDPD  Y14, Y7, Y7
	VMULPD  224(BX), Y9, Y12
	VSUBPD  Y12, Y13, Y13
	VMOVUPD Y13, 224(SI)

	ADDQ $256, SI
	ADDQ $8, DX
	DECQ CX
	JNZ  outloop

outdone:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VZEROUPPER
	RET

// func hiddenUpdateAVX2(w1 []float64, b1, hidden, dHidden *[32]float64, x []float64, lr float64)
//
// Per block of four units: active = !(hidden <= 0) (NLE_UQ, so a NaN unit
// is active, as `if v <= 0 { continue }` leaves it) and l = lr·dHidden, kept
// in the frame. Then b1 -= l and, row by row of w1, w1[j] -= l·x[j]: every
// lane computed and blended back only where active, so a skipped weight
// keeps its bits.
TEXT ·hiddenUpdateAVX2(SB), NOSPLIT, $256-80
	MOVQ w1_base+0(FP), SI
	MOVQ b1+24(FP), BX
	MOVQ hidden+32(FP), R8
	MOVQ dHidden+40(FP), R9
	MOVQ x_base+48(FP), DX
	MOVQ x_len+56(FP), CX
	VBROADCASTSD lr+72(FP), Y15
	VXORPD Y14, Y14, Y14

#define UNIT(k, mask) \
	VMOVUPD   (k*32)(R8), mask \
	VCMPPD    $0x16, Y14, mask, mask \
	VMULPD    (k*32)(R9), Y15, Y8 \
	VMOVUPD   Y8, (k*32)(SP) \
	VMOVUPD   (k*32)(BX), Y9 \
	VSUBPD    Y8, Y9, Y10 \
	VBLENDVPD mask, Y10, Y9, Y9 \
	VMOVUPD   Y9, (k*32)(BX)

	UNIT(0, Y0)
	UNIT(1, Y1)
	UNIT(2, Y2)
	UNIT(3, Y3)
	UNIT(4, Y4)
	UNIT(5, Y5)
	UNIT(6, Y6)
	UNIT(7, Y7)
#undef UNIT

	TESTQ CX, CX
	JZ   upddone

#define STEP(k, mask) \
	VMOVUPD   (k*32)(SI), Y9 \
	VMULPD    (k*32)(SP), Y8, Y10 \
	VSUBPD    Y10, Y9, Y10 \
	VBLENDVPD mask, Y10, Y9, Y9 \
	VMOVUPD   Y9, (k*32)(SI)

updloop:
	VBROADCASTSD (DX), Y8 // x[j]
	STEP(0, Y0)
	STEP(1, Y1)
	STEP(2, Y2)
	STEP(3, Y3)
	STEP(4, Y4)
	STEP(5, Y5)
	STEP(6, Y6)
	STEP(7, Y7)
	ADDQ $256, SI
	ADDQ $8, DX
	DECQ CX
	JNZ  updloop
#undef STEP

upddone:
	VZEROUPPER
	RET
