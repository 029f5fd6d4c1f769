#include "textflag.h"

// AVX2 forms of the hot loops in kernels.go, and one AVX-512 conv tile;
// kernels_amd64.go documents each signature and the dispatch between
// them. Contract: every lane performs exactly the scalar
// loop's operations in the scalar loop's order, so results are
// bit-identical to the Go path. No bounds are checked here; the Go
// callers prove them.

// MAC is the one place a multiply-accumulate is spelled: acc += w·c as a
// rounded multiply, then a rounded add — never a fused multiply-add.
#define MAC(c, w, tmp, acc) VMULPD c, w, tmp; VADDPD tmp, acc, acc

// VMAXPD b, a, d is d = a > b ? a : b per lane, b when either is NaN or
// both are zero. With b = +0 that is the ReLU clamp (NaN and −0 become
// +0); with b = the running best it is the pool's "replace only when
// strictly greater".

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func convTile16(os, pad *float64, offs *int, wd, bd *float64, live *int, nLive, rows, outHW int, relu bool)
TEXT ·convTile16(SB), NOSPLIT, $0-73
	MOVQ os+0(FP), R10
	MOVQ pad+8(FP), R12
	MOVQ offs+16(FP), R14
	MOVQ wd+24(FP), AX
	MOVQ bd+32(FP), BX
	MOVQ live+40(FP), SI
	MOVQ nLive+48(FP), DI
	MOVQ rows+56(FP), CX
	MOVQ outHW+64(FP), DX
	SHLQ $3, DX                  // bytes between channels of os
	VXORPD Y9, Y9, Y9

channel16:
	MOVQ (SI), R8                // oc
	VBROADCASTSD (BX)(R8*8), Y0  // accumulators start at the bias
	VMOVAPD Y0, Y1
	VMOVAPD Y0, Y2
	VMOVAPD Y0, Y3
	MOVQ R8, R9
	IMULQ CX, R9
	LEAQ (AX)(R9*8), R9          // &wd[oc·rows]
	XORQ R13, R13                // r

row16:
	MOVQ (R14)(R13*8), R15
	LEAQ (R12)(R15*8), R15       // &pad[offs[r]]
	VBROADCASTSD (R9)(R13*8), Y4
	MAC((R15), Y4, Y5, Y0)
	MAC(32(R15), Y4, Y6, Y1)
	MAC(64(R15), Y4, Y7, Y2)
	MAC(96(R15), Y4, Y8, Y3)
	INCQ R13
	CMPQ R13, CX
	JLT row16

	CMPB relu+72(FP), $0
	JEQ store16
	VMAXPD Y9, Y0, Y0
	VMAXPD Y9, Y1, Y1
	VMAXPD Y9, Y2, Y2
	VMAXPD Y9, Y3, Y3

store16:
	IMULQ DX, R8
	ADDQ R10, R8                 // &os[oc·outHW]
	VMOVUPD Y0, (R8)
	VMOVUPD Y1, 32(R8)
	VMOVUPD Y2, 64(R8)
	VMOVUPD Y3, 96(R8)
	ADDQ $8, SI
	DECQ DI
	JNZ channel16
	VZEROUPPER
	RET

// CHANNEL loads channel id oc: acc = its bias in every lane, w = &wd[oc·rows].
// AX = wd, BX = bd, CX = rows.
#define CHANNEL(oc, w, acc) MOVQ oc, w; VBROADCASTSD (BX)(w*8), acc; IMULQ CX, w; LEAQ (AX)(w*8), w
// STORE writes the low half x of acc y to os[oc·outHW + 0..1] and its high
// half dstHalf floats further on. AX = dstHalf·8, DX = outHW·8, R10 = os.
#define STORE(oc, x, y) MOVQ oc, R8; IMULQ DX, R8; ADDQ R10, R8; VMOVUPD x, (R8); VEXTRACTF128 $1, y, (R8)(AX*1)

// func convTile4x4(os, pad *float64, offs *int, wd, bd *float64, live *int, nLive, rows, outHW, half, dstHalf int, relu bool)
TEXT ·convTile4x4(SB), NOSPLIT, $0-89
	MOVQ os+0(FP), R10
	MOVQ pad+8(FP), R13
	MOVQ offs+16(FP), R14
	MOVQ live+40(FP), SI
	MOVQ nLive+48(FP), DI
	MOVQ rows+56(FP), CX
	MOVQ outHW+64(FP), DX
	SHLQ $3, DX                  // bytes between channels of os
	VXORPD Y9, Y9, Y9

group4:
	MOVQ wd+24(FP), AX
	MOVQ bd+32(FP), BX
	CHANNEL(0(SI), R8, Y0)
	CHANNEL(8(SI), R9, Y1)
	CHANNEL(16(SI), R11, Y2)
	CHANNEL(24(SI), R12, Y3)
	MOVQ half+72(FP), BX
	SHLQ $3, BX                  // bytes from the tile's first 2 taps to its last 2
	XORQ AX, AX                  // r

row4:
	MOVQ (R14)(AX*8), R15
	LEAQ (R13)(R15*8), R15       // &pad[offs[r]]
	VMOVUPD (R15), X4
	VINSERTF128 $1, (R15)(BX*1), Y4, Y4
	VBROADCASTSD (R8)(AX*8), Y5
	MAC(Y4, Y5, Y5, Y0)
	VBROADCASTSD (R9)(AX*8), Y6
	MAC(Y4, Y6, Y6, Y1)
	VBROADCASTSD (R11)(AX*8), Y7
	MAC(Y4, Y7, Y7, Y2)
	VBROADCASTSD (R12)(AX*8), Y8
	MAC(Y4, Y8, Y8, Y3)
	INCQ AX
	CMPQ AX, CX
	JLT row4

	CMPB relu+88(FP), $0
	JEQ store4
	VMAXPD Y9, Y0, Y0
	VMAXPD Y9, Y1, Y1
	VMAXPD Y9, Y2, Y2
	VMAXPD Y9, Y3, Y3

store4:
	MOVQ dstHalf+80(FP), AX
	SHLQ $3, AX                  // bytes from the tile's first 2 outputs to its last 2
	STORE(0(SI), X0, Y0)
	STORE(8(SI), X1, Y1)
	STORE(16(SI), X2, Y2)
	STORE(24(SI), X3, Y3)
	ADDQ $32, SI
	SUBQ $4, DI
	JNZ group4
	VZEROUPPER
	RET

// STORE2 writes the row pair a, b to os[oc·outHW + 0..7] and outW floats
// further on. AX = outW·8, DX = outHW·8, R10 = os.
#define STORE2(oc, a, b) MOVQ oc, R8; IMULQ DX, R8; ADDQ R10, R8; VMOVUPD a, (R8); VMOVUPD b, (R8)(AX*1)

// The AVX-512 tile: eight lanes, otherwise convTile4x4's arithmetic. Z0–Z7
// accumulate channel j's two rows in Z(2j), Z(2j+1); Z8/Z9 are the two
// rows' taps, Z10–Z13 the four channels' weights, Z14/Z15 products.
// Only ZMM0–15 are written, so VZEROUPPER leaves no dirty upper state.

// func convTile8x2x4(os, pad *float64, offs *int, wd, bd *float64, live *int, nLive, rows, outHW, pw, outW int, relu bool)
TEXT ·convTile8x2x4(SB), NOSPLIT, $0-89
	MOVQ os+0(FP), R10
	MOVQ pad+8(FP), R13
	MOVQ offs+16(FP), R14
	MOVQ live+40(FP), SI
	MOVQ nLive+48(FP), DI
	MOVQ rows+56(FP), CX
	MOVQ outHW+64(FP), DX
	SHLQ $3, DX                  // bytes between channels of os

group8:
	MOVQ wd+24(FP), AX
	MOVQ bd+32(FP), BX
	CHANNEL(0(SI), R8, Z0)
	CHANNEL(8(SI), R9, Z2)
	CHANNEL(16(SI), R11, Z4)
	CHANNEL(24(SI), R12, Z6)
	VMOVAPD Z0, Z1
	VMOVAPD Z2, Z3
	VMOVAPD Z4, Z5
	VMOVAPD Z6, Z7
	MOVQ pw+72(FP), BX
	SHLQ $3, BX                  // bytes from a tap of the first row to the same tap of the second
	XORQ AX, AX                  // r

row8:
	MOVQ (R14)(AX*8), R15
	LEAQ (R13)(R15*8), R15       // &pad[offs[r]]
	VMOVUPD (R15), Z8
	VMOVUPD (R15)(BX*1), Z9
	VBROADCASTSD (R8)(AX*8), Z10
	MAC(Z8, Z10, Z14, Z0)
	MAC(Z9, Z10, Z15, Z1)
	VBROADCASTSD (R9)(AX*8), Z11
	MAC(Z8, Z11, Z14, Z2)
	MAC(Z9, Z11, Z15, Z3)
	VBROADCASTSD (R11)(AX*8), Z12
	MAC(Z8, Z12, Z14, Z4)
	MAC(Z9, Z12, Z15, Z5)
	VBROADCASTSD (R12)(AX*8), Z13
	MAC(Z8, Z13, Z14, Z6)
	MAC(Z9, Z13, Z15, Z7)
	INCQ AX
	CMPQ AX, CX
	JLT row8

	CMPB relu+88(FP), $0
	JEQ store8
	VXORPD Y8, Y8, Y8            // VEX-encoded: clears all of Z8
	VMAXPD Z8, Z0, Z0
	VMAXPD Z8, Z1, Z1
	VMAXPD Z8, Z2, Z2
	VMAXPD Z8, Z3, Z3
	VMAXPD Z8, Z4, Z4
	VMAXPD Z8, Z5, Z5
	VMAXPD Z8, Z6, Z6
	VMAXPD Z8, Z7, Z7

store8:
	MOVQ outW+80(FP), AX
	SHLQ $3, AX                  // bytes from the first row's outputs to the second's
	STORE2(0(SI), Z0, Z1)
	STORE2(8(SI), Z2, Z3)
	STORE2(16(SI), Z4, Z5)
	STORE2(24(SI), Z6, Z7)
	ADDQ $32, SI
	SUBQ $4, DI
	JNZ group8
	VZEROUPPER
	RET

// func reluAVX2(dst, src *float64, n int)
TEXT ·reluAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VXORPD Y1, Y1, Y1

relu4:
	VMOVUPD (SI), Y0
	VMAXPD Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JNZ relu4
	VZEROUPPER
	RET

// func pool2x2AVX2(dst, src *float64, outH, outW, inW, dstW int)
TEXT ·pool2x2AVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), R10
	MOVQ src+8(FP), SI
	MOVQ outH+16(FP), R8
	MOVQ outW+24(FP), R9
	MOVQ inW+32(FP), DX
	SHLQ $3, DX                  // bytes per input row
	MOVQ dstW+40(FP), R11
	SHLQ $3, R11                 // bytes per output row

poolRow:
	MOVQ SI, AX                  // input row 2·oy
	LEAQ (SI)(DX*1), BX          // input row 2·oy+1
	MOVQ R10, DI                 // output row oy
	MOVQ R9, CX

pool4:
	// Eight inputs of each row make four windows. Unpacking splits each
	// row into its windows' left and right elements, in window order
	// 0, 2, 1, 3 — the same for all four vectors, undone after the max.
	VMOVUPD (AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD (BX), Y2
	VMOVUPD 32(BX), Y3
	VUNPCKLPD Y1, Y0, Y4         // (ky, kx) = (0, 0): the initial best
	VUNPCKHPD Y1, Y0, Y5         // (0, 1)
	VUNPCKLPD Y3, Y2, Y6         // (1, 0)
	VUNPCKHPD Y3, Y2, Y7         // (1, 1)
	VMAXPD Y4, Y5, Y4
	VMAXPD Y4, Y6, Y4
	VMAXPD Y4, Y7, Y4
	VPERMPD $0xD8, Y4, Y4
	VMOVUPD Y4, (DI)
	ADDQ $64, AX
	ADDQ $64, BX
	ADDQ $32, DI
	SUBQ $4, CX
	JNZ pool4

	LEAQ (SI)(DX*2), SI
	ADDQ R11, R10
	DECQ R8
	JNZ poolRow
	VZEROUPPER
	RET
