#include "textflag.h"

// AVX2 forms of the hot loops in kernels.go, and the AVX-512 tiles;
// kernels_amd64.go documents each signature and the dispatch between
// them. Contract: every lane performs exactly the scalar loop's
// operations in the scalar loop's order — each multiply-accumulate one
// VFMADD231PD, as each of the Go loops' is one math.FMA; no VMULPD or
// VADDPD appears here — so results are bit-identical to the Go path. No
// bounds are checked here; the Go callers prove them.

// MAC is the one place a multiply-accumulate is spelled: acc += w·c as
// one fused multiply-add, rounded once — the Go loops' math.FMA.
#define MAC(c, w, acc) VFMADD231PD c, w, acc

// VMAXPD b, a, d is d = a > b ? a : b per lane, b when either is NaN or
// both are zero. With b = +0 that is the ReLU clamp (NaN and −0 become
// +0); with b = the running best it is the pool's "replace only when
// strictly greater". RELU4 clamps four accumulators at z = +0.
#define RELU4(z, a, b, c, d) VMAXPD z, a, a; VMAXPD z, b, b; VMAXPD z, c, c; VMAXPD z, d, d

// COPY4 copies a to b, c to d, e to f and g to h; COPY3 a to b, c and d;
// CLEAR4 and CLEAR3 zero four and three registers, all 512 bits (EVEX).
#define COPY4(a, b, c, d, e, f, g, h) VMOVAPD a, b; VMOVAPD c, d; VMOVAPD e, f; VMOVAPD g, h
#define COPY3(a, b, c, d) VMOVAPD a, b; VMOVAPD a, c; VMOVAPD a, d
#define CLEAR3(a, b, c) VPXORQ a, a, a; VPXORQ b, b, b; VPXORQ c, c, c
#define CLEAR4(a, b, c, d) CLEAR3(a, b, c); VPXORQ d, d, d

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
	COPY3(Y0, Y1, Y2, Y3)
	MOVQ R8, R9
	IMULQ CX, R9
	LEAQ (AX)(R9*8), R9          // &wd[oc·rows]
	XORQ R13, R13                // r

row16:
	MOVQ (R14)(R13*8), R15
	LEAQ (R12)(R15*8), R15       // &pad[offs[r]]
	VBROADCASTSD (R9)(R13*8), Y4
	MAC((R15), Y4, Y0)
	MAC(32(R15), Y4, Y1)
	MAC(64(R15), Y4, Y2)
	MAC(96(R15), Y4, Y3)
	INCQ R13
	CMPQ R13, CX
	JLT row16

	CMPB relu+72(FP), $0
	JEQ store16
	RELU4(Y9, Y0, Y1, Y2, Y3)

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
	MAC(Y4, Y5, Y0)
	VBROADCASTSD (R9)(AX*8), Y6
	MAC(Y4, Y6, Y1)
	VBROADCASTSD (R11)(AX*8), Y7
	MAC(Y4, Y7, Y2)
	VBROADCASTSD (R12)(AX*8), Y8
	MAC(Y4, Y8, Y3)
	INCQ AX
	CMPQ AX, CX
	JLT row4

	CMPB relu+88(FP), $0
	JEQ store4
	RELU4(Y9, Y0, Y1, Y2, Y3)

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

// The AVX-512 tiles. Register rule (kernels_amd64.go): a tile that
// writes any of ZMM16–31 clears each one before VZEROUPPER, which zeroes
// only the upper halves of ZMM0–15.

// The two-row tile: eight lanes, otherwise convTile4x4's arithmetic.
// Z0–Z7 accumulate channel j's two rows in Z(2j), Z(2j+1); Z8/Z9 are the
// two rows' taps, Z10–Z13 the four channels' weights. Only ZMM0–13 are
// written.

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
	COPY4(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	MOVQ pw+72(FP), BX
	SHLQ $3, BX                  // bytes from a tap of the first row to the same tap of the second
	XORQ AX, AX                  // r

row8:
	MOVQ (R14)(AX*8), R15
	LEAQ (R13)(R15*8), R15       // &pad[offs[r]]
	VMOVUPD (R15), Z8
	VMOVUPD (R15)(BX*1), Z9
	VBROADCASTSD (R8)(AX*8), Z10
	MAC(Z8, Z10, Z0)
	MAC(Z9, Z10, Z1)
	VBROADCASTSD (R9)(AX*8), Z11
	MAC(Z8, Z11, Z2)
	MAC(Z9, Z11, Z3)
	VBROADCASTSD (R11)(AX*8), Z12
	MAC(Z8, Z12, Z4)
	MAC(Z9, Z12, Z5)
	VBROADCASTSD (R12)(AX*8), Z13
	MAC(Z8, Z13, Z6)
	MAC(Z9, Z13, Z7)
	INCQ AX
	CMPQ AX, CX
	JLT row8

	CMPB relu+88(FP), $0
	JEQ store8
	VXORPD Y8, Y8, Y8            // VEX-encoded: clears all of Z8
	RELU4(Z8, Z0, Z1, Z2, Z3)
	RELU4(Z8, Z4, Z5, Z6, Z7)

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

// The AVX-512 tile of planes at least 8 wide and 4 high: convTile8x2x4's
// arithmetic over four rows. Z(4j)–Z(4j+3) accumulate channel j's rows
// 0–3; Z16–Z19 are the rows' taps and Z20 a channel's weight, cleared
// before VZEROUPPER.

// STORE4R writes the four rows a–d to os[oc·outHW + y·outW + 0..7].
// AX = outW·8, DX = outHW·8, R10 = os.
#define STORE4R(oc, a, b, c, d) MOVQ oc, R8; IMULQ DX, R8; ADDQ R10, R8; VMOVUPD a, (R8); VMOVUPD b, (R8)(AX*1); VMOVUPD c, (R8)(AX*2); LEAQ (R8)(AX*2), R8; VMOVUPD d, (R8)(AX*1)
// MAC84 adds channel w's weight for tap r (AX) times the four rows.
#define MAC84(w, a, b, c, d) VBROADCASTSD (w)(AX*8), Z20; MAC(Z16, Z20, a); MAC(Z17, Z20, b); MAC(Z18, Z20, c); MAC(Z19, Z20, d)

// func convTile8x4x4(os, pad *float64, offs *int, wd, bd *float64, live *int, nLive, rows, outHW, pw, outW int, relu bool)
TEXT ·convTile8x4x4(SB), NOSPLIT, $0-89
	MOVQ os+0(FP), R10
	MOVQ pad+8(FP), R13
	MOVQ offs+16(FP), R14
	MOVQ live+40(FP), SI
	MOVQ nLive+48(FP), DI
	MOVQ rows+56(FP), CX
	MOVQ outHW+64(FP), DX
	SHLQ $3, DX                  // bytes between channels of os

group84:
	MOVQ wd+24(FP), AX
	MOVQ bd+32(FP), BX
	CHANNEL(0(SI), R8, Z0)
	CHANNEL(8(SI), R9, Z4)
	CHANNEL(16(SI), R11, Z8)
	CHANNEL(24(SI), R12, Z12)
	COPY3(Z0, Z1, Z2, Z3)
	COPY3(Z4, Z5, Z6, Z7)
	COPY3(Z8, Z9, Z10, Z11)
	COPY3(Z12, Z13, Z14, Z15)
	MOVQ pw+72(FP), BX
	SHLQ $3, BX                  // bytes from a tap of one row to the same tap of the next
	XORQ AX, AX                  // r

row84:
	MOVQ (R14)(AX*8), R15
	LEAQ (R13)(R15*8), R15       // &pad[offs[r]]
	VMOVUPD (R15), Z16
	VMOVUPD (R15)(BX*1), Z17
	VMOVUPD (R15)(BX*2), Z18
	LEAQ (R15)(BX*2), R15
	VMOVUPD (R15)(BX*1), Z19
	MAC84(R8, Z0, Z1, Z2, Z3)
	MAC84(R9, Z4, Z5, Z6, Z7)
	MAC84(R11, Z8, Z9, Z10, Z11)
	MAC84(R12, Z12, Z13, Z14, Z15)
	INCQ AX
	CMPQ AX, CX
	JLT row84

	CMPB relu+88(FP), $0
	JEQ store84
	VPXORQ Z20, Z20, Z20
	RELU4(Z20, Z0, Z1, Z2, Z3)
	RELU4(Z20, Z4, Z5, Z6, Z7)
	RELU4(Z20, Z8, Z9, Z10, Z11)
	RELU4(Z20, Z12, Z13, Z14, Z15)

store84:
	MOVQ outW+80(FP), AX
	SHLQ $3, AX                  // bytes between rows of os
	STORE4R(0(SI), Z0, Z1, Z2, Z3)
	STORE4R(8(SI), Z4, Z5, Z6, Z7)
	STORE4R(16(SI), Z8, Z9, Z10, Z11)
	STORE4R(24(SI), Z12, Z13, Z14, Z15)
	ADDQ $32, SI
	SUBQ $4, DI
	JNZ group84
	CLEAR4(Z16, Z17, Z18, Z19)
	VPXORQ Z20, Z20, Z20
	VZEROUPPER
	RET

// The AVX-512 tile of planes 4 to 7 wide. Sixteen accumulators fill
// ZMM0–15: channel j's rows 0|1 in Z(2j), rows 2|3 in Z(2j+1). Z16/Z17 are
// the two row pairs' taps and Z18 a channel's weight; Z16–Z18 are cleared
// before VZEROUPPER, which leaves ZMM16–31 alone.

// STORE44 writes channel oc's row pairs a (rows 0|1, low half ya) and b
// (rows 2|3, low half yb) to os[oc·outHW + y·outW + 0..3]. AX = outW·8,
// DX = outHW·8, R10 = os.
#define STORE44(oc, a, ya, b, yb) MOVQ oc, R8; IMULQ DX, R8; ADDQ R10, R8; VMOVUPD ya, (R8); VEXTRACTF64X4 $1, a, (R8)(AX*1); LEAQ (R8)(AX*2), R8; VMOVUPD yb, (R8); VEXTRACTF64X4 $1, b, (R8)(AX*1)
// MAC44 adds channel w's weight for tap r (AX) times both row pairs.
#define MAC44(w, a, b) VBROADCASTSD (w)(AX*8), Z18; MAC(Z16, Z18, a); MAC(Z17, Z18, b)

// func convTile4x4x8(os, pad *float64, offs *int, wd, bd *float64, live *int, rows, outHW, pw, outW int, relu bool)
TEXT ·convTile4x4x8(SB), NOSPLIT, $0-81
	MOVQ wd+24(FP), AX
	MOVQ bd+32(FP), BX
	MOVQ live+40(FP), SI
	MOVQ rows+48(FP), CX
	CHANNEL(0(SI), R8, Z0)
	CHANNEL(8(SI), R9, Z2)
	CHANNEL(16(SI), R10, Z4)
	CHANNEL(24(SI), R11, Z6)
	CHANNEL(32(SI), R12, Z8)
	CHANNEL(40(SI), R13, Z10)
	CHANNEL(48(SI), DX, Z12)
	CHANNEL(56(SI), SI, Z14)
	COPY4(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	COPY4(Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	MOVQ pad+8(FP), DI
	MOVQ offs+16(FP), R14
	MOVQ pw+64(FP), BX
	SHLQ $3, BX                  // bytes from a tap of one row to the same tap of the next
	XORQ AX, AX                  // r

row44:
	MOVQ (R14)(AX*8), R15
	LEAQ (DI)(R15*8), R15        // &pad[offs[r]]
	VBROADCASTF64X4 (R15), Z16
	VINSERTF64X4 $1, (R15)(BX*1), Z16, Z16
	LEAQ (R15)(BX*2), R15
	VBROADCASTF64X4 (R15), Z17
	VINSERTF64X4 $1, (R15)(BX*1), Z17, Z17
	MAC44(R8, Z0, Z1)
	MAC44(R9, Z2, Z3)
	MAC44(R10, Z4, Z5)
	MAC44(R11, Z6, Z7)
	MAC44(R12, Z8, Z9)
	MAC44(R13, Z10, Z11)
	MAC44(DX, Z12, Z13)
	MAC44(SI, Z14, Z15)
	INCQ AX
	CMPQ AX, CX
	JLT row44

	CMPB relu+80(FP), $0
	JEQ store44
	VPXORQ Z18, Z18, Z18
	RELU4(Z18, Z0, Z1, Z2, Z3)
	RELU4(Z18, Z4, Z5, Z6, Z7)
	RELU4(Z18, Z8, Z9, Z10, Z11)
	RELU4(Z18, Z12, Z13, Z14, Z15)

store44:
	MOVQ os+0(FP), R10
	MOVQ live+40(FP), SI
	MOVQ outHW+56(FP), DX
	SHLQ $3, DX                  // bytes between channels of os
	MOVQ outW+72(FP), AX
	SHLQ $3, AX                  // bytes between rows of os
	STORE44(0(SI), Z0, Y0, Z1, Y1)
	STORE44(8(SI), Z2, Y2, Z3, Y3)
	STORE44(16(SI), Z4, Y4, Z5, Y5)
	STORE44(24(SI), Z6, Y6, Z7, Y7)
	STORE44(32(SI), Z8, Y8, Z9, Y9)
	STORE44(40(SI), Z10, Y10, Z11, Y11)
	STORE44(48(SI), Z12, Y12, Z13, Y13)
	STORE44(56(SI), Z14, Y14, Z15, Y15)
	CLEAR3(Z16, Z17, Z18)
	VZEROUPPER
	RET

// The channel-lane tiles: a vector's lanes are eight units (channels or
// neurons), each tap's weights one load from the panel row and its input
// one broadcast. A conv's panel rows are whole groups of eight lanes, so
// convLanes loads them whole and masks only its stores; a dense panel's
// are not, so denseLanes masks its loads too (K1–K4). Only ZMM0–15 are
// written.

// LANES4 adds weights w times the four positions' taps Z10–Z13 into a–d.
#define LANES4(w, a, b, c, d) MAC(Z10, w, a); MAC(Z11, w, b); MAC(Z12, w, c); MAC(Z13, w, d)
// SCATTER stores z's eight lanes, mask m (a byte of DX), at addr.
#define SCATTER(z, addr) KMOVW DX, K3; VSCATTERQPD z, K3, addr

// func convLanes(os, pad *float64, offs *int, pk *float64, n, rows, pw, oRow int, idx *int64, masks uint32, relu bool)
TEXT ·convLanes(SB), NOSPLIT, $0-77
	MOVQ pad+8(FP), DI
	MOVQ offs+16(FP), R14
	MOVQ pk+24(FP), R8           // the panel's bias row at the tile's first lane
	MOVQ n+32(FP), R9
	SHLQ $3, R9                  // bytes per panel row
	MOVQ rows+40(FP), CX
	MOVQ pw+48(FP), BX
	SHLQ $3, BX                  // bytes from a tap of row 0 to the same tap of row 1
	MOVL masks+72(FP), DX
	SHRL $8, DX                  // the second group's lanes
	VMOVUPD (R8), Z0             // accumulators start at the bias
	VMOVUPD 64(R8), Z4
	COPY3(Z0, Z1, Z2, Z3)
	COPY3(Z4, Z5, Z6, Z7)
	XORQ AX, AX                  // r
	TESTL $0xFF, DX
	JEQ lanes4one                // no lane of the second group: the first alone

lanes4:
	ADDQ R9, R8                  // panel row 1+r
	MOVQ (R14)(AX*8), R15
	LEAQ (DI)(R15*8), R15        // &pad[offs[r]]
	VMOVUPD (R8), Z8
	VMOVUPD 64(R8), Z9
	VBROADCASTSD (R15), Z10
	VBROADCASTSD 8(R15), Z11
	VBROADCASTSD (R15)(BX*1), Z12
	VBROADCASTSD 8(R15)(BX*1), Z13
	LANES4(Z8, Z0, Z1, Z2, Z3)
	LANES4(Z9, Z4, Z5, Z6, Z7)
	INCQ AX
	CMPQ AX, CX
	JLT lanes4
	JMP relu4l

lanes4one:
	ADDQ R9, R8
	MOVQ (R14)(AX*8), R15
	LEAQ (DI)(R15*8), R15
	VMOVUPD (R8), Z8
	VBROADCASTSD (R15), Z10
	VBROADCASTSD 8(R15), Z11
	VBROADCASTSD (R15)(BX*1), Z12
	VBROADCASTSD 8(R15)(BX*1), Z13
	LANES4(Z8, Z0, Z1, Z2, Z3)
	INCQ AX
	CMPQ AX, CX
	JLT lanes4one

relu4l:
	CMPB relu+76(FP), $0
	JEQ store4l
	VXORPD Y8, Y8, Y8            // VEX-encoded: clears all of Z8
	RELU4(Z8, Z0, Z1, Z2, Z3)
	RELU4(Z8, Z4, Z5, Z6, Z7)

store4l:
	MOVQ idx+64(FP), R8
	VMOVUPD (R8), Z15            // lane l's offset from os, in floats
	MOVQ 8(R8), R9
	SHLQ $6, R9                  // bytes from lane 0 to lane 8: 8·oCh floats
	MOVQ os+0(FP), R10
	MOVQ oRow+56(FP), BX
	SHLQ $3, BX
	LEAQ (R10)(BX*1), R11        // output row 1
	MOVL masks+72(FP), DX
	SCATTER(Z0, (R10)(Z15*8))
	SCATTER(Z1, 8(R10)(Z15*8))
	SCATTER(Z2, (R11)(Z15*8))
	SCATTER(Z3, 8(R11)(Z15*8))
	SHRL $8, DX
	ADDQ R9, R10
	ADDQ R9, R11
	SCATTER(Z4, (R10)(Z15*8))
	SCATTER(Z5, 8(R10)(Z15*8))
	SCATTER(Z6, (R11)(Z15*8))
	SCATTER(Z7, 8(R11)(Z15*8))
	VZEROUPPER
	RET

// func denseLanes(od, x, pk *float64, n, in int, masks uint32, relu bool)
TEXT ·denseLanes(SB), NOSPLIT, $0-45
	MOVQ x+8(FP), SI
	MOVQ pk+16(FP), R8           // the panel's bias row at the first lane
	MOVQ n+24(FP), R9
	SHLQ $3, R9                  // bytes per panel row
	MOVQ in+32(FP), CX
	MOVL masks+40(FP), DX
	KMOVW DX, K1
	SHRL $8, DX
	KMOVW DX, K2
	SHRL $8, DX
	KMOVW DX, K3
	SHRL $8, DX
	KMOVW DX, K4
	VMOVUPD.Z (R8), K1, Z0       // accumulators start at the bias
	VMOVUPD.Z 64(R8), K2, Z1
	VMOVUPD.Z 128(R8), K3, Z2
	VMOVUPD.Z 192(R8), K4, Z3
	XORQ AX, AX                  // i

lanes1:
	ADDQ R9, R8                  // panel row 1+i
	VBROADCASTSD (SI)(AX*8), Z4
	VMOVUPD.Z (R8), K1, Z5
	VMOVUPD.Z 64(R8), K2, Z6
	VMOVUPD.Z 128(R8), K3, Z7
	VMOVUPD.Z 192(R8), K4, Z8
	MAC(Z4, Z5, Z0)
	MAC(Z4, Z6, Z1)
	MAC(Z4, Z7, Z2)
	MAC(Z4, Z8, Z3)
	INCQ AX
	CMPQ AX, CX
	JLT lanes1

	CMPB relu+44(FP), $0
	JEQ store1l
	VXORPD Y4, Y4, Y4            // VEX-encoded: clears all of Z4
	RELU4(Z4, Z0, Z1, Z2, Z3)

store1l:
	MOVQ od+0(FP), R10
	VMOVUPD Z0, K1, (R10)
	VMOVUPD Z1, K2, 64(R10)
	VMOVUPD Z2, K3, 128(R10)
	VMOVUPD Z3, K4, 192(R10)
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
