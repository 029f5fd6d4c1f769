package nn

// The kernels' CPU-dispatch ladder. At level isaAVX2 the conv MACs, the
// ReLU clamp and the 2×2 max-pool of kernels.go run kernels_amd64.s; at
// isaAVX512 the conv takes the ZMM tile on the planes it fits as well.
// Below, the Go loops run everything.
const (
	isaGo = iota
	isaAVX2
	isaAVX512
)

// useAVX2 and useAVX512 are set once, here, from CPUID; only tests change
// them afterwards (to run a lower rung on a machine that would never take
// it).
var useAVX2, useAVX512 = func() (bool, bool) {
	l := hostISA()
	return l >= isaAVX2, l >= isaAVX512
}()

// osxsave is CPUID leaf 1 ECX's "the OS enabled XGETBV" bit.
const osxsave = 1 << 27

// hostISA reads the three words isaLevel decides from. XGETBV faults
// unless the OS enabled it, which leaf 1 reports.
func hostISA() int {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	var ebx7, xcr0 uint32
	if maxLeaf >= 7 {
		_, ebx7, _, _ = cpuid(7, 0)
	}
	if ecx1&osxsave != 0 {
		xcr0, _ = xgetbv()
	}
	return isaLevel(ecx1, ebx7, xcr0)
}

// isaLevel is the highest rung a CPU takes, from CPUID leaf 1 ECX, leaf 7
// EBX and XCR0: the instructions must exist and the OS must save the
// registers they write across context switches (Intel SDM vol. 1 §13.3).
func isaLevel(ecx1, ebx7, xcr0 uint32) int {
	const avx = 1 << 28                   // leaf 1 ECX
	const avx2, avx512f = 1 << 5, 1 << 16 // leaf 7 EBX
	const ymm, zmm = 0x06, 0xE6           // XCR0: SSE|AVX state; that and opmask|ZMM_Hi256|Hi16_ZMM
	switch {
	case ecx1&(osxsave|avx) != osxsave|avx, xcr0&ymm != ymm, ebx7&avx2 == 0:
		return isaGo
	case ebx7&avx512f == 0, xcr0&zmm != zmm:
		return isaAVX2
	}
	return isaAVX512
}

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// convTile16 computes 16 consecutive outputs of one output row for each
// of the nLive channels live[j]: os[live[j]·outHW + p] = bd[live[j]] +
// Σ_r wd[live[j]·rows + r]·pad[offs[r] + p], r ascending, VMULPD then
// VADDPD, clamped at +0 when relu. os and pad point at the tile's first
// position; outHW is the destination's channel stride.
//
//go:noescape
func convTile16(os, pad *float64, offs *int, wd, bd *float64, live *int, nLive, rows, outHW int, relu bool)

// convTile4x4 does the same for 4 outputs of four channels at a time
// (nLive must be a multiple of 4). The tile is two halves of 2
// positions, the second reading its taps half floats after the first and
// storing dstHalf floats after it: half = dstHalf = 2 is one row
// segment, half = the padded row length is two whole rows of a 2-wide
// plane, dstHalf then the destination's row stride.
//
//go:noescape
func convTile4x4(os, pad *float64, offs *int, wd, bd *float64, live *int, nLive, rows, outHW, half, dstHalf int, relu bool)

// convTile8x2x4 is the AVX-512 tile: 8 positions of two output rows for
// four channels at a time (nLive a multiple of 4), eight ZMM
// accumulators. The second row reads its taps pw floats after the first
// (pw the padded row length) and stores outW floats after it (outW the
// destination's row stride).
//
//go:noescape
func convTile8x2x4(os, pad *float64, offs *int, wd, bd *float64, live *int, nLive, rows, outHW, pw, outW int, relu bool)

// reluAVX2 is reluForward's loop, dst[i] = VMAXPD(src[i], +0), over n
// elements: n a positive multiple of 4.
//
//go:noescape
func reluAVX2(dst, src *float64, n int)

// pool2x2AVX2 max-pools one channel plane with a 2×2 window at stride 2
// (inW floats per input row) into outH×outW outputs, outW a multiple of
// 4, dstW floats per output row, comparing in poolForward's order.
//
//go:noescape
func pool2x2AVX2(dst, src *float64, outH, outW, inW, dstW int)

// convForwardAVX2 is convMACs' loop on register tiles over the filled
// pad plane, storing at its strides, positions outer and channels inner
// so one tile's taps are re-read from cache for every channel. It reports false, having
// done nothing, for a geometry no tile fits (stride ≠ 1, or an output
// plane under four wide that is not two rows of two): the Go loop takes
// those. With AVX-512, a plane at least 8 wide and 2 high takes the ZMM
// tile, 8 positions of two rows of four channels. Otherwise, from 16
// wide a tile is 16 positions of a row of one channel (four accumulators
// hide the add latency); below, 4 positions of four channels — a row
// segment or, on a 2-wide plane, two whole rows. (Two rows of an 8-wide
// plane in the 16-position tile measured 3–5 % behind the 4×4 tile, so
// 8 wide takes that.) The last tile of a row or column overlaps its
// neighbour instead of running short, and a short last channel group
// repeats its final channel: both recompute identical values. live
// lists the unpruned channels (at least one).
func convForwardAVX2(g convGeom, pad []float64, offs []int, wd, bd, os []float64, oRow, oCh int, live []int, relu bool) bool {
	pw := g.inW + 2*g.pad
	tileW, tileH, half, dstHalf := 4, 1, 2, 2
	switch {
	case g.stride != 1:
		return false
	case useAVX512 && g.outW >= 8 && g.outH >= 2:
		tileW, tileH = 8, 2
	case g.outW >= 16:
		tileW = 16
	case g.outW >= 4:
	case g.outW == 2 && g.outH >= 2:
		tileW, tileH, half, dstHalf = 2, 2, pw, oRow
	default:
		return false
	}
	// The furthest tap of the last position is the plane's last cell.
	if offs[len(offs)-1]+(g.outH-1)*pw+g.outW != len(pad) {
		panic("nn: conv tap table does not match the pad plane")
	}
	for tileW != 16 && len(live)%4 != 0 {
		live = append(live, live[len(live)-1])
	}
	rows := len(offs)
	for oy := 0; oy < g.outH; oy += tileH {
		oy := min(oy, g.outH-tileH)
		for ox := 0; ox < g.outW; ox += tileW {
			ox := min(ox, g.outW-tileW)
			o, p := &os[oy*oRow+ox], &pad[oy*pw+ox]
			switch tileW {
			case 16:
				convTile16(o, p, &offs[0], &wd[0], &bd[0], &live[0], len(live), rows, oCh, relu)
			case 8:
				convTile8x2x4(o, p, &offs[0], &wd[0], &bd[0], &live[0], len(live), rows, oCh, pw, oRow, relu)
			default:
				convTile4x4(o, p, &offs[0], &wd[0], &bd[0], &live[0], len(live), rows, oCh, half, dstHalf, relu)
			}
		}
	}
	return true
}
