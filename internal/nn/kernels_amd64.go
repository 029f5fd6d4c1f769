package nn

// useAVX2 routes the conv MACs, the ReLU clamp and the 2×2 max-pool of
// kernels.go through kernels_amd64.s. It is set once, here, from CPUID;
// only tests change it afterwards (to run the Go fallback on a machine
// that would never take it).
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches (Intel SDM vol. 1 §14.3).
func cpuHasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // XMM and YMM state enabled
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// convTile16 computes 16 consecutive outputs of one output row for each
// of the nLive channels live[j]: os[live[j]·outHW + p] = bd[live[j]] +
// Σ_r wd[live[j]·rows + r]·pad[offs[r] + p], r ascending, VMULPD then
// VADDPD, clamped at +0 when relu. os and pad point at the tile's first
// position.
//
//go:noescape
func convTile16(os, pad *float64, offs *int, wd, bd *float64, live *int, nLive, rows, outHW int, relu bool)

// convTile4x4 does the same for 4 outputs of four channels at a time
// (nLive must be a multiple of 4). The tile is two halves of 2
// positions, the second reading its taps half floats after the first:
// half = 2 is one row segment, half = the padded row length is two whole
// rows of a 2-wide plane, whose outputs are still contiguous.
//
//go:noescape
func convTile4x4(os, pad *float64, offs *int, wd, bd *float64, live *int, nLive, rows, outHW, half int, relu bool)

// reluAVX2 is reluForward's loop, dst[i] = VMAXPD(src[i], +0), over n
// elements: n a positive multiple of 4.
//
//go:noescape
func reluAVX2(dst, src *float64, n int)

// pool2x2AVX2 max-pools one channel plane with a 2×2 window at stride 2
// (inW floats per input row) into outH×outW outputs, outW a multiple of
// 4, comparing in poolForward's order.
//
//go:noescape
func pool2x2AVX2(dst, src *float64, outH, outW, inW int)

// convForwardAVX2 is convForward's MAC loop on register tiles over the
// filled pad plane, positions outer and channels inner so one tile's
// taps are re-read from cache for every channel. It reports false, having
// done nothing, for a geometry no tile fits (stride ≠ 1, or an output
// plane under four wide that is not two rows of two): the Go loop takes
// those. From 16 wide a tile is 16 positions of a row of one channel
// (four accumulators hide the add latency); below, 4 positions of four
// channels — a row segment or, on a 2-wide plane, two whole rows.
// (Two rows of an 8-wide plane in the 16-position tile measured 3–5 %
// behind the 4×4 tile, so 8 wide takes that.) The last tile of a row or
// column overlaps its neighbour instead of running short, and a short
// last channel group repeats its final channel: both recompute identical
// values. live lists the unpruned channels (at least one).
func convForwardAVX2(g convGeom, pad []float64, offs []int, wd, bd, os []float64, live []int, relu bool) bool {
	pw := g.inW + 2*g.pad
	tileW, tileH, half := 4, 1, 2
	switch {
	case g.stride != 1:
		return false
	case g.outW >= 16:
		tileW = 16
	case g.outW >= 4:
	case g.outW == 2 && g.outH >= 2:
		tileW, tileH, half = 2, 2, pw
	default:
		return false
	}
	// The furthest tap of the last position is the plane's last cell.
	if offs[len(offs)-1]+(g.outH-1)*pw+g.outW != len(pad) {
		panic("nn: conv tap table does not match the pad plane")
	}
	for tileW < 16 && len(live)%4 != 0 {
		live = append(live, live[len(live)-1])
	}
	rows, outHW := len(offs), g.outH*g.outW
	for oy := 0; oy < g.outH; oy += tileH {
		oy := min(oy, g.outH-tileH)
		for ox := 0; ox < g.outW; ox += tileW {
			ox := min(ox, g.outW-tileW)
			o, p := &os[oy*g.outW+ox], &pad[oy*pw+ox]
			if tileW == 16 {
				convTile16(o, p, &offs[0], &wd[0], &bd[0], &live[0], len(live), rows, outHW, relu)
			} else {
				convTile4x4(o, p, &offs[0], &wd[0], &bd[0], &live[0], len(live), rows, outHW, half, relu)
			}
		}
	}
	return true
}
