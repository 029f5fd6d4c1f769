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

// convTile16 computes 16 consecutive outputs of each of the nLive
// channels live[j]: os[live[j]·outHW + 0..15] = bd[live[j]] + Σ_r
// wd[live[j]·rows + r]·cols[r·outHW + 0..15], r ascending, VMULPD then
// VADDPD, clamped at +0 when relu. os and cols point at the tile's first
// position. convTile4x4 does the same for 4 positions of four channels
// at a time (nLive must be a multiple of 4).
//
//go:noescape
func convTile16(os, cols, wd, bd *float64, live *int, nLive, rows, outHW int, relu bool)

//go:noescape
func convTile4x4(os, cols, wd, bd *float64, live *int, nLive, rows, outHW int, relu bool)

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

// convForwardAVX2 is convForward's MAC loop on register tiles, positions
// outer and channels inner so one tile's cols rows are re-read from
// cache for every channel. From 64 positions up a tile is 16 positions
// of one channel (four accumulators hide the add latency); below, 4
// positions of four channels, so the 4×4 and 2×2 layers still keep four
// accumulators busy. The last tile of a row overlaps its neighbour
// instead of running short, and a short last channel group repeats its
// final channel: both recompute identical values. outHW ≥ 4.
func convForwardAVX2(cols, wd, bd, os []float64, pruned []bool, rows, outHW int, relu bool) {
	var buf [64]int
	live := buf[:0]
	for oc := range bd {
		if pruned == nil || !pruned[oc] {
			live = append(live, oc)
		}
	}
	if len(live) == 0 {
		return
	}
	if outHW >= 64 {
		for p := 0; p < outHW; p += 16 {
			p := min(p, outHW-16)
			convTile16(&os[p], &cols[p], &wd[0], &bd[0], &live[0], len(live), rows, outHW, relu)
		}
		return
	}
	for len(live)%4 != 0 {
		live = append(live, live[len(live)-1])
	}
	for p := 0; p < outHW; p += 4 {
		p := min(p, outHW-4)
		convTile4x4(&os[p], &cols[p], &wd[0], &bd[0], &live[0], len(live), rows, outHW, relu)
	}
}
