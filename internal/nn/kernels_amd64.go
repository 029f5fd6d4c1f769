package nn

// The kernels' CPU-dispatch ladder. At level isaAVX2 (AVX2 and FMA) the
// conv MACs, the ReLU clamp and the 2×2 max-pool of kernels.go run
// kernels_amd64.s; at isaAVX512 the conv takes a ZMM tile on every plane
// at least 4 wide and high, or 8 wide and 2 high, and a compiled plan's
// dense ops and its convs with a fused ReLU on 4×4 and 2×2 planes take
// the ZMM channel-lane tiles (denseLanesAVX512; convLanesAVX512, which
// issues only the taps inside the plane). Below, the Go loops run
// everything. The ZMM tiles four rows high, the conv lane tiles and the
// 2-wide AVX2 tile also store a plan conv's 2×2 max-pool straight from
// registers (pooledMACs, convLanesAVX512).
//
// Register rule: a tile may write ZMM16–31 (EVEX only) but clears every
// one it wrote before its VZEROUPPER, which zeroes only the upper halves
// of ZMM0–15; so no tile returns with dirty upper state in any register.
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
// EBX and XCR0: the instructions must exist — FMA too, every tile's MAC —
// and the OS must save the registers they write across context switches
// (Intel SDM vol. 1 §13.3).
func isaLevel(ecx1, ebx7, xcr0 uint32) int {
	const fma, avx = 1 << 12, 1 << 28     // leaf 1 ECX
	const avx2, avx512f = 1 << 5, 1 << 16 // leaf 7 EBX
	const ymm, zmm = 0x06, 0xE6           // XCR0: SSE|AVX state; that and opmask|ZMM_Hi256|Hi16_ZMM
	switch {
	case ecx1&(osxsave|avx|fma) != osxsave|avx|fma, xcr0&ymm != ymm, ebx7&avx2 == 0:
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
// Σ_r wd[live[j]·rows + r]·pad[offs[r] + p], r ascending, one
// VFMADD231PD a tap, clamped at +0 when relu. os and pad point at the
// tile's first position; outHW is the destination's channel pitch. The
// tiles below that take pool store instead the 2×2 max-pool at step 2 of
// their (clamped) outputs, os then pointing at the tile's first pooled
// output, and their row pitch the pooled destination's.
//
//go:noescape
func convTile16(os, pad *float64, offs *int, wd, bd *float64, live *int, nLive, rows, outHW int, relu bool)

// convTile4x4 does the same for 4 outputs of four channels at a time
// (nLive must be a multiple of 4). The tile is two halves of 2
// positions, the second reading its taps half floats after the first and
// storing dstHalf floats after it: half = dstHalf = 2 is one row
// segment, half = the padded row length is two whole rows of a 2-wide
// plane, dstHalf then the destination's row pitch. With pool (2-wide
// only) each channel stores its tile's one window.
//
//go:noescape
func convTile4x4(os, pad *float64, offs *int, wd, bd *float64, live *int, nLive, rows, outHW, half, dstHalf int, relu, pool bool)

// convTile8x2x4 is the AVX-512 tile: 8 positions of two output rows for
// four channels at a time (nLive a multiple of 4), eight ZMM
// accumulators. The second row reads its taps pw floats after the first
// (pw the padded row length) and stores outW floats after it (outW the
// destination's row pitch).
//
//go:noescape
func convTile8x2x4(os, pad *float64, offs *int, wd, bd *float64, live *int, nLive, rows, outHW, pw, outW int, relu bool)

// convTile8x4x4 is convTile8x2x4 over four rows: 8 positions of four
// output rows for four channels at a time, sixteen ZMM accumulators;
// pooled, two rows of 4.
//
//go:noescape
func convTile8x4x4(os, pad *float64, offs *int, wd, bd *float64, live *int, nLive, rows, outHW, pw, outW int, relu, pool bool)

// convTile4x4x8 is the AVX-512 tile of planes 4 to 7 wide: four rows of
// 4 positions for eight channels, sixteen ZMM accumulators, rows 0|1 of a
// channel in one and rows 2|3 in the next. Row y+1 reads its taps pw
// floats after row y (pw the padded row length) and stores outW floats
// after it (outW the destination's row pitch). live holds the eight
// channels. Pooled, two rows of 2.
//
//go:noescape
func convTile4x4x8(os, pad *float64, offs *int, wd, bd *float64, live *int, rows, outHW, pw, outW int, relu, pool bool)

// convLanes4x4 is the AVX-512 border-free channel-lane tile of a 3×3
// conv at pad 1 with its ReLU fused, on a 4×4 plane: the 16 outputs of
// eight channels, lanes of pk (a panel of rows pitch floats long, a
// multiple of 8, from the tile's first channel), each starting at its
// bias pk[lane] and adding pk[(1+r)·pitch + lane]·tap for the in-bounds
// taps r = (ic, ky, kx) ascending, then clamped at +0. pad is input
// channel 0's first interior cell (row and channel pitches 6 and 36).
// Output (oy, ox) of lane l is stored at os + idx[l] + oy·oRow + ox for
// the lanes mask selects; with pool the 2×2 max-pool of the clamped
// outputs, window (py, px) at os + idx[l] + py·oRow + px.
//
//go:noescape
func convLanes4x4(os, pad, pk *float64, pitch, inC, oRow int, idx *int64, mask uint32, pool bool)

// convLanes2x2 is convLanes4x4 on a 2×2 plane (pitches 4 and 16) for
// groups (1–4) groups of eight channels, group j's lanes selected by byte
// j of masks and stored 8·idx[1] floats after group j−1's; with pool each
// channel's one window. It reads the bias row's 32 floats from pk
// whatever groups is, all inside a panel of at least ten rows.
//
//go:noescape
func convLanes2x2(os, pad, pk *float64, pitch, inC, oRow, groups int, idx *int64, masks uint32, pool bool)

// denseLanes is the dense channel-lane tile: 32 neurons, four groups of
// eight, od[o] = pk[o] + Σ_i pk[(1+i)·n + o]·x[i], i ascending, stored at
// od[o]; byte j of masks selects group j's lanes.
//
//go:noescape
func denseLanes(od, x, pk *float64, n, in int, masks uint32, relu bool)

// laneMasks is the mask bytes of k groups of eight lanes from lane l0 on:
// bit b of byte j is set when lane l0 + 8j + b is below n.
func laneMasks(n, l0, k int) (m uint32) {
	for j := 0; j < k; j++ {
		m |= (uint32(1)<<min(max(n-l0-8*j, 0), 8) - 1) << (8 * j)
	}
	return m
}

// convLanesAVX512 runs the border-free lane tile of a conv with its ReLU
// fused over its filled pad plane, eight channels a call on a 4×4 plane
// and up to 32 on a 2×2 one, storing at convMACs' pitches, or with pool
// at pooledMACs'. pk is the op's panel (packLanes).
func convLanesAVX512(g convGeom, pad, pk, os []float64, oRow, oCh int, pool bool) {
	n, rows, o := g.outC, g.inC*9, g
	if pool {
		o = g.pooled()
	}
	pitch := len(pk) / (rows + 1)
	pk, os = pk[:(rows+1)*pitch], os[:o.storeSpan(oRow, oCh)]
	if !lanePlane(g) || pitch%8 != 0 || pitch < n || len(pad) != g.padSize() {
		panic("nn: lane tile on a plane it does not fit")
	}
	var idx [8]int64
	for l := range idx {
		idx[l] = int64(l * oCh)
	}
	in := &pad[g.inW+3] // channel 0's first interior cell
	if g.outW == 4 {
		for l0 := 0; l0 < n; l0 += 8 {
			convLanes4x4(&os[l0*oCh], in, &pk[l0], pitch, g.inC, oRow, &idx[0], laneMasks(n, l0, 1), pool)
		}
		return
	}
	for l0 := 0; l0 < n; l0 += 32 {
		convLanes2x2(&os[l0*oCh], in, &pk[l0], pitch, g.inC, oRow, min((n-l0+7)/8, 4), &idx[0], laneMasks(n, l0, 4), pool)
	}
}

// denseLanesAVX512 runs a dense op's panel pk through denseLanes, 32
// neurons a call: od[:out] from x[:in].
func denseLanesAVX512(x, pk, od []float64, in, out int, relu bool) {
	x, pk, od = x[:in], pk[:(in+1)*out], od[:out]
	for l0 := 0; l0 < out; l0 += 32 {
		denseLanes(&od[l0], &x[0], &pk[l0], out, in, laneMasks(out, l0, 4), relu)
	}
}

// reluAVX2 is reluForward's loop, dst[i] = VMAXPD(src[i], +0), over n
// elements: n a positive multiple of 4.
//
//go:noescape
func reluAVX2(dst, src *float64, n int)

// pool2x2AVX2 max-pools one channel plane with a 2×2 window at step 2
// (inW floats per input row) into outH×outW outputs, outW a multiple of
// 4, dstW floats per output row, comparing in poolForward's order.
//
//go:noescape
func pool2x2AVX2(dst, src *float64, outH, outW, inW, dstW int)

// convForwardAVX2 is convMACs' loop on register tiles over the filled
// pad plane, storing at its pitches, positions outer and channels inner
// so one tile's taps are re-read from cache for every channel. It
// reports false, having done nothing, for a geometry no tile fits (an
// output plane under four wide that is not two rows of two): the Go loop
// takes those. With AVX-512 a plane at least 8 wide
// takes a ZMM tile of 8 positions of four channels, four rows high from 4
// rows up (sixteen accumulators; on every wide op of the cifar10 plan it
// beat the two-row tile in the median of 10 alternated pairs) and two
// rows high on planes 2 or 3 high; a plane 4 to 7 wide and at least 4 high takes 4 positions of
// four rows of eight channels, sixteen accumulators. Otherwise, from 16
// wide a tile is 16 positions of a row of one channel (four accumulators
// hide the add latency); below, 4 positions of four channels — a row
// segment or, on a 2-wide plane, two whole rows. (Two rows of an 8-wide
// plane in the 16-position tile measured 3–5 % behind the 4×4 tile, so
// 8 wide takes that.) The last tile of a row or column overlaps its
// neighbour instead of running short, and a short last channel group
// repeats its final channel: both recompute identical values. live
// lists the unpruned channels (at least one). With pool it stores the
// pooled output (pooledMACs) from the tiles that have a pooled form —
// the two ZMM tiles four rows high and the 2-wide one — and reports
// false for any other tile, or where a tile origin would be odd.
func convForwardAVX2(g convGeom, pad []float64, offs []int, wd, bd, os []float64, oRow, oCh int, live []int, relu, pool bool) bool {
	pw := g.inW + 2*g.pad
	tileW, tileH, half, dstHalf, group := 4, 1, 2, 2, 4
	switch {
	case useAVX512 && g.outW >= 8 && g.outH >= 4:
		tileW, tileH = 8, 4
	case useAVX512 && g.outW >= 8 && g.outH >= 2:
		tileW, tileH = 8, 2
	case useAVX512 && g.outW >= 4 && g.outH >= 4:
		tileW, tileH, group = 4, 4, 8
	case g.outW >= 16:
		tileW = 16
	case g.outW >= 4:
	case g.outW == 2 && g.outH >= 2:
		tileW, tileH, half, dstHalf = 2, 2, pw, oRow
	default:
		return false
	}
	if pool && (tileH != 4 && tileW != 2 || g.outW%2 != 0 || g.outH%2 != 0) {
		return false
	}
	// The furthest tap of the last position is the plane's last cell.
	if offs[len(offs)-1]+(g.outH-1)*pw+g.outW != len(pad) {
		panic("nn: conv tap table does not match the pad plane")
	}
	for tileW != 16 && len(live)%group != 0 {
		live = append(live, live[len(live)-1])
	}
	rows := len(offs)
	for oy := 0; oy < g.outH; oy += tileH {
		oy := min(oy, g.outH-tileH)
		for ox := 0; ox < g.outW; ox += tileW {
			ox := min(ox, g.outW-tileW)
			at, p := oy*oRow+ox, &pad[oy*pw+ox]
			if pool {
				at = oy/2*oRow + ox/2
			}
			o := &os[at]
			switch {
			case tileW == 8 && tileH == 4:
				convTile8x4x4(o, p, &offs[0], &wd[0], &bd[0], &live[0], len(live), rows, oCh, pw, oRow, relu, pool)
			case tileH == 4:
				for j := 0; j < len(live); j += 8 {
					convTile4x4x8(o, p, &offs[0], &wd[0], &bd[0], &live[j], rows, oCh, pw, oRow, relu, pool)
				}
			case tileW == 16:
				convTile16(o, p, &offs[0], &wd[0], &bd[0], &live[0], len(live), rows, oCh, relu)
			case tileW == 8:
				convTile8x2x4(o, p, &offs[0], &wd[0], &bd[0], &live[0], len(live), rows, oCh, pw, oRow, relu)
			default:
				convTile4x4(o, p, &offs[0], &wd[0], &bd[0], &live[0], len(live), rows, oCh, half, dstHalf, relu, pool)
			}
		}
	}
	return true
}
