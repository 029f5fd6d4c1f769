package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// allocExact returns n float64s with nothing usable behind them. On
// linux (guardpage_linux_test.go) the slice ends at an unmapped page, so
// assembly that reads or writes one element too far faults instead of
// passing; elsewhere it is a heap slice with cap == len.
var allocExact = func(t testing.TB, n int) []float64 { return make([]float64, n, n) }

// isaRung is one rung of the kernels' dispatch ladder (kernels_amd64.go):
// the Go loops, the AVX2 tiles, the AVX2 tiles plus the ZMM conv tile.
type isaRung struct {
	name         string
	avx2, avx512 bool
}

var (
	hostAVX2, hostAVX512 = useAVX2, useAVX512 // what CPUID chose at init
	isaRungs             = []isaRung{{"generic", false, false}, {"avx2", true, false}, {"avx512", true, true}}
)

// onHost reports whether this CPU can run the rung.
func (l isaRung) onHost() bool { return (!l.avx2 || hostAVX2) && (!l.avx512 || hostAVX512) }

// hostRungs lists the rungs this CPU can run, the Go loops first.
func hostRungs() []isaRung {
	var ls []isaRung
	for _, l := range isaRungs {
		if l.onHost() {
			ls = append(ls, l)
		}
	}
	return ls
}

// withRung runs f with the kernels dispatched as on a CPU whose top rung
// is l: below its host's top, that is a CPU without AVX-512, without
// AVX2, or another GOARCH.
func withRung(l isaRung, f func()) {
	if !l.onHost() {
		panic("nn: rung " + l.name + " is not on this CPU")
	}
	defer func(a, b bool) { useAVX2, useAVX512 = a, b }(useAVX2, useAVX512)
	useAVX2, useAVX512 = l.avx2, l.avx512
	f()
}

// forEachRung runs f once per rung as a subtest, skipping — by name, so
// a -v run shows which rungs a CPU lacked — those the CPU cannot run.
func forEachRung(t *testing.T, rungs []isaRung, f func(t *testing.T, l isaRung)) {
	for _, l := range rungs {
		t.Run(l.name, func(t *testing.T) {
			if !l.onHost() {
				t.Skipf("this CPU has no %s", l.name)
			}
			withRung(l, func() { f(t, l) })
		})
	}
}

// sentinel fills the border of a bordered destination: a NaN whose
// payload no kernel produces, so any store there shows.
const sentinel = 0x7ff80000c0ffee00

// bordered runs store into the interior of a [c, h+2b, w+2b] plane whose
// border cells hold the sentinel, as the compiled plan's convs and pools
// store into the next conv's padded plane. The plane ends at its last
// interior cell, on a guard page, so a store past it faults. It fails
// unless every sentinel survives bit for bit, and returns the interior
// gathered dense (arriving zeroed, as a pruned channel leaves it).
func bordered(t testing.TB, what string, c, h, w, b int, store func(os []float64, oRow, oCh int)) []float64 {
	t.Helper()
	ph, pw := h+2*b, w+2*b
	first := b*pw + b
	plane := allocExact(t, (c-1)*ph*pw+(b+h-1)*pw+b+w)
	inside := func(i int) (int, bool) {
		ci, y, x := i/(ph*pw), i/pw%ph-b, i%pw-b
		return (ci*h+y)*w + x, y >= 0 && y < h && x >= 0 && x < w
	}
	for i := range plane {
		plane[i] = math.Float64frombits(sentinel)
		if _, ok := inside(i); ok {
			plane[i] = 0
		}
	}
	store(plane[first:], pw, ph*pw)
	dense := make([]float64, c*h*w)
	for i, v := range plane {
		if j, ok := inside(i); ok {
			dense[j] = v
		} else if math.Float64bits(v) != sentinel {
			t.Fatalf("%s: border cell %d of the %d-bordered plane holds %v (%#x)", what, i, b, v, math.Float64bits(v))
		}
	}
	return dense
}

// sameBits fails unless got is want bit for bit. Where the two are the
// Go loops and the assembly, want is the Go loops'.
func sameBits(t testing.TB, what string, want, got []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: elem %d: want %v (%#x), got %v (%#x)", what, i,
				want[i], math.Float64bits(want[i]), got[i], math.Float64bits(got[i]))
		}
	}
}

// sameValues is sameBits with any NaN standing for any NaN. Which
// operand's payload a fused multiply-add of two or three NaNs returns is
// left open by IEEE 754 and follows operand order on amd64, and nothing
// gives the compiled math.FMA and the assembly's VFMADD231PD one operand
// order, so no two loops can promise payloads; whether a result is NaN,
// and every other bit, they do.
func sameValues(t testing.TB, what string, want, got []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) && !(math.IsNaN(want[i]) && math.IsNaN(got[i])) {
			t.Fatalf("%s: elem %d: want %v (%#x), got %v (%#x)", what, i,
				want[i], math.Float64bits(want[i]), got[i], math.Float64bits(got[i]))
		}
	}
}

// pruneMask draws one of the mask shapes a kernel sees: nil, random,
// all but one pruned, alternating (live channels never in runs of four).
func pruneMask(rng *rand.Rand, kind, n int) []bool {
	if kind%4 == 0 {
		return nil
	}
	m := make([]bool, n)
	for i := range m {
		switch kind % 4 {
		case 1:
			m[i] = rng.Intn(2) == 0
		case 2:
			m[i] = true
		case 3:
			m[i] = i%2 == 0
		}
	}
	if kind%4 == 2 {
		m[rng.Intn(n)] = false
	}
	return m
}

// checkConvCase runs one conv geometry, plain and with the fused ReLU,
// through the naive loop nest written out below, the Go loop and each of
// the given assembly rungs, on an input slab, pad plane, weights and
// outputs that each end at a guard page, and demands identical bits. The
// pad plane arrives full of NaN: a border cell the kernel fails to zero
// poisons an output. Every rung also stores into a bordered destination,
// as the compiled plan does, and must leave its border alone. It also
// holds im2col (Backward's gather) to its definition, tap by tap.
func checkConvCase(t testing.TB, g convGeom, seed int64, maskKind int, rungs ...isaRung) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	what := fmt.Sprintf("%+v mask %d", g, maskKind%4)
	rows, outHW := g.inC*g.k*g.k, g.outH*g.outW

	x := allocExact(t, g.inSize())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	// tap is what output position p multiplies by weight column r.
	tap := func(r, p int) float64 {
		ic, ky, kx := r/(g.k*g.k), r/g.k%g.k, r%g.k
		iy, ix := p/g.outW-g.pad+ky, p%g.outW-g.pad+kx
		if iy < 0 || iy >= g.inH || ix < 0 || ix >= g.inW {
			return 0
		}
		return x[(ic*g.inH+iy)*g.inW+ix]
	}
	cols := make([]float64, g.colsSize())
	for i := range cols {
		cols[i] = math.NaN() // im2col must overwrite every entry
	}
	pad, offs := allocExact(t, g.padSize()), g.tapOffsets(nil)
	g.im2col(x, pad, offs, cols)
	for i, got := range cols {
		if want := tap(i/outHW, i%outHW); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: im2col row %d pos %d = %v, want %v", what, i/outHW, i%outHW, got, want)
		}
	}

	wd, bd := allocExact(t, g.outC*rows), allocExact(t, g.outC)
	for i := range wd {
		switch rng.Intn(8) {
		case 0:
			wd[i] = 0
		case 1:
			wd[i] = math.Copysign(0, -1)
		default:
			wd[i] = rng.NormFloat64()
		}
	}
	for i := range bd {
		bd[i] = rng.NormFloat64()
	}
	pruned := pruneMask(rng, maskKind, g.outC)
	border := 1 + rng.Intn(2)
	dirtyPad := func() {
		for i := range pad {
			pad[i] = math.NaN()
		}
	}
	for _, relu := range []bool{false, true} {
		naive := make([]float64, g.outSize())
		for oc := 0; oc < g.outC; oc++ {
			for oy := 0; oy < g.outH && (pruned == nil || !pruned[oc]); oy++ {
				for ox := 0; ox < g.outW; ox++ {
					acc := bd[oc]
					for ic := 0; ic < g.inC; ic++ {
						for ky := 0; ky < g.k; ky++ {
							for kx := 0; kx < g.k; kx++ {
								acc = math.FMA(wd[((oc*g.inC+ic)*g.k+ky)*g.k+kx], tap((ic*g.k+ky)*g.k+kx, oy*g.outW+ox), acc)
							}
						}
					}
					if relu && !(acc > 0) {
						acc = 0
					}
					naive[(oc*g.outH+oy)*g.outW+ox] = acc
				}
			}
		}
		run := func(l isaRung) []float64 {
			got := allocExact(t, g.outSize())
			for i := range got {
				got[i] = math.NaN() // a pooled slab arrives dirty
			}
			dirtyPad()
			withRung(l, func() { g.convForward(x, pad, offs, wd, bd, got, pruned, relu) })
			return got
		}
		generic := run(isaRungs[0])
		sameBits(t, fmt.Sprintf("%s relu %v: Go loop against the naive loop nest", what, relu), naive, generic)
		for _, l := range rungs {
			sameBits(t, fmt.Sprintf("%s relu %v: %s against the Go loop", what, relu, l.name), generic, run(l))
		}
		for _, l := range append([]isaRung{isaRungs[0]}, rungs...) {
			into := fmt.Sprintf("%s relu %v: %s into a bordered plane", what, relu, l.name)
			dirtyPad()
			g.padInput(x, pad, 1)
			sameBits(t, into, generic, bordered(t, into, g.outC, g.outH, g.outW, border, func(os []float64, oRow, oCh int) {
				withRung(l, func() { g.convMACs(pad, offs, wd, bd, os, oRow, oCh, pruned, relu) })
			}))
		}
		if pruned != nil {
			continue
		}
		// A compiled plan's op, whose channels are all live: on a 2-wide
		// plane of more than four it packs a panel (guarded too) for the
		// ZMM channel-lane tile.
		op := newConvOp(g, wd, bd)
		if op.pk != nil {
			pk := allocExact(t, len(op.pk))
			copy(pk, op.pk)
			op.pk = pk
		}
		op.relu = relu
		for _, l := range append([]isaRung{isaRungs[0]}, rungs...) {
			into := fmt.Sprintf("%s relu %v: %s plan op into a bordered plane", what, relu, l.name)
			dirtyPad()
			g.padInput(x, pad, 1)
			sameBits(t, into, generic, bordered(t, into, g.outC, g.outH, g.outW, border, func(os []float64, oRow, oCh int) {
				op.row, op.ch = oRow, oCh
				withRung(l, func() { op.macs(pad, os) })
			}))
		}
	}
}

// convCases spans what the fixtures never hit. The first grid: output
// planes of 1, 3, 4, 6, 15, 16, 17, 64 and 1000 positions, kernels
// 1/3/5 (a dense layer is the kernels' 1×1 conv), pad 0, and channel
// counts that are not multiples of the four-channel tiles. The second, 3×3 only, walks the tile shapes:
// width 2 (two rows to a tile from two rows up, the Go loop on a single
// row), 5 (4-wide; the eight-channel ZMM tile from four rows up, its
// columns overlapping), 8, 15 (4-wide; a ZMM tile from two rows up,
// overlapping at 15), 16, 17, 32, 33 (16-wide, or a ZMM tile from two
// rows up; overlapping last tile at 17 and 33), each 1, 2 and 7 rows
// high (7: the two- and four-row tiles' last rows overlap). The third
// gives the narrow planes of a served plan's last stages the channel
// counts the ZMM tiles split unevenly: 4×4 planes of 1, 7, 8, 9 and 16
// channels (eight to a tile) and 2×2 ones of 3, 23, 26 and 32 (sixteen
// lanes to a tile, and under five the four-channel AVX2 tile).
func convCases(visit func(g convGeom, n int)) {
	n := 0
	grid := func(outs [][2]int, ks, outCs []int) {
		for _, out := range outs {
			for _, k := range ks {
				for _, pad := range []int{0, k / 2} {
					g := convGeom{outH: out[0], outW: out[1], k: k, pad: pad}
					g.inH, g.inW = g.outH-1+k-2*pad, g.outW-1+k-2*pad
					if g.inH < 1 || g.inW < 1 {
						continue
					}
					for _, outC := range outCs {
						g.inC, g.outC = 1+n%3, outC
						visit(g, n)
						n++
					}
				}
			}
		}
	}
	outCs := []int{1, 3, 4, 5, 33}
	grid([][2]int{{1, 1}, {1, 3}, {2, 2}, {2, 3}, {3, 5}, {4, 4}, {17, 1}, {8, 8}, {25, 40}}, []int{1, 3, 5}, outCs)
	var tiles [][2]int
	for _, outH := range []int{1, 2, 7} {
		for _, outW := range []int{2, 5, 8, 15, 16, 17, 32, 33} {
			tiles = append(tiles, [2]int{outH, outW})
		}
	}
	grid(tiles, []int{3}, outCs)
	grid([][2]int{{4, 4}}, []int{3}, []int{1, 7, 8, 9, 16})
	grid([][2]int{{2, 2}}, []int{3}, []int{3, 23, 26, 32})
}

// TestKernelsMatchGeneric holds every assembly rung this CPU has to the
// Go loops, one subtest per rung: a rung the CPU lacks shows as skipped.
func TestKernelsMatchGeneric(t *testing.T) {
	forEachRung(t, isaRungs[1:], func(t *testing.T, l isaRung) {
		convCases(func(g convGeom, n int) { checkConvCase(t, g, int64(n), n, l) })

		rng := rand.New(rand.NewSource(1))
		fill := func(xs []float64) { fillSpecial(rng, xs, 3) }
		clamped := allocExact(t, len(special))
		reluForward(clamped, special)
		sameBits(t, "relu of ±0, NaN, ±Inf, ±denormal, ±1", []float64{0, 0, 0, math.Inf(1), 0, 5e-324, 0, 1, 0}, clamped)
		for _, n := range []int{0, 1, 3, 4, 5, 7, 8, 9, 1000} {
			src := allocExact(t, n)
			fill(src)
			generic, simd := allocExact(t, n), allocExact(t, n)
			withRung(isaRungs[0], func() { reluForward(generic, src) })
			reluForward(simd, src)
			sameBits(t, fmt.Sprintf("relu n=%d", n), generic, simd)
			reluForward(src, src) // in place
			sameBits(t, fmt.Sprintf("relu in place n=%d", n), generic, src)
		}
		// Pools of output width 1, 2 and 3 (pool2x2Go alone) and 6 (four
		// outputs a row in assembly, two in Go) get NaN and ±0 windows: the
		// 256 windows of four values from {+0, −0, NaN, 1}, every order of
		// each, are written over their windows, as many as they have.
		zeroNaN := []float64{0, math.Copysign(0, -1), math.NaN(), 1}
		for _, g := range []convGeom{
			{inC: 3, inH: 2, inW: 8}, {inC: 2, inH: 9, inW: 17},
			{inC: 5, inH: 32, inW: 32}, {inC: 1, inH: 4, inW: 4},
			{inC: 2, inH: 7, inW: 9}, {inC: 2, inH: 5, inW: 3},
			{inC: 256, inH: 2, inW: 2}, {inC: 64, inH: 4, inW: 5},
			{inC: 43, inH: 3, inW: 6}, {inC: 22, inH: 4, inW: 13},
		} {
			g.outC, g.outH, g.outW = g.inC, g.inH/2, g.inW/2
			src := allocExact(t, g.inSize())
			fill(src)
			if g.outW%4 != 0 {
				inHW := g.inH * g.inW
				for w := 0; w < 256; w++ { // window w: element j is zeroNaN[w>>2j & 3]
					c, at := w%g.inC, w/g.inC%(g.outH*g.outW)
					at = at/g.outW*2*g.inW + at%g.outW*2
					for j, off := range []int{0, 1, g.inW, g.inW + 1} {
						src[c*inHW+at+off] = zeroNaN[w>>(2*j)&3]
					}
				}
			}
			naive := make([]float64, g.outSize())
			for i := range naive {
				c, oy, ox := i/(g.outH*g.outW), i/g.outW%g.outH, i%g.outW
				at := c*g.inH*g.inW + 2*oy*g.inW + 2*ox
				naive[i] = src[at]
				for ky := 0; ky < 2; ky++ {
					for kx := 0; kx < 2; kx++ {
						if v := src[at+ky*g.inW+kx]; v > naive[i] {
							naive[i] = v
						}
					}
				}
			}
			generic, simd := allocExact(t, g.outSize()), allocExact(t, g.outSize())
			withRung(isaRungs[0], func() { g.poolForward(src, generic, g.outW, g.outH*g.outW) })
			sameBits(t, fmt.Sprintf("pool %+v: Go loops against the naive loop nest", g), naive, generic)
			g.poolForward(src, simd, g.outW, g.outH*g.outW)
			sameBits(t, fmt.Sprintf("pool %+v", g), generic, simd)
			// The same planes as a sample-minor batch of g.inC one-channel
			// samples, as the masked walk's tail pools them.
			one, batch, minor := g, make([]float64, len(src)), make([]float64, g.outSize())
			one.inC, one.outC = 1, 1
			transpose(batch, src, g.inC, g.inH*g.inW)
			one.poolMinor(batch, minor, g.inC)
			transpose(simd, minor, g.outH*g.outW, g.inC)
			sameBits(t, fmt.Sprintf("pool %+v sample-minor", g), generic, simd)
			for _, r := range []isaRung{isaRungs[0], l} {
				into := fmt.Sprintf("pool %+v: %s into a bordered plane", g, r.name)
				sameBits(t, into, generic, bordered(t, into, g.inC, g.outH, g.outW, 1, func(os []float64, oRow, oCh int) {
					withRung(r, func() { g.poolForward(src, os, oRow, oCh) })
				}))
			}
		}
	})
}

// special is the values kernel tests seed their operands with.
var special = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, -5e-324, 1, -1}

// fillSpecial fills xs with normal draws, one in oneIn of them replaced
// by a value from special.
func fillSpecial(rng *rand.Rand, xs []float64, oneIn int) {
	for i := range xs {
		if xs[i] = rng.NormFloat64(); rng.Intn(oneIn) == 0 {
			xs[i] = special[rng.Intn(len(special))]
		}
	}
}

// denseMask draws one of the masks a dense layer sees: nil, random, all
// pruned, one live.
func denseMask(rng *rand.Rand, kind, out int) []bool {
	if kind%4 == 0 {
		return nil
	}
	m := make([]bool, out)
	for o := range m {
		m[o] = kind%4 != 1 || rng.Intn(2) == 0
	}
	if kind%4 == 3 {
		m[rng.Intn(out)] = false
	}
	return m
}

// checkDenseCase runs one dense shape through a naive loop, the Go loop
// and each given rung: the n-row batch under the mask, as masked Infer
// and training run it, and then every row alone, unmasked, through the
// compiled plan's batch-1 op (a panel from 16 neurons up), plain and
// with its fused ReLU, on the Go loops and each rung. Every operand, the
// panel and the plan's filter included, ends at a guard page. Weights, biases and inputs are seeded
// with ±0, NaN, ±Inf and subnormals: one value in three in half the
// cases, so most sums are NaN or infinite, and one in 4·in in the rest,
// so most are finite.
func checkDenseCase(t testing.TB, n, in, out int, seed int64, maskKind int, rungs ...isaRung) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	what := fmt.Sprintf("dense n=%d in=%d out=%d mask %d seed %d", n, in, out, maskKind%4, seed)
	x, wd, bd := allocExact(t, n*in), allocExact(t, out*in), allocExact(t, out)
	for _, xs := range [][]float64{x, wd, bd} {
		fillSpecial(rng, xs, []int{3, 4 * in}[seed&1])
	}
	pruned := denseMask(rng, maskKind, out)
	naive := make([]float64, n*out)
	for s := 0; s < n; s++ {
		for o := 0; o < out; o++ {
			if pruned != nil && pruned[o] {
				continue
			}
			acc := bd[o]
			for i := 0; i < in; i++ {
				acc = math.FMA(wd[o*in+i], x[s*in+i], acc)
			}
			naive[s*out+o] = acc
		}
	}
	run := func(l isaRung, pruned []bool, relu bool) []float64 {
		got := allocExact(t, n*out)
		for i := range got {
			got[i] = math.NaN() // a pooled slab arrives dirty
		}
		withRung(l, func() { denseForward(x, wd, bd, got, n, in, out, pruned, relu) })
		return got
	}
	generic := run(isaRungs[0], pruned, false)
	sameValues(t, what+": Go loop against the naive loop", naive, generic)
	clamped := make([]float64, len(generic))
	reluForward(clamped, generic)
	for _, l := range rungs {
		sameValues(t, what+": "+l.name+" against the Go loop", generic, run(l, pruned, false))
	}
	for _, l := range append([]isaRung{isaRungs[0]}, rungs...) {
		sameValues(t, what+": "+l.name+" with its ReLU folded in", clamped, run(l, pruned, true))
	}

	full := generic
	if pruned != nil {
		full = run(isaRungs[0], nil, false)
	}
	op := newDenseOp(wd, bd, in, out)
	panel := allocExact(t, len(op.pk))
	copy(panel, op.pk)
	op.pk = panel
	filter, got := allocExact(t, in+1), allocExact(t, out)
	for _, relu := range []bool{false, true} {
		op.relu = relu
		for _, l := range append([]isaRung{isaRungs[0]}, rungs...) {
			for s := 0; s < n; s++ {
				for i := range filter {
					filter[i] = math.NaN() // the arena arrives dirty
				}
				withRung(l, func() { op.run(x[s*in:(s+1)*in], got, filter) })
				want := append([]float64(nil), full[s*out:(s+1)*out]...)
				for o, v := range want {
					if relu && !(v > 0) {
						want[o] = 0
					}
				}
				sameValues(t, fmt.Sprintf("%s row %d relu %v: %s plan op against the Go loop", what, s, relu, l.name), want, got)
			}
		}
	}
}

// TestDenseMatchesGeneric holds the dense lowerings — the batch as a 1×1
// conv over its transposed rows, and the plan's batch-1 op (on AVX-512
// the channel-lane tile, 32 neurons a call: 10, 17, 70 and 128 outputs
// fill it partly, unevenly and four times) — to the Go loop on every
// rung this CPU has, one subtest per rung and batch size.
func TestDenseMatchesGeneric(t *testing.T) {
	sizes := []int{1, 3, 4, 10, 15, 16, 17, 70, 128}
	forEachRung(t, isaRungs[1:], func(t *testing.T, l isaRung) {
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 32} {
			t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
				seed := int64(n) << 16
				for _, in := range sizes {
					for _, out := range sizes {
						for mask := 0; mask < 4; mask++ {
							checkDenseCase(t, n, in, out, seed, mask, l)
							seed++
						}
					}
				}
			})
		}
	})
}

// FuzzDenseKernel searches TestDenseMatchesGeneric's space for a shape,
// mask or value pattern on which a dense lowering and the Go loop
// disagree, or a rung reads or writes past its operands.
func FuzzDenseKernel(f *testing.F) {
	f.Add(int64(0), uint8(0), uint8(127), uint8(127), uint8(0))
	f.Add(int64(1), uint8(15), uint8(31), uint8(127), uint8(1))
	f.Add(int64(2), uint8(16), uint8(2), uint8(9), uint8(2))
	f.Add(int64(3), uint8(31), uint8(16), uint8(16), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, n, in, out, maskKind uint8) {
		checkDenseCase(t, 1+int(n)%40, 1+int(in)%160, 1+int(out)%160, seed, int(maskKind), hostRungs()[1:]...)
	})
}

// FuzzConvKernel searches the same space as TestKernelsMatchGeneric's
// conv table for a geometry, mask or weight pattern on which an assembly
// rung and the Go loops disagree, or a rung leaves its buffers or stores
// into a bordered destination's border.
func FuzzConvKernel(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(32), uint8(32), uint8(4), uint8(3), uint8(1), uint8(0))
	f.Add(int64(2), uint8(12), uint8(4), uint8(4), uint8(16), uint8(3), uint8(1), uint8(1))
	f.Add(int64(3), uint8(3), uint8(9), uint8(7), uint8(5), uint8(5), uint8(0), uint8(3))
	f.Add(int64(4), uint8(2), uint8(1), uint8(17), uint8(33), uint8(1), uint8(0), uint8(2))
	// 3×3 pad 1 on planes 2×2 and 7×2 (two rows of two to a tile), 7×8
	// (the ZMM tile, or 4-wide tiles), 1×8 (4-wide tiles) and 2×33 (the
	// ZMM tile, or 16-wide).
	for i, hw := range [][2]uint8{{1, 1}, {6, 1}, {6, 7}, {0, 7}, {1, 32}} {
		f.Add(int64(5+i), uint8(i), hw[0], hw[1], uint8(32+i), uint8(2), uint8(1), uint8(i))
	}
	f.Fuzz(func(t *testing.T, seed int64, inC, inH, inW, outC, k, pad, maskKind uint8) {
		g := convGeom{
			inC: 1 + int(inC)%8, inH: 1 + int(inH)%40, inW: 1 + int(inW)%40, outC: 1 + int(outC)%40,
			k: 1 + int(k)%5, pad: int(pad) % 3,
		}
		g.outH, g.outW = g.inH+2*g.pad-g.k+1, g.inW+2*g.pad-g.k+1
		if g.inH+2*g.pad < g.k || g.inW+2*g.pad < g.k {
			t.Skip()
		}
		checkConvCase(t, g, seed, int(maskKind), hostRungs()[1:]...)
	})
}

// TestGenericKernels keeps the lower rungs from rotting on a fleet that
// never dispatches to them: the golden forward and the bit-identity
// properties, again, on every rung below this CPU's top one (which every
// other test runs).
func TestGenericKernels(t *testing.T) {
	top := hostRungs()[len(hostRungs())-1]
	for _, c := range []struct {
		name string
		test func(*testing.T)
	}{
		{"ForwardGolden", TestForwardGolden},
		{"CompiledInferBitIdenticalProperty", TestCompiledInferBitIdenticalProperty},
		{"CompiledInferDirtyScratch", TestCompiledInferDirtyScratch},
		{"InferMatchesForward", TestInferMatchesForward},
		{"InferBatchEqualsPerSample", TestInferBatchEqualsPerSample},
	} {
		t.Run(c.name, func(t *testing.T) {
			forEachRung(t, isaRungs, func(t *testing.T, l isaRung) {
				if l == top {
					t.Skip("this CPU's top rung: every other test runs it")
				}
				c.test(t)
			})
		})
	}
}

// BenchmarkKernels is the per-op attribution of one forward: every
// distinct layer geometry of the reference VGG on each rung of the
// dispatch ladder, then every op of a served plan, in GFLOP/s and ns per
// multiply-accumulate (ns per element for the passes that do not
// multiply).
func BenchmarkKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	random := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		return xs
	}
	// row times run as name on this CPU's top rung when rungs is nil, else
	// as name/<rung> for each, and reports ns per unit of work (nothing
	// beyond ns/op when work is 0).
	row := func(name string, rungs []isaRung, work int, unit string, run func()) {
		timed := func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run()
			}
			if work == 0 {
				return
			}
			perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(perOp/float64(work), unit)
			if unit == "ns/MAC" {
				b.ReportMetric(2*float64(work)/perOp, "GFLOP/s")
			}
		}
		if rungs == nil {
			b.Run(name, timed)
			return
		}
		for _, l := range rungs {
			b.Run(name+"/"+l.name, func(b *testing.B) {
				if !l.onHost() {
					b.Skipf("this CPU has no %s", l.name)
				}
				withRung(l, func() { timed(b) })
			})
		}
	}
	// conv/* is the whole conv from the input slab (pad copy + MACs), as
	// masked Infer and training run it; pad/* is the copy alone, which a
	// served plan pays only for its first conv. backward/im2col/* is a
	// pass only training runs. ReLU and pool have no AVX-512 form.
	twoRungs := isaRungs[:2]
	for _, l := range [][3]int{{1, 4, 32}, {4, 4, 32}, {4, 8, 16}, {8, 8, 16}, {8, 12, 8}, {12, 12, 8}, {12, 16, 4}, {16, 16, 4}, {16, 32, 2}, {32, 32, 2}} {
		g := convGeom{inC: l[0], inH: l[2], inW: l[2], outC: l[1], outH: l[2], outW: l[2], k: 3, pad: 1}
		x, pad, offs, cols := random(g.inSize()), make([]float64, g.padSize()), g.tapOffsets(nil), make([]float64, g.colsSize())
		wd, bd, os := random(g.outC*g.inC*9), random(g.outC), make([]float64, g.outSize())
		name := fmt.Sprintf("%dx%dx%d", l[0], l[1], l[2])
		row("conv/"+name, isaRungs, g.colsSize()*g.outC, "ns/MAC", func() { g.convForward(x, pad, offs, wd, bd, os, nil, true) })
		row("pad/"+name, nil, len(pad), "ns/elem", func() { g.padInput(x, pad, 1) })
		row("backward/im2col/"+name, nil, len(cols), "ns/elem", func() { g.im2col(x, pad, offs, cols) })
	}
	// dense/n1/* is a compiled plan's batch-1 dense op (its panel, the
	// filter copy included; on the generic rung the Go conv loop sweeps the
	// panel), dense/n16/* a 16-row replay shard through masked Infer's
	// kernel (the Go loop on the generic rung, the 1×1 conv over the
	// transposed rows above it).
	for _, l := range [][2]int{{32, 128}, {128, 128}, {128, 10}} {
		in, out := l[0], l[1]
		wd, bd, x1, x16 := random(in*out), random(out), random(in), random(16*in)
		op, arena, od := newDenseOp(wd, bd, in, out), make([]float64, in+1), make([]float64, 16*out)
		name := fmt.Sprintf("%dx%d", in, out)
		row("dense/n1/"+name, isaRungs, in*out, "ns/MAC", func() { op.run(x1, od, arena) })
		row("dense/n16/"+name, isaRungs, 16*in*out, "ns/MAC", func() { denseForward(x16, wd, bd, od, 16, in, out, nil, false) })
	}
	src, dst := random(4096), make([]float64, 4096)
	row("relu/4096", twoRungs, 4096, "ns/elem", func() { reluForward(dst, src) })
	pool := convGeom{inC: 4, inH: 32, inW: 32, outC: 4, outH: 16, outW: 16}
	row("pool/4x32to16", twoRungs, pool.outSize(), "ns/elem", func() { pool.poolForward(src, dst, pool.outW, pool.outH*pool.outW) })

	// plan-M/* is one request's forward through a served plan: the cifar10
	// fixture compiled under TestForwardGolden's real CAP'NN-M masks (the
	// benchmark's first new-user key), so the split is that of what the
	// benchmark serves — its unpruned ten-conv prefix beside the pruned
	// suffix — not of the unpruned net. One row per op on this CPU's top
	// rung, each from the input the op sees in the forward, on the plan's
	// own arena, then the subtotals: conv MACs (with their strided stores
	// into the next conv's plane), the pad copy (op 0's, of the request:
	// the only one left), dense (each with its fused ReLU), pool/ReLU,
	// convs 1–7 whole (the ≥ 8-wide planes the ZMM tile takes) and the
	// whole forward. plan-0/sum/* is the same subtotals for the unpruned
	// plan, which the guard's shadow samples and the fallback run.
	net := loadFixtureNet(b, "cifar10")
	mMasks, _ := parseMasks(forwardGoldens[0].mMasks)
	for _, p := range []struct {
		name  string
		masks map[int][]bool
	}{{"plan-M", mMasks}, {"plan-0", nil}} {
		plan, err := Compile(net, p.masks)
		if err != nil {
			b.Fatal(err)
		}
		x, logits := random(plan.inSize), make([]float64, plan.outSize)
		arena := *plan.pool.New().(*[]float64)
		ins, outs := make([][]float64, len(plan.ops)), make([][]float64, len(plan.ops))
		var convs, dense, poolReLU []int
		macs := 0
		for i, in := 0, x; i < len(plan.ops); i++ {
			op := &plan.ops[i]
			ins[i], outs[i] = in, plan.dst(i, logits, arena)
			op.run(in, outs[i], arena)
			in = outs[i]
			work, unit, name := op.out, "ns/elem", ""
			switch op.kind {
			case opConv:
				work, unit = op.g.inC*op.g.k*op.g.k*op.g.outSize(), "ns/MAC"
				name, convs, macs = fmt.Sprintf("conv-%dx%dx%d", op.g.inC, op.g.outC, op.g.outW), append(convs, i), macs+work
			case opDense:
				work, unit = op.in*op.out, "ns/MAC"
				name, dense = fmt.Sprintf("dense-%dx%d", op.in, op.out), append(dense, i)
			case opPool:
				name, poolReLU = fmt.Sprintf("pool-%dx%d", op.g.inC, op.g.outW), append(poolReLU, i)
			case opReLU:
				name, poolReLU = "relu", append(poolReLU, i)
			}
			if p.masks != nil {
				row(fmt.Sprintf("%s/op%02d-%s", p.name, i, name), nil, work, unit, func() { op.run(ins[i], outs[i], arena) })
			}
		}
		each := func(ops []int, f func(op *compiledOp, i int)) func() {
			return func() {
				for _, i := range ops {
					f(&plan.ops[i], i)
				}
			}
		}
		run := func(op *compiledOp, i int) { op.run(ins[i], outs[i], arena) }
		plane := func(op *compiledOp) []float64 { return arena[op.plane:][:op.g.padSize()] }
		row(p.name+"/sum/conv-mac", isaRungs, macs, "ns/MAC", each(convs, func(op *compiledOp, i int) {
			op.macs(plane(op), outs[i])
		}))
		row(p.name+"/sum/pad", nil, 0, "", each(convs, func(op *compiledOp, i int) {
			if op.padIn {
				op.g.padInput(ins[i], plane(op), 1)
			}
		}))
		row(p.name+"/sum/dense", isaRungs, 0, "", each(dense, run))
		row(p.name+"/sum/pool-relu", twoRungs, 0, "", each(poolReLU, run))
		row(p.name+"/sum/convs1-7", isaRungs, 0, "", each(convs[:7], run))
		row(p.name+"/sum/forward", isaRungs, 0, "", func() { plan.forward(x, logits, 1, nil) })
	}
	// suffix/n16/* is a 16-row replay shard of an ε check: InferLayers from
	// the fixture's first pruned stage on (three 32-channel convs on 2×2
	// planes, a pool, three dense layers) under the M masks — sample-minor
	// on the AVX2 rungs, image by image on the generic one.
	const first = 10
	for i, l := range net.Layers {
		if l == net.Stages()[first].Unit {
			suffix, in := net.Layers[i:], InferLayers(net.Layers[:i], 0, nil, randBatch(16, net.InShape, 1))
			row("suffix/n16", isaRungs, 0, "", func() { InferLayers(suffix, first, mMasks, in) })
		}
	}
}
