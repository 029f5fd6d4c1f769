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

// withGeneric runs f with the assembly switched off, as on a CPU
// without AVX2 or another GOARCH.
func withGeneric(f func()) {
	defer func(old bool) { useAVX2 = old }(useAVX2)
	useAVX2 = false
	f()
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
// through three implementations — the naive loop nest written out below, the Go loop and the assembly — on an input slab, pad plane,
// weights and outputs that each end at a guard page, and demands
// identical bits. The pad plane arrives full of NaN: a border cell the
// kernel fails to zero poisons an output. It also holds im2col
// (Backward's gather) to its definition, tap by tap.
func checkConvCase(t testing.TB, g convGeom, seed int64, maskKind int) {
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
		iy, ix := p/g.outW*g.stride-g.pad+ky, p%g.outW*g.stride-g.pad+kx
		if iy < 0 || iy >= g.inH || ix < 0 || ix >= g.inW {
			return 0
		}
		return x[(ic*g.inH+iy)*g.inW+ix]
	}
	cols := make([]float64, g.colsSize())
	for i := range cols {
		cols[i] = math.NaN() // im2col must overwrite every entry
	}
	pad, offs := allocExact(t, g.padSize()), g.tapOffsets()
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
								acc += float64(wd[((oc*g.inC+ic)*g.k+ky)*g.k+kx] * tap((ic*g.k+ky)*g.k+kx, oy*g.outW+ox))
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
		generic, simd := allocExact(t, g.outSize()), allocExact(t, g.outSize())
		dirtyPad()
		withGeneric(func() { g.convForward(x, pad, offs, wd, bd, generic, pruned, relu) })
		dirtyPad()
		g.convForward(x, pad, offs, wd, bd, simd, pruned, relu)
		sameBits(t, fmt.Sprintf("%s relu %v: Go loop against the naive loop nest", what, relu), naive, generic)
		sameBits(t, fmt.Sprintf("%s relu %v: assembly against the Go loop", what, relu), generic, simd)
	}
}

// convCases spans what the fixtures never hit. The first grid: output
// planes of 1, 3, 4, 6, 15, 16, 17, 64 and 1000 positions, kernels
// 1/3/5, stride 2, pad 0, and channel counts that are not multiples of
// the four-channel tile. The second, 3×3 only, walks the tile shapes:
// widths 2 and 8 (two rows to a tile from two rows up, the Go loop or
// the 4-wide tile on a single row), 5 and 15 (4-wide, overlapping last
// tile), 16, 17, 32, 33 (16-wide, overlapping last tile), each 1, 2 and
// 7 rows high (7: the two-row tiles' last pair overlaps).
func convCases(visit func(g convGeom, n int)) {
	n := 0
	grid := func(outs [][2]int, ks []int) {
		for _, out := range outs {
			for _, k := range ks {
				for _, stride := range []int{1, 2} {
					for _, pad := range []int{0, k / 2} {
						g := convGeom{outH: out[0], outW: out[1], k: k, stride: stride, pad: pad}
						g.inH, g.inW = (g.outH-1)*stride+k-2*pad, (g.outW-1)*stride+k-2*pad
						if g.inH < 1 || g.inW < 1 {
							continue
						}
						for _, outC := range []int{1, 3, 4, 5, 33} {
							g.inC, g.outC = 1+n%3, outC
							visit(g, n)
							n++
						}
					}
				}
			}
		}
	}
	grid([][2]int{{1, 1}, {1, 3}, {2, 2}, {2, 3}, {3, 5}, {4, 4}, {17, 1}, {8, 8}, {25, 40}}, []int{1, 3, 5})
	var tiles [][2]int
	for _, outH := range []int{1, 2, 7} {
		for _, outW := range []int{2, 5, 8, 15, 16, 17, 32, 33} {
			tiles = append(tiles, [2]int{outH, outW})
		}
	}
	grid(tiles, []int{3})
}

func TestKernelsMatchGeneric(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this machine: the Go loops are the only path")
	}
	convCases(func(g convGeom, n int) { checkConvCase(t, g, int64(n), n) })

	special := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, -5e-324, 1, -1}
	rng := rand.New(rand.NewSource(1))
	fill := func(xs []float64) {
		for i := range xs {
			if xs[i] = rng.NormFloat64(); rng.Intn(3) == 0 {
				xs[i] = special[rng.Intn(len(special))]
			}
		}
	}
	clamped := allocExact(t, len(special))
	reluForward(clamped, special)
	sameBits(t, "relu of ±0, NaN, ±Inf, ±denormal, ±1", []float64{0, 0, 0, math.Inf(1), 0, 5e-324, 0, 1, 0}, clamped)
	for _, n := range []int{0, 1, 3, 4, 5, 7, 8, 9, 1000} {
		src := allocExact(t, n)
		fill(src)
		generic, simd := allocExact(t, n), allocExact(t, n)
		withGeneric(func() { reluForward(generic, src) })
		reluForward(simd, src)
		sameBits(t, fmt.Sprintf("relu n=%d", n), generic, simd)
		reluForward(src, src) // in place
		sameBits(t, fmt.Sprintf("relu in place n=%d", n), generic, src)
	}
	for _, g := range []convGeom{
		{inC: 3, inH: 2, inW: 8, k: 2, stride: 2}, {inC: 2, inH: 9, inW: 17, k: 2, stride: 2},
		{inC: 5, inH: 32, inW: 32, k: 2, stride: 2}, {inC: 1, inH: 4, inW: 4, k: 2, stride: 2},
		{inC: 2, inH: 7, inW: 9, k: 3, stride: 2}, {inC: 2, inH: 5, inW: 9, k: 2, stride: 1},
	} {
		g.outC, g.outH, g.outW = g.inC, (g.inH-g.k)/g.stride+1, (g.inW-g.k)/g.stride+1
		src := allocExact(t, g.inSize())
		fill(src)
		generic, simd := allocExact(t, g.outSize()), allocExact(t, g.outSize())
		withGeneric(func() { g.poolForward(src, generic) })
		g.poolForward(src, simd)
		sameBits(t, fmt.Sprintf("pool %+v", g), generic, simd)
	}
}

// FuzzConvKernel searches the same space as TestKernelsMatchGeneric's
// conv table for a geometry, mask or weight pattern on which the
// assembly and the Go loops disagree (or the assembly leaves its
// buffers).
func FuzzConvKernel(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(32), uint8(32), uint8(4), uint8(3), uint8(1), uint8(1), uint8(0))
	f.Add(int64(2), uint8(12), uint8(4), uint8(4), uint8(16), uint8(3), uint8(1), uint8(1), uint8(1))
	f.Add(int64(3), uint8(3), uint8(9), uint8(7), uint8(5), uint8(5), uint8(2), uint8(0), uint8(3))
	f.Add(int64(4), uint8(2), uint8(1), uint8(17), uint8(33), uint8(1), uint8(1), uint8(0), uint8(2))
	// 3×3 stride 1 pad 1 on planes 2×2 and 7×2 (two rows of two to a tile),
	// 7×8 (two rows of eight), 1×8 (4-wide tiles) and 2×33 (16-wide).
	for i, hw := range [][2]uint8{{1, 1}, {6, 1}, {6, 7}, {0, 7}, {1, 32}} {
		f.Add(int64(5+i), uint8(i), hw[0], hw[1], uint8(32+i), uint8(2), uint8(0), uint8(1), uint8(i))
	}
	f.Fuzz(func(t *testing.T, seed int64, inC, inH, inW, outC, k, stride, pad, maskKind uint8) {
		g := convGeom{
			inC: 1 + int(inC)%8, inH: 1 + int(inH)%40, inW: 1 + int(inW)%40, outC: 1 + int(outC)%40,
			k: 1 + int(k)%5, stride: 1 + int(stride)%3, pad: int(pad) % 3,
		}
		g.outH, g.outW = (g.inH+2*g.pad-g.k)/g.stride+1, (g.inW+2*g.pad-g.k)/g.stride+1
		if g.inH+2*g.pad < g.k || g.inW+2*g.pad < g.k {
			t.Skip()
		}
		checkConvCase(t, g, seed, int(maskKind))
	})
}

// TestGenericKernels keeps the fallback from rotting on an all-AVX2
// fleet: the golden forward and the two bit-identity properties, again,
// on the Go loops.
func TestGenericKernels(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this machine: every other test already ran the Go loops")
	}
	withGeneric(func() {
		t.Run("ForwardGolden", TestForwardGolden)
		t.Run("CompiledInferBitIdenticalProperty", TestCompiledInferBitIdenticalProperty)
		t.Run("InferMatchesForward", TestInferMatchesForward)
	})
}

// BenchmarkKernels is the per-op attribution of one forward of the
// reference VGG: every distinct layer geometry, Go loops beside
// assembly, in GFLOP/s and ns per multiply-accumulate (ns per element
// for the passes that do not multiply).
func BenchmarkKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	random := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		return xs
	}
	// row times run as name (one path: Go on every platform) or as
	// name/generic and name/simd, and reports ns per unit of work.
	row := func(name string, paths []string, work int, unit string, run func()) {
		for _, path := range paths {
			b.Run(name+path, func(b *testing.B) {
				if path == "/simd" && !useAVX2 {
					b.Skip("no AVX2")
				}
				loop := func() {
					for i := 0; i < b.N; i++ {
						run()
					}
				}
				if path == "/generic" {
					withGeneric(loop)
				} else {
					loop()
				}
				perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				b.ReportMetric(perOp/float64(work), unit)
				if unit == "ns/MAC" {
					b.ReportMetric(2*float64(work)/perOp, "GFLOP/s")
				}
			})
		}
	}
	goOnly, bothPaths := []string{""}, []string{"/generic", "/simd"}
	// conv/* is the whole conv from the input slab (pad copy + MACs), so
	// the conv, dense, relu and pool rows sum to one forward; pad/* is the
	// copy alone. backward/im2col/* is a pass only training runs.
	for _, l := range [][3]int{{1, 4, 32}, {4, 4, 32}, {4, 8, 16}, {8, 8, 16}, {8, 12, 8}, {12, 12, 8}, {12, 16, 4}, {16, 16, 4}, {16, 32, 2}, {32, 32, 2}} {
		g := convGeom{inC: l[0], inH: l[2], inW: l[2], outC: l[1], outH: l[2], outW: l[2], k: 3, stride: 1, pad: 1}
		x, pad, offs, cols := random(g.inSize()), make([]float64, g.padSize()), g.tapOffsets(), make([]float64, g.colsSize())
		wd, bd, os := random(g.outC*g.inC*9), random(g.outC), make([]float64, g.outSize())
		name := fmt.Sprintf("%dx%dx%d", l[0], l[1], l[2])
		row("conv/"+name, bothPaths, g.colsSize()*g.outC, "ns/MAC", func() { g.convForward(x, pad, offs, wd, bd, os, nil, true) })
		row("pad/"+name, goOnly, len(pad), "ns/elem", func() { g.padInput(x, pad) })
		row("backward/im2col/"+name, goOnly, len(cols), "ns/elem", func() { g.im2col(x, pad, offs, cols) })
	}
	for _, l := range [][2]int{{32, 128}, {128, 128}, {128, 10}} {
		x, wd, bd, od := random(l[0]), random(l[0]*l[1]), random(l[1]), make([]float64, l[1])
		row(fmt.Sprintf("dense/%dx%d", l[0], l[1]), goOnly, l[0]*l[1], "ns/MAC", func() { denseForward(x, wd, bd, od, 1, l[0], l[1], nil) })
	}
	src, dst := random(4096), make([]float64, 4096)
	row("relu/4096", bothPaths, 4096, "ns/elem", func() { reluForward(dst, src) })
	pool := convGeom{inC: 4, inH: 32, inW: 32, outC: 4, outH: 16, outW: 16, k: 2, stride: 2}
	row("pool/4x32to16", bothPaths, pool.outSize(), "ns/elem", func() { pool.poolForward(src, dst) })
}
