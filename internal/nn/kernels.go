package nn

import (
	"math"
	"slices"
	"sync"
)

// This file is the one compute kernel in the repository. Training
// (Conv2D/Dense/ReLU Forward and Backward), stateless serving
// (Network.Infer), core's replay evaluator and the compiled plan all
// route through these functions, so there is a single place where the
// arithmetic — and, critically, its accumulation order — is defined.
//
// The conv kernel is a direct convolution on register tiles over a
// zero-bordered padded plane of the sample's input — written by padInput
// here, or by the compiled plan's previous op storing into its interior
// — where every live output element starts at its bias and adds
// w[oc,r]·tap[r] for r = (ic, ky, kx) ascending — each step a fused
// multiply-add, acc + w·tap rounded once (math.FMA) — reading each tap
// from the plane (TestForwardGolden and the Infer ≡ Forward tests pin
// the bits). A dense layer is the same arithmetic as a 1×1 conv and runs
// on the same tiles (denseForward, newDenseOp). The masked walk's tail
// runs the same tiles over a sample-minor batch — the n samples of a
// position side by side, one padded plane for the batch, each output
// position a tile row of n samples (convMinor, poolMinor).
// The Go loops below are the definition.
// On amd64 with AVX2 and FMA (CPUID, checked once at init: useAVX2) the
// conv MACs, the ReLU clamp and the 2×2 max-pool run kernels_amd64.s
// instead: four float64 lanes wide, the same operations in the same
// order per output element, so every path returns identical bits
// (TestKernelsMatchGeneric, TestDenseMatchesGeneric). With AVX-512 as
// well (useAVX512: CPUID and XCR0) the conv MACs of planes at least 8
// wide and 2 high, or 4 wide and 4 high, run eight-lane tiles of the same
// arithmetic, and a compiled plan's dense ops, and its convs with a fused
// ReLU on 4×4 and 2×2 planes, run channel-lane tiles over weights packed
// tap-major at compile time (packLanes), each output still its bias, then
// every tap in ascending order — on those convs every tap inside the
// plane: a border tap adds w·(+0), which the clamp makes the same
// (fuseReLU, DESIGN §6). A compiled plan's conv followed by a pool
// stores the pool's output alone (pooledMACs): clamped, then compared
// window by window in poolForward's order. The assembly does no bounds
// checks: every call site proves the extents it passes in Go first.
//
// Scratch (pad planes, Backward's column matrices, a dense layer's
// transposed batch and tap table) comes from a sync.Pool, so the training
// loop and concurrent serving goroutines stop allocating a fresh buffer
// per call.

// scratch recycles slices of T across kernel calls.
type scratch[T any] struct{ sync.Pool }

var (
	floatScratch scratch[float64]
	intScratch   scratch[int]
)

// get returns a length-n scratch slice (contents undefined); Put returns
// it to the pool.
func (s *scratch[T]) get(n int) *[]T {
	bp, _ := s.Get().(*[]T)
	if bp == nil {
		bp = new([]T)
	}
	if cap(*bp) < n {
		*bp = make([]T, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// convGeom captures the static geometry of a step-1 conv so the kernel
// can run without touching layer state: a Conv2D's 3×3 at pad 1, a dense
// layer's 1×1 form (denseGeom, newDenseOp), or a 2×2 pool's planes
// (k and pad unused).
type convGeom struct {
	inC, inH, inW    int
	outC, outH, outW int
	k, pad           int
}

func (c *Conv2D) geom() convGeom {
	return convGeom{
		inC: c.inC, inH: c.inH, inW: c.inW,
		outC: c.outC, outH: c.inH, outW: c.inW,
		k: convK, pad: convPad,
	}
}

// inSize and outSize are one sample's input/output element counts;
// padSize is the zero-padded input plane [inC, inH+2·pad, inW+2·pad] the
// forward reads its taps from, colsSize the im2col matrix
// [inC·k·k, outH·outW] Backward gathers.
func (g convGeom) inSize() int   { return g.inC * g.inH * g.inW }
func (g convGeom) outSize() int  { return g.outC * g.outH * g.outW }
func (g convGeom) padSize() int  { return g.inC * (g.inH + 2*g.pad) * (g.inW + 2*g.pad) }
func (g convGeom) colsSize() int { return g.inC * g.k * g.k * g.outH * g.outW }

// tapOffsets is the per-geometry table that turns a weight column into
// an address: entry r = (ic, ky, kx) is the pad-plane index of the tap
// output position (0, 0) multiplies by w[oc, r]; position (oy, ox) reads
// oy·pw + ox further on, pw the padded row length. The table
// is appended to offs (nil, or pooled scratch).
func (g convGeom) tapOffsets(offs []int) []int {
	ph, pw := g.inH+2*g.pad, g.inW+2*g.pad
	for ic := 0; ic < g.inC; ic++ {
		for ky := 0; ky < g.k; ky++ {
			for kx := 0; kx < g.k; kx++ {
				offs = append(offs, (ic*ph+ky)*pw+kx)
			}
		}
	}
	return offs
}

// padInput writes the [inC, inH, inW] slab xs, whose cells are n floats
// each — one sample's slab at n = 1, a sample-minor batch of n otherwise —
// into the pad plane of n-float cells, +0 on the border: the value a
// padding tap contributes. Every float of pad's n·padSize() is written,
// so a plane reused across geometries carries nothing over.
func (g convGeom) padInput(xs, pad []float64, n int) {
	p, ph, pw, w := g.pad, g.inH+2*g.pad, (g.inW+2*g.pad)*n, g.inW*n
	for ic := 0; ic < g.inC; ic++ {
		plane := pad[ic*ph*pw : (ic+1)*ph*pw]
		at := p*pw + p*n // the top rows and the first row's left border
		clear(plane[:at])
		for y := 0; y < g.inH; y++ {
			copy(plane[at:at+w], xs[(ic*g.inH+y)*w:])
			clear(plane[at+w : at+pw]) // this row's right border, the next one's left
			at += pw
		}
		clear(plane[at:])
	}
}

// fillInterior copies the [inC, inH, inW] slab xs into the interior of
// the pad plane and leaves its border as it is: a compiled plan's, +0
// since its arena was allocated (lay).
func (g convGeom) fillInterior(xs, pad []float64) {
	ph, pw := g.inH+2*g.pad, g.inW+2*g.pad
	for ic := 0; ic < g.inC; ic++ {
		for y := 0; y < g.inH; y++ {
			copy(pad[(ic*ph+y+g.pad)*pw+g.pad:][:g.inW], xs[(ic*g.inH+y)*g.inW:])
		}
	}
}

// im2col gathers one sample's receptive fields (xs is that sample's
// [inC, inH, inW] slab) into cols [inC·k·k, outH·outW] for Backward, by
// way of the pad plane (scratch, as in convForward): row r of cols is
// the taps at offs[r], output row by output row, so padding taps read
// the border's zeros. Every cols entry is written.
func (g convGeom) im2col(xs, pad []float64, offs []int, cols []float64) {
	g.padInput(xs, pad, 1)
	outHW, pw := g.outH*g.outW, g.inW+2*g.pad
	for r, off := range offs {
		for oy := 0; oy < g.outH; oy++ {
			copy(cols[r*outHW+oy*g.outW:][:g.outW], pad[off+oy*pw:])
		}
	}
}

// convForward computes one sample's output slab os [outC, outH, outW]
// from its input slab xs: os[oc] = bias[oc] + Σ_r w[oc,r]·tap[r],
// accumulated in ascending r = (ic, ky, kx) order; relu clamps each
// output at +0 as it is stored (the compiled plan's fused conv+ReLU).
// pad is scratch for the padded plane (≥ padSize; arrives dirty), offs
// is the tapOffsets table. Pruned channels are skipped and stored +0, so
// os may arrive dirty too.
func (g convGeom) convForward(xs, pad []float64, offs []int, wd, bd, os []float64, pruned []bool, relu bool) {
	g.padInput(xs[:g.inSize()], pad, 1)
	g.convMACs(pad[:g.padSize()], offs, wd, bd, os, g.outW, g.outH*g.outW, pruned, relu)
	clearPruned(os, g.outH*g.outW, pruned)
}

// convMinor is convForward over a sample-minor batch: xs [inC][inH][inW][n]
// (the n samples of a position side by side) into os [outC][outH][outW][n].
// The batch is padded once, in n-float cells (an unpadded one is its own
// plane), and each output position runs the tiles over the window of the
// plane it reads, at tapOffsets scaled by n, as a 1×1 conv whose
// positions are the n samples: two rows of n/2 when n is even and at
// least 16, so the ZMM tile takes a 16-row replay shard, else one row.
// Every output is convForward's chain, bit for bit. Pruned channels are
// stored +0, so os may arrive dirty.
func (g convGeom) convMinor(xs, wd, bd, os []float64, n int, pruned []bool, relu bool) {
	rows, outHW, pw := g.inC*g.k*g.k, g.outH*g.outW, g.inW+2*g.pad
	plane := xs[:g.inSize()*n]
	if g.pad > 0 {
		pad := floatScratch.get(g.padSize() * n)
		defer floatScratch.Put(pad)
		g.padInput(plane, *pad, n)
		plane = *pad
	}
	ib := intScratch.get(rows + g.outC + 7) // the tap table, then live and a tile's padding
	offs := g.tapOffsets((*ib)[:0])
	for r := range offs {
		offs[r] *= n
	}
	h := 1
	if n%2 == 0 && n >= 16 {
		h = 2
	}
	b := convGeom{inC: rows, inH: h, inW: n / h, outC: g.outC, outH: h, outW: n / h, k: 1}
	live := appendLive((*ib)[rows:rows], pruned, g.outC)
	for oy := 0; oy < g.outH; oy++ {
		for ox := 0; ox < g.outW; ox++ {
			at := (oy*pw + ox) * n
			b.liveMACs(plane[at:at+offs[rows-1]+n], offs, wd, bd, os[(oy*g.outW+ox)*n:], b.outW, outHW*n, live, relu)
		}
	}
	clearPruned(os, outHW*n, pruned)
	intScratch.Put(ib)
}

// denseGeom is a dense layer of in inputs and out neurons as the conv it
// is: 1×1, on a 1×1 plane, its inputs the channels.
func denseGeom(in, out int) convGeom {
	return convGeom{inC: in, inH: 1, inW: 1, outC: out, outH: 1, outW: 1, k: 1}
}

// transpose writes the rows×cols matrix src into dst as cols×rows: a
// batch [n][F] into its sample-minor form [F][n], and back.
func transpose(dst, src []float64, rows, cols int) {
	dst = dst[:rows*cols]
	for r := 0; r < rows; r++ {
		for c, v := range src[r*cols : (r+1)*cols] {
			dst[c*rows+r] = v
		}
	}
}

// clearPruned stores +0 over the outputs of the units pruned marks, per
// floats each from os[u·per]: the MAC kernels skip those units, and a
// pooled slab arrives dirty.
func clearPruned(os []float64, per int, pruned []bool) {
	for u, p := range pruned {
		if p {
			clear(os[u*per : (u+1)*per])
		}
	}
}

// storeSpan is how far from its first element an [outC, outH, outW]
// output stored at row pitch oRow and channel pitch oCh reaches.
func (g convGeom) storeSpan(oRow, oCh int) int {
	return (g.outC-1)*oCh + (g.outH-1)*oRow + g.outW
}

// convMACs is convForward after the pad copy: the multiply-accumulates
// over the filled plane, on the highest rung of the dispatch ladder that
// takes the geometry. Output (oc, oy, ox) is stored to os[oc·oCh +
// oy·oRow + ox]: a dense slab, or the interior of the next conv's padded
// plane, whose border no store reaches.
func (g convGeom) convMACs(pad []float64, offs []int, wd, bd, os []float64, oRow, oCh int, pruned []bool, relu bool) {
	var buf [64]int
	g.liveMACs(pad, offs, wd, bd, os, oRow, oCh, appendLive(buf[:0], pruned, g.outC), relu)
}

// appendLive appends to live the units of [0, n) that pruned leaves
// unpruned (all of them when pruned is nil).
func appendLive(live []int, pruned []bool, n int) []int {
	for u := 0; u < n; u++ {
		if pruned == nil || !pruned[u] {
			live = append(live, u)
		}
	}
	return live
}

// liveMACs is convMACs for the output channels listed in live, each
// below g.outC. pad is what the taps are read from — a conv's whole
// plane, or the window of a sample-minor plane one output position reads
// (convMinor) — and ends, where the tiles run, at the last position's
// last tap. A four- or eight-channel tile pads live to a multiple of its
// channels in place, so it should have the capacity.
func (g convGeom) liveMACs(pad []float64, offs []int, wd, bd, os []float64, oRow, oCh int, live []int, relu bool) {
	rows := g.inC * g.k * g.k
	// The extents the assembly will touch, proven here once (pad's by
	// convForwardAVX2, against the tap table).
	offs = offs[:rows]
	wd, bd, os = wd[:g.outC*rows], bd[:g.outC], os[:g.storeSpan(oRow, oCh)]
	if len(live) == 0 {
		return
	}
	if !useAVX2 || !convForwardAVX2(g, pad, offs, wd, bd, os, oRow, oCh, live, relu, false) {
		convForwardGo(g, pad, offs, wd, bd, os, oRow, oCh, live, relu)
	}
}

// pooled is the geometry of the 2×2 max-pool at step 2 over g's output.
func (g convGeom) pooled() convGeom {
	return convGeom{inC: g.outC, inH: g.outH, inW: g.outW, outC: g.outC, outH: g.outH / 2, outW: g.outW / 2}
}

// pooledMACs is convMACs, every channel live, with the 2×2 max-pool at
// step 2 of the (clamped) outputs fused into the tiles' store: only the
// pool's output, (c, py, px), is stored, at os[c·oCh + py·oRow + px].
// Each window is compared in poolForward's order, so the value is that
// of convMACs, then poolForward. It reports false, having done nothing,
// where this CPU's tile for g has no pooled form or a tile origin would
// be odd (convForwardAVX2).
func (g convGeom) pooledMACs(pad []float64, offs []int, wd, bd, os []float64, oRow, oCh int, relu bool) bool {
	var buf [64]int
	rows := g.inC * g.k * g.k
	offs, wd, bd, os = offs[:rows], wd[:g.outC*rows], bd[:g.outC], os[:g.pooled().storeSpan(oRow, oCh)]
	return useAVX2 && convForwardAVX2(g, pad, offs, wd, bd, os, oRow, oCh, appendLive(buf[:0], nil, g.outC), relu, true)
}

// conv1x1 runs g, a 1×1 conv without padding, over plane —
// its own pad plane, exactly [inC][outH·outW] — into the channel-major
// slab os, for the channels pruned leaves live. Its tap table and live
// list come from the pool: a dense op of any width allocates nothing
// here.
func (g convGeom) conv1x1(plane, wd, bd, os []float64, pruned []bool, relu bool) {
	hw := g.outH * g.outW
	ib := intScratch.get(g.inC + g.outC + 7) // the tap table, then live and a tile's padding
	offs := (*ib)[:g.inC]
	for r := range offs {
		offs[r] = r * hw // tapOffsets' table for a 1×1 kernel
	}
	live := appendLive((*ib)[g.inC:g.inC], pruned, g.outC)
	g.liveMACs(plane, offs, wd, bd, os, g.outW, hw, live, relu)
	intScratch.Put(ib)
}

// convForwardGo is convForward's MAC loop over the filled pad plane for
// the channels in live: the definition of the arithmetic, and the path
// of every CPU and geometry the assembly does not take. In pad-plane
// coordinates position q = oy·pw + ox multiplies w[oc, r] by
// pad[offs[r] + q], so one channel is a sweep over whole runs of
// the plane, tap after tap, into acc — including the k−1 positions a row
// (ox ≥ outW) that are not outputs and are dropped on the copy out, row
// by row to os at convMACs' pitches.
func convForwardGo(g convGeom, pad []float64, offs []int, wd, bd, os []float64, oRow, oCh int, live []int, relu bool) {
	rows, pw := len(offs), g.inW+2*g.pad
	accBuf := floatScratch.get((g.outH-1)*pw + g.outW)
	acc := *accBuf
	for _, oc := range live {
		bias := bd[oc]
		for i := range acc {
			acc[i] = bias
		}
		tapSweep(acc, pad, offs, wd[oc*rows:(oc+1)*rows])
		if relu {
			reluForward(acc, acc)
		}
		for oy := 0; oy < g.outH; oy++ {
			copy(os[oc*oCh+oy*oRow:][:g.outW], acc[oy*pw:])
		}
	}
	floatScratch.Put(accBuf)
}

// tapSweep adds Σ_r wRow[r]·pad[offs[r] + q] to every acc[q], r
// ascending, one fused multiply-add a tap. (Its own function so the
// compiler keeps the loop counters in registers.)
func tapSweep(acc, pad []float64, offs []int, wRow []float64) {
	// Four taps per sweep quarters the acc write traffic. The nested
	// math.FMA calls keep the accumulation order of the one-tap-at-a-time
	// loop, each step rounded once on every GOARCH and GOAMD64 level, so
	// results are bit-identical everywhere.
	r := 0
	for ; r+4 <= len(offs); r += 4 {
		w0, w1, w2, w3 := wRow[r], wRow[r+1], wRow[r+2], wRow[r+3]
		t0, t1 := pad[offs[r]:][:len(acc)], pad[offs[r+1]:][:len(acc)]
		t2, t3 := pad[offs[r+2]:][:len(acc)], pad[offs[r+3]:][:len(acc)]
		for i := range acc {
			acc[i] = math.FMA(w3, t3[i], math.FMA(w2, t2[i], math.FMA(w1, t1[i], math.FMA(w0, t0[i], acc[i]))))
		}
	}
	for ; r < len(offs); r++ {
		wv, t := wRow[r], pad[offs[r]:][:len(acc)]
		for i := range acc {
			acc[i] = math.FMA(wv, t[i], acc[i])
		}
	}
}

// reluForward writes dst[i] = src[i] if src[i] > 0, else +0 — so −0 and
// NaN both become +0. dst may alias src. It is the one forward ReLU
// clamp: ReLU.Forward, the masked walk and the compiled plan all call it.
func reluForward(dst, src []float64) {
	dst = dst[:len(src)]
	done := 0
	if n4 := len(src) &^ 3; useAVX2 && n4 > 0 {
		reluAVX2(&dst[0], &src[0], n4) // whole vectors; the loop below finishes
		done = n4
	}
	for i, v := range src[done:] {
		if v > 0 {
			dst[done+i] = v
		} else {
			dst[done+i] = 0
		}
	}
}

// poolForward max-pools one sample xs [C, inH, inW] with a 2×2 window at
// step 2 into an [C, outH, outW] output stored as convMACs stores, (c,
// oy, ox) at os[c·oCh + oy·oRow + ox], without recording argmax (a pool's
// geometry has outC == inC). Each output is the window's first element,
// replaced by every later element (the rest of its first row, then its
// second row) that compares strictly greater — so a NaN wins only from
// the window's first position and ±0 ties keep the earlier one. Each
// row's first outW&^3 outputs run pool2x2AVX2 when the CPU has AVX2, the
// rest pool2x2Go.
func (g convGeom) poolForward(xs, os []float64, oRow, oCh int) {
	inHW := g.inH * g.inW
	xs, os = xs[:g.inC*inHW], os[:g.storeSpan(oRow, oCh)]
	for c := 0; c < g.inC; c++ {
		xCh := xs[c*inHW : (c+1)*inHW]
		oc := os[c*oCh:]
		done := 0
		if useAVX2 && g.outW >= 4 {
			done = g.outW &^ 3
			pool2x2AVX2(&oc[0], &xCh[0], g.outH, done, g.inW, oRow)
		}
		if done < g.outW {
			pool2x2Go(xCh[2*done:], oc[done:], g.outH, g.outW-done, g.inW, oRow)
		}
	}
}

// pool2x2Go max-pools outW windows of 2×2 at step 2 a row, outH rows,
// from src (inW floats per input row) into dst (dstW floats per output
// row), the four compares of a window written out in poolForward's order.
func pool2x2Go(src, dst []float64, outH, outW, inW, dstW int) {
	for oy := 0; oy < outH; oy++ {
		r0, r1 := src[2*oy*inW:][:2*outW], src[(2*oy+1)*inW:][:2*outW]
		d := dst[oy*dstW:][:outW]
		for ox := range d {
			best := r0[2*ox]
			if v := r0[2*ox+1]; v > best {
				best = v
			}
			if v := r1[2*ox]; v > best {
				best = v
			}
			if v := r1[2*ox+1]; v > best {
				best = v
			}
			d[ox] = best
		}
	}
}

// poolMinor is poolForward over a sample-minor batch, xs [C][inH][inW][n]
// into os [C][outH][outW][n]: each output n-vector starts as its window's
// first, and takes element by element every later one that compares
// strictly greater — poolForward's order.
func (g convGeom) poolMinor(xs, os []float64, n int) {
	for c := 0; c < g.inC; c++ {
		for oy := 0; oy < g.outH; oy++ {
			for ox := 0; ox < g.outW; ox++ {
				best := os[((c*g.outH+oy)*g.outW+ox)*n:][:n]
				at := (c*g.inH+2*oy)*g.inW + 2*ox
				copy(best, xs[at*n:][:n])
				for _, next := range [3]int{at + 1, at + g.inW, at + g.inW + 1} {
					for s, v := range xs[next*n:][:n] {
						if v > best[s] {
							best[s] = v
						}
					}
				}
			}
		}
	}
}

// convBackward accumulates one sample's parameter gradients and the
// column-space input gradient. cols is the sample's im2col matrix, gs
// its output gradient slab [outC, outH, outW]. dwd/dbd are the layer's
// full gradient buffers (accumulated +=); dcols [inC·k·k, outH·outW]
// receives the input gradient in column space (dcols must arrive
// zeroed) for col2im to scatter.
//
// dW keeps the naive kernel's accumulation order: each (oc, r) entry is
// a fresh left-to-right dot product over the output positions, added
// once into dwd. dX accumulates over channels first (into dcols) and is
// then scattered — a reassociation of the naive order that stays
// deterministic because the loop order is fixed.
func (g convGeom) convBackward(cols, wd, gs, dwd, dbd, dcols []float64) {
	outHW := g.outH * g.outW
	kk := g.k * g.k
	rows := g.inC * kk
	for oc := 0; oc < g.outC; oc++ {
		gRow := gs[oc*outHW : (oc+1)*outHW]
		for _, gv := range gRow {
			dbd[oc] += gv
		}
		wRow := wd[oc*rows : (oc+1)*rows]
		dwRow := dwd[oc*rows : (oc+1)*rows]
		for r := 0; r < rows; r++ {
			col := cols[r*outHW : (r+1)*outHW]
			sum := 0.0
			for i, gv := range gRow {
				sum += gv * col[i]
			}
			dwRow[r] += sum
			wv := wRow[r]
			if wv == 0 {
				continue
			}
			dcol := dcols[r*outHW : (r+1)*outHW]
			for i, gv := range gRow {
				dcol[i] += wv * gv
			}
		}
	}
}

// col2im scatters the column-space gradient back onto one sample's
// input-gradient slab dxs [inC, inH, inW] (accumulated +=), the adjoint
// of im2col. Out-of-bounds (padding) taps are dropped.
func (g convGeom) col2im(dcols, dxs []float64) {
	inHW := g.inH * g.inW
	outHW := g.outH * g.outW
	kk := g.k * g.k
	for ic := 0; ic < g.inC; ic++ {
		dxCh := dxs[ic*inHW : (ic+1)*inHW]
		for ky := 0; ky < g.k; ky++ {
			for kx := 0; kx < g.k; kx++ {
				row := dcols[(ic*kk+ky*g.k+kx)*outHW : (ic*kk+ky*g.k+kx+1)*outHW]
				ri := 0
				for oy := 0; oy < g.outH; oy++ {
					iy := oy - g.pad + ky
					if iy < 0 || iy >= g.inH {
						ri += g.outW
						continue
					}
					dxRow := dxCh[iy*g.inW : (iy+1)*g.inW]
					for ox := 0; ox < g.outW; ox++ {
						ix := ox - g.pad + kx
						if ix >= 0 && ix < g.inW {
							dxRow[ix] += row[ri]
						}
						ri++
					}
				}
			}
		}
	}
}

// denseForward computes od[s,o] = b[o] + Σ_i w[o,i]·xd[s,i] for every
// live neuron, clamped at +0 when relu is set; pruned neurons' outputs
// are stored +0, so od may arrive dirty. Shared by the training Forward,
// the stateless Infer path and a narrow plan op.
// A batch of at least four rows on a CPU with AVX2 runs sample-minor:
// xd transposed into an [in][n] plane, the conv it is (denseGeom) with
// the rows as its positions against the weights as they are, the
// [out][n] result transposed back. Each output is still b[o], then +
// w[o,i]·x[i] for i ascending, so it is denseForwardGo's value bit for
// bit. Fewer rows, and every other CPU, run denseForwardGo.
func denseForward(xd, wd, bd, od []float64, n, in, out int, pruned []bool, relu bool) {
	if n < 4 || !useAVX2 {
		denseForwardGo(xd, wd, bd, od, n, in, out, pruned)
		if relu {
			reluForward(od[:n*out], od[:n*out])
		}
		return
	}
	buf := floatScratch.get((in + out) * n)
	plane, os := (*buf)[:in*n], (*buf)[in*n:]
	transpose(plane, xd, n, in)
	denseGeom(in, out).convMinor(plane, wd, bd, os, n, pruned, relu)
	transpose(od, os, out, n)
	floatScratch.Put(buf)
}

// packLanes lays out the weights wd [n][rows] and bias bd of n units for
// the lane tiles, whose vector lanes are units: row 0 the bias, row 1+r
// every unit's weight r, pitch ≥ n floats a row with +0 past the n-th —
// a dense op's panel at pitch n (newDenseOp), a conv's at whole groups of
// eight lanes (fuseReLU).
func packLanes(wd, bd []float64, n, rows, pitch int) []float64 {
	pk := make([]float64, (rows+1)*pitch)
	copy(pk, bd[:n])
	for o := 0; o < n; o++ {
		for r, w := range wd[o*rows : (o+1)*rows] {
			pk[(1+r)*pitch+o] = w
		}
	}
	return pk
}

// newConvOp lowers a conv (weights wd, bias bd) to the compiled plan's
// op; fuseReLU gives it its ReLU.
func newConvOp(g convGeom, wd, bd []float64) compiledOp {
	return compiledOp{kind: opConv, g: g, wd: wd, bd: bd, offs: g.tapOffsets(nil), in: g.inSize(), out: g.outSize()}
}

// lanePlane reports whether a conv of geometry g fits the border-free
// lane tiles: 3×3 at pad 1 on a 4×4 or a 2×2 plane.
func lanePlane(g convGeom) bool {
	return g.k == 3 && g.pad == 1 && g.inH == g.outH && g.inW == g.outW && g.outH == g.outW && (g.outW == 4 || g.outW == 2)
}

// fuseReLU folds the ReLU after op into its store. A conv on a plane the
// border-free lane tiles fit whose weights are all finite also gets the
// panel they read (packLanes, whole groups of eight lanes a row): with
// AVX-512 it then issues only the taps inside the plane (DESIGN §6). The
// weights as they are stay for the lower rungs' tiles.
func (op *compiledOp) fuseReLU() {
	op.relu = true
	if op.kind == opConv && lanePlane(op.g) && allFinite(op.wd) {
		op.pk = packLanes(op.wd, op.bd, op.g.outC, op.g.inC*9, (op.g.outC+7)&^7)
	}
}

// allFinite reports whether no element of xs is NaN or ±Inf.
func allFinite(xs []float64) bool {
	return !slices.ContainsFunc(xs, func(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) })
}

// negZero is a dense panel's accumulator start: −0 + b is b for every b.
var negZero = []float64{math.Copysign(0, -1)}

// denseConvMin is the width from which a dense op below AVX-512 runs its
// panel as a 1×1 conv: the only one-channel AVX2 tile is 16 positions
// wide, and the four-channel one would compute the one channel four
// times over.
const denseConvMin = 16

// newDenseOp lowers a dense layer (weights wd [out][in], bias bd) to the
// compiled plan's batch-1 op: its panel (packLanes), as many floats as the
// weights and bias. With AVX-512 the ZMM channel-lane tile reads it as it
// is, eight neurons to a vector, each starting at its bias and adding
// w[o,i]·x[i] for i ascending. Below, from denseConvMin neurons up, the
// op is a 1×1 conv whose positions are the out neurons over the panel
// under the filter [+1, x…] (run writes it into the arena), with its one
// channel's accumulator starting at −0: output o is −0 + 1·b[o] = b[o],
// then + x[i]·w[o,i] for i ascending, each a fused multiply-add —
// denseForwardGo's chain, bit for bit, which the probe checks at every
// compile. Narrower layers run densePanelGo, the same chain in Go.
func newDenseOp(wd, bd []float64, in, out int) compiledOp {
	op := compiledOp{kind: opDense, pk: packLanes(wd, bd, out, in, out), in: in, out: out}
	if out >= denseConvMin {
		op.g = convGeom{inC: in + 1, inH: 1, inW: out, outC: 1, outH: 1, outW: out, k: 1}
	}
	return op
}

// densePanelGo is the plan's narrow dense op on the Go loops: od[o] =
// pk[o], then + pk[(1+i)·len(od) + o]·x[i] for i ascending, clamped at +0
// when relu — denseForwardGo's chain over the panel.
func densePanelGo(x, pk, od []float64, relu bool) {
	out := len(od)
	copy(od, pk[:out])
	for i, xv := range x {
		for o, w := range pk[(1+i)*out:][:out] {
			od[o] = math.FMA(w, xv, od[o])
		}
	}
	if relu {
		reluForward(od, od)
	}
}

// denseForwardGo is denseForward's definition. Live neurons go four to a
// sweep of x: four independent sums, each still its own left-to-right
// chain, so four adds are in flight instead of one waiting on the last.
func denseForwardGo(xd, wd, bd, od []float64, n, in, out int, pruned []bool) {
	for s := 0; s < n; s++ {
		xRow := xd[s*in : (s+1)*in]
		oRow := od[s*out : (s+1)*out]
		var q [4]int // live neurons waiting for a sweep
		nq := 0
		for o := 0; o < out; o++ {
			if pruned != nil && pruned[o] {
				oRow[o] = 0
				continue
			}
			q[nq] = o
			if nq++; nq < 4 {
				continue
			}
			nq = 0
			w0, w1 := wd[q[0]*in:(q[0]+1)*in], wd[q[1]*in:(q[1]+1)*in]
			w2, w3 := wd[q[2]*in:(q[2]+1)*in], wd[q[3]*in:(q[3]+1)*in]
			s0, s1, s2, s3 := bd[q[0]], bd[q[1]], bd[q[2]], bd[q[3]]
			for i, xv := range xRow {
				s0 = math.FMA(w0[i], xv, s0)
				s1 = math.FMA(w1[i], xv, s1)
				s2 = math.FMA(w2[i], xv, s2)
				s3 = math.FMA(w3[i], xv, s3)
			}
			oRow[q[0]], oRow[q[1]], oRow[q[2]], oRow[q[3]] = s0, s1, s2, s3
		}
		for _, o := range q[:nq] {
			wRow := wd[o*in : (o+1)*in]
			sum := bd[o]
			for i, xv := range xRow {
				sum = math.FMA(wRow[i], xv, sum)
			}
			oRow[o] = sum
		}
	}
}

// denseBackward accumulates dW/dB (+=) and writes dX for a batch.
func denseBackward(xd, gd, wd, dxd, dwd, dbd []float64, n, in, out int) {
	for s := 0; s < n; s++ {
		xRow := xd[s*in : (s+1)*in]
		gRow := gd[s*out : (s+1)*out]
		dxRow := dxd[s*in : (s+1)*in]
		for o := 0; o < out; o++ {
			gv := gRow[o]
			if gv == 0 {
				continue
			}
			dbd[o] += gv
			wRow := wd[o*in : (o+1)*in]
			dwRow := dwd[o*in : (o+1)*in]
			for i, xv := range xRow {
				dwRow[i] += gv * xv
				dxRow[i] += gv * wRow[i]
			}
		}
	}
}
