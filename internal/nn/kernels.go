package nn

import (
	"math"
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
// w[oc,r]·tap[r] for r = (ic, ky, kx) ascending — one rounded multiply,
// then one rounded add, never a fused multiply-add — reading each tap
// from the plane (TestForwardGolden and the Infer ≡ Forward tests pin
// the bits). A dense layer is the same arithmetic as a 1×1 conv and runs
// on the same tiles (denseForward, newDenseOp). The Go loops below are
// the definition.
// On amd64 with AVX2 (CPUID, checked once at init: useAVX2) the conv
// MACs, the ReLU clamp and the 2×2 max-pool run kernels_amd64.s
// instead: four float64 lanes wide, the same operations in the same
// order per output element, so every path returns identical bits
// (TestKernelsMatchGeneric, TestDenseMatchesGeneric). With AVX-512 as
// well (useAVX512: CPUID and XCR0) the conv MACs of planes at least 8
// wide and 2 high run an eight-lane tile of the same arithmetic. The
// assembly does no bounds checks: every call site proves the extents it
// passes in Go first.
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

// convGeom captures the static geometry of a Conv2D so the kernel can
// run without touching layer state.
type convGeom struct {
	inC, inH, inW    int
	outC, outH, outW int
	k, stride, pad   int
}

func (c *Conv2D) geom() convGeom {
	return convGeom{
		inC: c.inC, inH: c.inH, inW: c.inW,
		outC: c.outC, outH: c.outH, outW: c.outW,
		k: c.k, stride: c.stride, pad: c.pad,
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
// (oy·pw + ox)·stride further on, pw the padded row length. The table
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

// padInput writes one sample's [inC, inH, inW] slab xs into the pad
// plane, +0 on the border — the value a padding tap contributes. Every
// cell of pad is written, so a plane reused across geometries carries
// nothing over.
func (g convGeom) padInput(xs, pad []float64) {
	p, ph, pw := g.pad, g.inH+2*g.pad, g.inW+2*g.pad
	for ic := 0; ic < g.inC; ic++ {
		plane := pad[ic*ph*pw : (ic+1)*ph*pw]
		at := p*pw + p // the top rows and the first row's left border
		clear(plane[:at])
		for y := 0; y < g.inH; y++ {
			copy(plane[at:at+g.inW], xs[(ic*g.inH+y)*g.inW:])
			clear(plane[at+g.inW : at+pw]) // this row's right border, the next one's left
			at += pw
		}
		clear(plane[at:])
	}
}

// im2col gathers one sample's receptive fields (xs is that sample's
// [inC, inH, inW] slab) into cols [inC·k·k, outH·outW] for Backward, by
// way of the pad plane (scratch, as in convForward): row r of cols is
// the taps at offs[r], output row by output row, so padding taps read
// the border's zeros. Every cols entry is written.
func (g convGeom) im2col(xs, pad []float64, offs []int, cols []float64) {
	g.padInput(xs, pad)
	outHW, pw := g.outH*g.outW, g.inW+2*g.pad
	for r, off := range offs {
		for oy := 0; oy < g.outH; oy++ {
			dst, src := cols[r*outHW+oy*g.outW:][:g.outW], pad[off+oy*g.stride*pw:]
			if g.stride == 1 {
				copy(dst, src)
				continue
			}
			for ox := range dst {
				dst[ox] = src[ox*g.stride]
			}
		}
	}
}

// convForward computes one sample's output slab os [outC, outH, outW]
// from its input slab xs: os[oc] = bias[oc] + Σ_r w[oc,r]·tap[r],
// accumulated in ascending r = (ic, ky, kx) order; relu clamps each
// output at +0 as it is stored (the compiled plan's fused conv+ReLU).
// pad is scratch for the padded plane (≥ padSize; arrives dirty), offs
// is the tapOffsets table. Pruned channels are skipped; their output stays
// zero (os must arrive zeroed).
func (g convGeom) convForward(xs, pad []float64, offs []int, wd, bd, os []float64, pruned []bool, relu bool) {
	g.padInput(xs[:g.inSize()], pad)
	g.convMACs(pad, offs, wd, bd, os, g.outW, g.outH*g.outW, pruned, relu)
}

// storeSpan is how far from its first element an [outC, outH, outW]
// output stored at row stride oRow and channel stride oCh reaches.
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
// below g.outC. A four-channel tile pads live to a multiple of four in
// place, so it should have the capacity.
func (g convGeom) liveMACs(pad []float64, offs []int, wd, bd, os []float64, oRow, oCh int, live []int, relu bool) {
	rows := g.inC * g.k * g.k
	// The extents the assembly will touch, proven here once.
	pad, offs = pad[:g.padSize()], offs[:rows]
	wd, bd, os = wd[:g.outC*rows], bd[:g.outC], os[:g.storeSpan(oRow, oCh)]
	if len(live) == 0 {
		return
	}
	if !useAVX2 || !convForwardAVX2(g, pad, offs, wd, bd, os, oRow, oCh, live, relu) {
		convForwardGo(g, pad, offs, wd, bd, os, oRow, oCh, live, relu)
	}
}

// conv1x1 runs g, a 1×1 conv at stride 1 without padding, over plane —
// its own pad plane, [inC][outH·outW] — into the channel-major slab os,
// for the channels pruned leaves live. Its tap table and live list come
// from the pool: a dense layer of any width allocates nothing here.
func (g convGeom) conv1x1(plane, wd, bd, os []float64, pruned []bool, relu bool) {
	hw := g.outH * g.outW
	ib := intScratch.get(g.inC + g.outC + 3) // the tap table, then live and a tile's padding
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
// pad[offs[r] + q·stride], so one channel is a sweep over whole runs of
// the plane, tap after tap, into acc — including the k−1 positions a row
// (ox ≥ outW) that are not outputs and are dropped on the copy out, row
// by row to os at convMACs' strides.
func convForwardGo(g convGeom, pad []float64, offs []int, wd, bd, os []float64, oRow, oCh int, live []int, relu bool) {
	rows, pw := len(offs), g.inW+2*g.pad
	accBuf := floatScratch.get((g.outH-1)*pw + g.outW)
	acc := *accBuf
	for _, oc := range live {
		bias := bd[oc]
		for i := range acc {
			acc[i] = bias
		}
		tapSweep(acc, pad, offs, wd[oc*rows:(oc+1)*rows], g.stride)
		if relu {
			reluForward(acc, acc)
		}
		for oy := 0; oy < g.outH; oy++ {
			copy(os[oc*oCh+oy*oRow:][:g.outW], acc[oy*pw:])
		}
	}
	floatScratch.Put(accBuf)
}

// tapSweep adds Σ_r wRow[r]·pad[offs[r] + q·stride] to every acc[q], r
// ascending. (Its own function so the compiler keeps the loop counters
// in registers.)
func tapSweep(acc, pad []float64, offs []int, wRow []float64, stride int) {
	// Four taps per sweep quarters the acc write traffic. The explicit
	// left-to-right sum keeps the accumulation order of the
	// one-tap-at-a-time loop, and the float64 conversions forbid the
	// compiler to fuse a product into its add (it would on arm64 and
	// GOAMD64=v3), so results stay bit-identical everywhere.
	r := 0
	for ; stride == 1 && r+4 <= len(offs); r += 4 {
		w0, w1, w2, w3 := wRow[r], wRow[r+1], wRow[r+2], wRow[r+3]
		t0, t1 := pad[offs[r]:][:len(acc)], pad[offs[r+1]:][:len(acc)]
		t2, t3 := pad[offs[r+2]:][:len(acc)], pad[offs[r+3]:][:len(acc)]
		for i := range acc {
			acc[i] = acc[i] + float64(w0*t0[i]) + float64(w1*t1[i]) + float64(w2*t2[i]) + float64(w3*t3[i])
		}
	}
	for ; r < len(offs); r++ {
		wv, t := wRow[r], pad[offs[r]:]
		for i := range acc {
			acc[i] += float64(wv * t[i*stride])
		}
	}
}

// reluForward writes dst[i] = src[i] if src[i] > 0, else +0 — so −0 and
// NaN both become +0. dst may alias src. It is the one forward ReLU
// clamp: ReLU.Forward, ReLU.infer and the compiled plan all call it.
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

// poolForward max-pools one sample xs [C, inH, inW] into an [C, outH,
// outW] output stored as convMACs stores, (c, oy, ox) at os[c·oCh +
// oy·oRow + ox], without recording argmax (a pool's geometry has outC ==
// inC). Each output is the window's first element, replaced by every
// later element (ky, then kx ascending) that compares strictly greater —
// so a NaN wins only from the window's first position and ±0 ties keep
// the earlier one. A 2×2 window at stride 2 runs pool2x2AVX2 on each
// row's first outW&^3 outputs when the CPU has AVX2 and pool2x2Go on the
// rest; every other window runs the general loop.
func (g convGeom) poolForward(xs, os []float64, oRow, oCh int) {
	inHW := g.inH * g.inW
	xs, os = xs[:g.inC*inHW], os[:g.storeSpan(oRow, oCh)]
	for c := 0; c < g.inC; c++ {
		xCh := xs[c*inHW : (c+1)*inHW]
		oc := os[c*oCh:]
		if g.k == 2 && g.stride == 2 {
			done := 0
			if useAVX2 && g.outW >= 4 {
				done = g.outW &^ 3
				pool2x2AVX2(&oc[0], &xCh[0], g.outH, done, g.inW, oRow)
			}
			if done < g.outW {
				pool2x2Go(xCh[2*done:], oc[done:], g.outH, g.outW-done, g.inW, oRow)
			}
			continue
		}
		for oy := 0; oy < g.outH; oy++ {
			for ox := 0; ox < g.outW; ox++ {
				iy0, ix0 := oy*g.stride, ox*g.stride
				best := xCh[iy0*g.inW+ix0]
				for ky := 0; ky < g.k; ky++ {
					for kx := 0; kx < g.k; kx++ {
						if v := xCh[(iy0+ky)*g.inW+ix0+kx]; v > best {
							best = v
						}
					}
				}
				oc[oy*oRow+ox] = best
			}
		}
	}
}

// pool2x2Go max-pools outW windows of 2×2 at stride 2 a row, outH rows,
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
					iy := oy*g.stride - g.pad + ky
					if iy < 0 || iy >= g.inH {
						ri += g.outW
						continue
					}
					dxRow := dxCh[iy*g.inW : (iy+1)*g.inW]
					for ox := 0; ox < g.outW; ox++ {
						ix := ox*g.stride - g.pad + kx
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
// live neuron; pruned neurons' outputs stay zero (od must arrive
// zeroed). Shared by the training Forward and the stateless Infer path.
// A batch of at least four rows on a CPU with AVX2 runs as a 1×1 conv
// whose positions are the samples: xd transposed into an [in][n] plane —
// two rows of n/2 when n is even and at least 16, so the ZMM tile takes a
// 16-row replay shard — against the weights as they are, the [out][n]
// result transposed back. Each output is still b[o], then + w[o,i]·x[i]
// for i ascending, so it is denseForwardGo's value bit for bit; fewer
// rows, and every other CPU, run denseForwardGo.
func denseForward(xd, wd, bd, od []float64, n, in, out int, pruned []bool) {
	if n < 4 || !useAVX2 {
		denseForwardGo(xd, wd, bd, od, n, in, out, pruned)
		return
	}
	h := 1
	if n%2 == 0 && n >= 16 {
		h = 2
	}
	g := convGeom{inC: in, inH: h, inW: n / h, outC: out, outH: h, outW: n / h, k: 1, stride: 1}
	buf := floatScratch.get((in + out) * n)
	plane, os := (*buf)[:in*n], (*buf)[in*n:]
	for s := 0; s < n; s++ {
		for i, v := range xd[s*in : (s+1)*in] {
			plane[i*n+s] = v
		}
	}
	g.conv1x1(plane, wd, bd, os, pruned, false)
	for o := 0; o < out; o++ {
		if pruned == nil || !pruned[o] {
			for s, v := range os[o*n : (o+1)*n] {
				od[s*out+o] = v
			}
		}
	}
	floatScratch.Put(buf)
}

// negZero is a dense panel's accumulator start: −0 + b is b for every b.
var negZero = []float64{math.Copysign(0, -1)}

// newDenseOp lowers a dense layer (weights wd [out][in], bias bd) to the
// compiled plan's batch-1 op. From 16 neurons up it is a 1×1 conv whose
// positions are the out neurons, over a panel built here once — row 0
// the bias, row 1+i column i of wd — under the filter [+1, x…] (run
// writes it into the arena), with its one channel's accumulator starting
// at −0: output o is −0 + 1·b[o] = b[o], then + x[i]·w[o,i] for i
// ascending, multiply then add — denseForwardGo's chain, bit for bit,
// which verifyAgainst's probe checks at every compile. The panel holds
// in·out + out floats, as many as the weights and bias. Narrower layers
// keep the weights as they are and run denseForwardGo: the only
// one-channel tile is 16 positions wide, and the four-channel one would
// compute the one channel four times over.
func newDenseOp(wd, bd []float64, in, out int) compiledOp {
	op := compiledOp{kind: opDense, wd: wd, bd: bd, in: in, out: out}
	if out < 16 {
		return op
	}
	panel := make([]float64, (in+1)*out)
	copy(panel, bd[:out])
	for o := 0; o < out; o++ {
		for i, w := range wd[o*in : (o+1)*in] {
			panel[(1+i)*out+o] = w
		}
	}
	op.g = convGeom{inC: in + 1, inH: 1, inW: out, outC: 1, outH: 1, outW: out, k: 1, stride: 1}
	op.wd, op.bd = panel, nil
	return op
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
				s0 += float64(w0[i] * xv)
				s1 += float64(w1[i] * xv)
				s2 += float64(w2[i] * xv)
				s3 += float64(w3[i] * xv)
			}
			oRow[q[0]], oRow[q[1]], oRow[q[2]], oRow[q[3]] = s0, s1, s2, s3
		}
		for _, o := range q[:nq] {
			wRow := wd[o*in : (o+1)*in]
			sum := bd[o]
			for i, xv := range xRow {
				sum += float64(wRow[i] * xv)
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
