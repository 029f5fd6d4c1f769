package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"capnn/internal/tensor"
)

// This file is the compiled-inference pipeline: Compile turns a
// (base network, prune masks) pair into a Compiled — a physically
// compacted copy of the network (via CompactMasked) lowered to a flat op
// plan that runs through the shared kernels in kernels.go with scratch
// buffers sized for the *sub*-network.
//
// Masked Infer pays full-model FLOPs: it skips pruned OUTPUT channels
// but still pads and multiplies every pruned INPUT channel (conv taps,
// dense columns) because the weight tensors keep their original
// shape. Compilation removes both sides, so a 40%-pruned model really
// does run ~40% fewer multiplies — the latency win CAP'NN's model-size
// reduction promises.
//
// Bit-identity with the masked path is a hard invariant, not an
// approximation. It holds because:
//   - CompactMasked copies weights without reordering the surviving
//     (ic, ky, kx) / input-feature sequence, and the conv/dense kernels
//     accumulate strictly left-to-right in that sequence, so dropping a
//     pruned input's term removes exactly a `w·0` addition;
//   - a pruned unit's masked output is exactly +0.0 (zero-filled slab,
//     ReLU and max-pool preserve +0.0), and `acc + w·(+0.0)` is a
//     bit-level identity except for the pathological case of an exact
//     -0.0 accumulator meeting +0.0 — which Compile guards against by
//     probing: it runs a deterministic input through both paths and
//     fails (caller falls back to masked inference) on any bit mismatch.

// opKind discriminates the lowered op plan.
type opKind uint8

const (
	opConv opKind = iota
	opDense
	opReLU
	opPool
	opScatter
)

// compiledOp is one step of the lowered plan. Flatten and Dropout are
// elided at compile time: both are the identity on the contiguous NCHW
// slab at inference. A ReLU directly after a conv is folded into it.
type compiledOp struct {
	kind opKind
	relu bool      // conv: the ReLU that followed it, fused into the store
	g    convGeom  // conv + pool geometry (pool: outC == inC)
	wd   []float64 // conv/dense weights (aliases the compacted net's params)
	bd   []float64 // conv/dense bias
	offs []int     // conv: g.tapOffsets(), built once here rather than per call
	idx  []int     // scatter: full-width position of each compact feature
	in   int       // per-sample input elems
	out  int       // per-sample output elems
}

// compiledScratch is one goroutine's working set: two ping-pong
// activation slabs plus the conv kernel's zero-padded input plane, all
// sized for the compacted sub-network rather than the full model.
type compiledScratch struct {
	a, b, pad []float64
}

// Compiled is a physically compacted network lowered to an op plan.
// Infer is safe for concurrent use: all plan state is read-only after
// Compile and scratch comes from a per-Compiled pool.
type Compiled struct {
	net      *Network // the compacted network (introspection: ParamCount etc.)
	inShape  []int    // per-sample input shape
	outShape []int    // per-sample output shape
	inSize   int
	outSize  int
	ops      []compiledOp
	maxElems int // max per-sample slab size across op boundaries
	maxPad   int // max padded input plane across conv ops
	bytes    int64
	pool     sync.Pool
}

// Compile compacts net under masks (same indexing as Infer; nil prunes
// nothing) and lowers it to an op plan. Before returning, it pushes a
// deterministic probe batch through both the compiled plan and the
// masked base network and fails unless the outputs are bit-for-bit
// identical — so a successful Compile guarantees Infer parity.
func Compile(net *Network, masks map[int][]bool) (*Compiled, error) {
	cnet, keep, err := compactMaskedKeep(net, masks)
	if err != nil {
		return nil, fmt.Errorf("nn: compile: %w", err)
	}
	c, err := plan(cnet)
	if err != nil {
		return nil, fmt.Errorf("nn: compile: %w", err)
	}
	// When the final stage itself is pruned, the compacted output is
	// narrower than the masked one. Append a scatter that expands it back
	// to full width with +0.0 at pruned positions — exactly the values
	// the masked path emits there — preserving shape and bit-identity.
	if count(keep) != len(keep) {
		idx := make([]int, 0, count(keep))
		for i, k := range keep {
			if k {
				idx = append(idx, i)
			}
		}
		c.ops = append(c.ops, compiledOp{kind: opScatter, idx: idx, in: len(idx), out: len(keep)})
		c.outShape = append([]int(nil), net.Layers[len(net.Layers)-1].OutShape()...)
		c.outSize = shapeElems(c.outShape)
		if c.outSize > c.maxElems {
			c.maxElems = c.outSize
		}
	}
	if err := c.verifyAgainst(net, masks); err != nil {
		return nil, fmt.Errorf("nn: compile: %w", err)
	}
	return c, nil
}

// plan lowers a (already compacted) network into a Compiled without
// verification.
func plan(cnet *Network) (*Compiled, error) {
	c := &Compiled{
		net:     cnet,
		inShape: append([]int(nil), cnet.InShape...),
		inSize:  shapeElems(cnet.InShape),
	}
	c.maxElems = c.inSize
	for _, l := range cnet.Layers {
		var op compiledOp
		switch t := l.(type) {
		case *Conv2D:
			g := t.geom()
			op = compiledOp{kind: opConv, g: g, wd: t.w.W.Data(), bd: t.b.W.Data(), offs: g.tapOffsets(), in: g.inSize(), out: g.outSize()}
			c.maxPad = max(c.maxPad, g.padSize())
		case *Dense:
			op = compiledOp{kind: opDense, wd: t.w.W.Data(), bd: t.b.W.Data(), in: t.in, out: t.out}
			op.g.inC, op.g.outC = t.in, t.out // reuse geom fields for dims
		case *ReLU:
			if last := len(c.ops) - 1; last >= 0 && c.ops[last].kind == opConv {
				c.ops[last].relu = true // clamped in the conv's own store: no second pass
				continue
			}
			n := shapeElems(t.shape)
			op = compiledOp{kind: opReLU, in: n, out: n}
		case *MaxPool2D:
			g := t.geom()
			op = compiledOp{kind: opPool, g: g, in: g.inSize(), out: g.outSize()}
		case *Flatten, *Dropout:
			// Identity on the contiguous slab at inference: elide.
			continue
		default:
			return nil, fmt.Errorf("cannot lower layer type %T", l)
		}
		c.bytes += int64(len(op.wd)+len(op.bd)) * 8
		if op.in > c.maxElems {
			c.maxElems = op.in
		}
		if op.out > c.maxElems {
			c.maxElems = op.out
		}
		c.ops = append(c.ops, op)
	}
	last := cnet.Layers[len(cnet.Layers)-1]
	c.outShape = append([]int(nil), last.OutShape()...)
	c.outSize = shapeElems(c.outShape)
	c.pool.New = func() any { return &compiledScratch{} }
	return c, nil
}

// Net exposes the compacted network backing the plan (read-only).
func (c *Compiled) Net() *Network { return c.net }

// InShape returns the per-sample input shape (that of the base net).
func (c *Compiled) InShape() []int { return append([]int(nil), c.inShape...) }

// Bytes approximates resident memory: the compacted weight and bias
// floats. Scratch is pooled per batch and excluded — it is transient and
// shared across requests.
func (c *Compiled) Bytes() int64 { return c.bytes }

// Infer runs the batch x (shape [N, inShape...]) through the compiled
// plan and returns the logits, bit-identical to baseNet.Infer(x, masks).
// Safe for concurrent use; never mutates x or any plan state.
func (c *Compiled) Infer(x *tensor.Tensor) *tensor.Tensor {
	n := x.Dim(0)
	if x.Len() != n*c.inSize {
		panic(fmt.Sprintf("nn: compiled infer got %d elems/sample, want %d", x.Len()/max(n, 1), c.inSize))
	}
	out := tensor.New(append([]int{n}, c.outShape...)...)
	c.forward(x.Data(), out.Data(), n)
	return out
}

// InferSample is Infer for one flattened sample, without the tensors: the
// returned logits are its only allocation. The serving tier's entry.
func (c *Compiled) InferSample(x []float64) []float64 {
	if len(x) != c.inSize {
		panic(fmt.Sprintf("nn: compiled infer got %d elems/sample, want %d", len(x), c.inSize))
	}
	out := make([]float64, c.outSize)
	c.forward(x, out, 1)
	return out
}

// forward runs n samples from in through the plan into out.
func (c *Compiled) forward(in, out []float64, n int) {
	if len(c.ops) == 0 {
		copy(out, in)
		return
	}

	sc := c.pool.Get().(*compiledScratch)
	slab := n * c.maxElems
	sc.a = growSlab(sc.a, slab)
	sc.b = growSlab(sc.b, slab)
	sc.pad = growSlab(sc.pad, c.maxPad)

	cur := in
	useA := true
	for i := range c.ops {
		op := &c.ops[i]
		var dst []float64
		if i == len(c.ops)-1 {
			dst = out
		} else if useA {
			dst, useA = sc.a, false
		} else {
			dst, useA = sc.b, true
		}
		op.run(cur, dst, n, sc.pad)
		cur = dst[:n*op.out]
	}
	c.pool.Put(sc)
}

// run executes one op over a batch of n samples. Every op writes each of
// its output elements (the kernels' bias-first / assignment forms with a
// nil prune mask), so dirty reused scratch never leaks into results.
func (op *compiledOp) run(src, dst []float64, n int, pad []float64) {
	switch op.kind {
	case opConv:
		for s := 0; s < n; s++ {
			op.g.convForward(src[s*op.in:(s+1)*op.in], pad, op.offs, op.wd, op.bd, dst[s*op.out:(s+1)*op.out], nil, op.relu)
		}
	case opDense:
		denseForward(src[:n*op.in], op.wd, op.bd, dst[:n*op.out], n, op.g.inC, op.g.outC, nil)
	case opReLU:
		reluForward(dst[:n*op.in], src[:n*op.in])
	case opScatter:
		for s := 0; s < n; s++ {
			xs := src[s*op.in : (s+1)*op.in]
			os := dst[s*op.out : (s+1)*op.out]
			for i := range os {
				os[i] = 0
			}
			for j, v := range xs {
				os[op.idx[j]] = v
			}
		}
	case opPool:
		for s := 0; s < n; s++ {
			op.g.poolForward(src[s*op.in:(s+1)*op.in], dst[s*op.out:(s+1)*op.out])
		}
	}
}

// verifyAgainst pushes a deterministic two-sample probe batch through
// the compiled plan and through base.Infer(·, masks) and reports the
// first bit mismatch. The probe seed is fixed so compile results are
// reproducible across processes.
func (c *Compiled) verifyAgainst(base *Network, masks map[int][]bool) error {
	rng := rand.New(rand.NewSource(0x9e3779b9))
	probe := tensor.New(append([]int{2}, base.InShape...)...)
	pd := probe.Data()
	for i := range pd {
		pd[i] = rng.NormFloat64()
	}
	want := base.Infer(probe, masks)
	got := c.Infer(probe)
	wd, gd := want.Data(), got.Data()
	if len(wd) != len(gd) {
		return fmt.Errorf("probe output has %d elems, want %d", len(gd), len(wd))
	}
	for i := range wd {
		if math.Float64bits(wd[i]) != math.Float64bits(gd[i]) {
			return fmt.Errorf("probe output bit mismatch at elem %d: compiled %v (%#x), masked %v (%#x)",
				i, gd[i], math.Float64bits(gd[i]), wd[i], math.Float64bits(wd[i]))
		}
	}
	return nil
}

// growSlab returns s resized to length n, reallocating only when the
// capacity is short (contents undefined — every op writes its outputs).
func growSlab(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
