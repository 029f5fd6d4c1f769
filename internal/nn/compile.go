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
// slab at inference. A ReLU directly after a conv or dense is folded
// into it.
type compiledOp struct {
	kind    opKind
	relu    bool      // conv/dense: the ReLU that followed it, fused into the store
	padIn   bool      // conv: its input arrives dense (the request, a lone ReLU's output) and is copied into plane
	g       convGeom  // conv + pool geometry (pool: outC == inC); dense: its panel's 1×1 conv (newDenseOp)
	wd      []float64 // conv/dense: weights (aliases the compacted net's params); dense from 16 wide: the panel
	bd      []float64 // conv/dense: bias; nil beside a panel
	offs    []int     // conv: g.tapOffsets(nil), built once here rather than per call
	idx     []int     // scatter: full-width position of each compact feature
	in      int       // per-sample input elems
	out     int       // per-sample output elems
	plane   int       // conv: arena offset of the padded input plane its taps read; dense: of its filter [+1, x…]
	at      int       // arena offset of the output's first element (the last op stores to the caller's)
	row, ch int       // conv/pool: the output's row and channel strides from at (lay)
}

// Compiled is a physically compacted network lowered to an op plan.
// Infer is safe for concurrent use: all plan state is read-only after
// Compile and each call runs on an arena from a per-Compiled pool. The
// plan keeps only the weight and bias slices its ops alias; the
// compacted Network they came from, gradient buffers included, is
// garbage once Compile returns.
type Compiled struct {
	inShape  []int // per-sample input shape
	outShape []int // per-sample output shape
	inSize   int
	outSize  int
	ops      []compiledOp
	arena    int // one sample's scratch floats: every op boundary's place (lay)
	bytes    int64
	pool     sync.Pool // *[]float64 arenas, zeroed when allocated
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
	c, err := plan(cnet, keep, net.Layers[len(net.Layers)-1].OutShape())
	if err != nil {
		return nil, fmt.Errorf("nn: compile: %w", err)
	}
	if err := c.verifyAgainst(net, masks); err != nil {
		return nil, fmt.Errorf("nn: compile: %w", err)
	}
	return c, nil
}

// plan lowers a (already compacted) network into a Compiled without
// verification. keep is the final stage's surviving units out of the
// base network's outShape.
func plan(cnet *Network, keep []bool, outShape []int) (*Compiled, error) {
	c := &Compiled{
		inShape: append([]int(nil), cnet.InShape...),
		inSize:  shapeElems(cnet.InShape),
	}
	for _, l := range cnet.Layers {
		var op compiledOp
		switch t := l.(type) {
		case *Conv2D:
			g := t.geom()
			op = compiledOp{kind: opConv, g: g, wd: t.w.W.Data(), bd: t.b.W.Data(), offs: g.tapOffsets(nil), in: g.inSize(), out: g.outSize()}
		case *Dense:
			op = newDenseOp(t.w.W.Data(), t.b.W.Data(), t.in, t.out)
		case *ReLU:
			if last := len(c.ops) - 1; last >= 0 && (c.ops[last].kind == opConv || c.ops[last].kind == opDense) {
				c.ops[last].relu = true // clamped in the op's own store: no second pass
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
		c.ops = append(c.ops, op)
	}
	c.outShape = append([]int(nil), cnet.Layers[len(cnet.Layers)-1].OutShape()...)
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
		c.outShape = append([]int(nil), outShape...)
	}
	c.outSize = shapeElems(c.outShape)
	c.lay()
	c.pool.New = func() any { a := make([]float64, c.arena); return &a }
	return c, nil
}

// lay gives every op boundary its place in one sample's arena. Each conv
// owns a region holding its padded input plane, and a conv or pool right
// before it stores straight into that plane's interior at the plane's
// row and channel strides: the border, zeroed when the arena is
// allocated, is never stored to, so the taps read there the +0 padInput
// would have copied. Only a conv whose input arrives dense — op 0's
// request, a lone ReLU's output — copies it in with padInput. A dense op
// on a panel owns the in+1 floats of its filter. Every other output is dense, op i's
// in shared region i mod 2, so no op stores over the input it reads.
// Nothing here depends on the batch: forward runs sample after sample
// through the same arena.
func (c *Compiled) lay() {
	last := len(c.ops) - 1
	intoPlane := func(i int) bool { // op i stores into op i+1's plane
		return i < last && c.ops[i+1].kind == opConv && (c.ops[i].kind == opConv || c.ops[i].kind == opPool)
	}
	var dense [2]int
	for i := 0; i < last; i++ {
		if !intoPlane(i) {
			dense[i%2] = max(dense[i%2], c.ops[i].out)
		}
	}
	c.arena = dense[0] + dense[1]
	for i := range c.ops {
		op := &c.ops[i]
		switch op.kind {
		case opConv:
			op.plane, c.arena = c.arena, c.arena+op.g.padSize()
			op.padIn = i == 0 || !intoPlane(i-1)
		case opDense:
			if op.bd == nil { // a panel's (newDenseOp)
				op.plane, c.arena = c.arena, c.arena+op.in+1
			}
		}
		op.at, op.row, op.ch = i%2*dense[0], op.g.outW, op.g.outH*op.g.outW
	}
	for i := 0; i < last; i++ {
		if intoPlane(i) {
			g, op := c.ops[i+1].g, &c.ops[i]
			pw := g.inW + 2*g.pad
			op.at, op.row, op.ch = c.ops[i+1].plane+g.pad*pw+g.pad, pw, (g.inH+2*g.pad)*pw
		}
	}
}

// InShape returns the per-sample input shape (that of the base net).
func (c *Compiled) InShape() []int { return append([]int(nil), c.inShape...) }

// Bytes approximates resident memory: the compacted weight and bias
// floats. Scratch is pooled per call and excluded — it is transient and
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

// forward runs n samples from in through the plan into out, one after
// another on a pooled arena.
func (c *Compiled) forward(in, out []float64, n int) {
	if len(c.ops) == 0 {
		copy(out, in)
		return
	}
	a := c.pool.Get().(*[]float64)
	for s := 0; s < n; s++ {
		src, o := in[s*c.inSize:][:c.inSize], out[s*c.outSize:][:c.outSize]
		for i := range c.ops {
			dst := c.dst(i, o, *a)
			c.ops[i].run(src, dst, *a)
			src = dst
		}
	}
	c.pool.Put(a)
}

// dst is where op i stores one sample: the caller's out for the last op,
// else its place in the arena.
func (c *Compiled) dst(i int, out, arena []float64) []float64 {
	if i == len(c.ops)-1 {
		return out
	}
	return arena[c.ops[i].at:]
}

// run executes one op on one sample: src is the previous op's dst (the
// request for op 0), which a conv reads only when padIn; dst is where it
// stores, at row/ch strides for a conv or pool. Every op writes each of
// its output elements (the kernels' bias-first / assignment forms with a
// nil prune mask), so whatever an interior or dense region held is never
// read.
func (op *compiledOp) run(src, dst, arena []float64) {
	switch op.kind {
	case opConv:
		plane := arena[op.plane:][:op.g.padSize()]
		if op.padIn {
			op.g.padInput(src[:op.in], plane)
		}
		op.g.convMACs(plane, op.offs, op.wd, op.bd, dst, op.row, op.ch, nil, op.relu)
	case opDense:
		if op.bd != nil { // narrower than a tile (newDenseOp)
			denseForwardGo(src[:op.in], op.wd, op.bd, dst[:op.out], 1, op.in, op.out, nil)
			if op.relu {
				reluForward(dst[:op.out], dst[:op.out])
			}
			return
		}
		filter := arena[op.plane:][:op.in+1]
		filter[0] = 1
		copy(filter[1:], src[:op.in])
		op.g.conv1x1(op.wd, filter, negZero, dst, nil, op.relu)
	case opReLU:
		reluForward(dst[:op.in], src[:op.in])
	case opScatter:
		os := dst[:op.out]
		clear(os)
		for j, v := range src[:op.in] {
			os[op.idx[j]] = v
		}
	case opPool:
		op.g.poolForward(src, dst, op.row, op.ch)
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
