package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"capnn/internal/tensor"
)

// This file is the compiled-inference pipeline: Compile turns a
// (base network, prune masks) pair into a Compiled — a physically
// compacted copy of the network (via CompactMasked) lowered to a flat op
// plan that runs through the shared kernels in kernels.go with scratch
// buffers sized for the *sub*-network. A Prefix lowers the unpruned
// layers before a stage once; a plan compiled on it compacts and lowers
// only the layers after them, and runs the prefix's plan first.
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

// compiledOp is one step of the lowered plan. Flatten is elided at
// compile time: it is the identity on the contiguous NCHW slab. A ReLU
// directly after a conv or dense is folded into it.
type compiledOp struct {
	kind    opKind
	relu    bool      // conv/dense: the ReLU that followed it, fused into the store
	padIn   bool      // conv: its input arrives dense (the request, a lone ReLU's output) and is copied into plane
	g       convGeom  // conv + pool geometry (pool: outC == inC); dense: its panel's 1×1 conv (newDenseOp)
	wd      []float64 // conv: weights (aliases the compacted net's params)
	bd      []float64 // conv: bias
	pk      []float64 // dense, conv on a 2-wide plane: the panel [bias; Wᵀ] (packLanes)
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
// garbage once Compile returns. A plan compiled on a Prefix runs the
// prefix's shared plan first and its own ops on what that leaves.
type Compiled struct {
	prefix   *Prefix // what it was compiled on; nil for a prefix's own plan
	inShape  []int   // per-sample input shape (the request's)
	outShape []int   // per-sample output shape
	inSize   int
	outSize  int
	ops      []compiledOp
	mid      int // arena offset of the prefix plan's output, ops[0]'s input
	arena    int // one sample's scratch floats: every op boundary's place (lay)
	bytes    int64
	pool     sync.Pool // *[]float64 arenas, zeroed when allocated
}

// Prefix is the part of a network every plan compiled on it shares: the
// layers before the unit layer of one stage, unpruned, lowered once. Its
// plan's conv weights alias the network's own and it runs on one arena
// pool, whichever plan it runs for; Compile compacts, lowers and probes
// only the layers after it. CAP'NN prunes only the last stages, so the
// serving tier splits at the first prunable one and pays for the rest of
// the network once per model rather than once per cache entry.
type Prefix struct {
	net   *Network
	split int       // net.Layers[:split] is the prefix, [split:] what Compile lowers
	stage int       // the stage index of net.Layers[split]
	plan  *Compiled // net.Layers[:split]'s plan; nil when split is 0
}

// NewPrefix lowers net's layers before the unit layer of stage (the
// Stage.Index of Stages) and probes them once against Infer. Stage 0
// leaves an empty prefix: every Compile on it lowers the whole network.
func NewPrefix(net *Network, stage int) (*Prefix, error) {
	p := &Prefix{net: net, stage: stage}
	unit := -1
	for i, l := range net.Layers {
		if _, ok := l.(UnitLayer); ok {
			if unit++; unit == stage {
				p.split = i
				break
			}
		}
	}
	if stage < 0 || unit != stage {
		return nil, fmt.Errorf("nn: prefix: no stage %d in a network of %d", stage, unit+1)
	}
	if p.split == 0 {
		return p, nil
	}
	head := &Network{InShape: net.InShape, Layers: net.Layers[:p.split]}
	var err error
	if p.plan, err = plan(head, nil, nil); err == nil {
		err = p.plan.verify(head.Layers, 0, nil, net.InShape)
	}
	if err != nil {
		return nil, fmt.Errorf("nn: prefix: %w", err)
	}
	return p, nil
}

// Bytes is the prefix plan's weight and bias floats, as Compiled.Bytes
// counts them: the memory every plan compiled on it shares.
func (p *Prefix) Bytes() int64 {
	if p.plan == nil {
		return 0
	}
	return p.plan.bytes
}

// Compile compacts net under masks (same indexing as Infer; nil prunes
// nothing) and lowers it to an op plan. Before returning, it pushes a
// deterministic probe batch through both the compiled plan and the
// masked base network and fails unless the outputs are bit-for-bit
// identical — so a successful Compile guarantees Infer parity.
func Compile(net *Network, masks map[int][]bool) (*Compiled, error) {
	return (&Prefix{net: net}).Compile(masks)
}

// Compile is nn.Compile for a plan that runs p's shared plan first: it
// compacts, lowers and probes only the layers after the prefix, and
// refuses masks that prune a stage inside it.
func (p *Prefix) Compile(masks map[int][]bool) (*Compiled, error) {
	if err := checkStages(p.net, masks); err != nil {
		return nil, fmt.Errorf("nn: compile: %w", err)
	}
	for s, m := range masks {
		if s < p.stage && slices.Contains(m, true) {
			return nil, fmt.Errorf("nn: compile: stage %d is pruned but lies in the shared prefix (stages < %d)", s, p.stage)
		}
	}
	layers, inShape := p.net.Layers[p.split:], p.net.InShape
	if p.split > 0 {
		inShape = layers[0].InShape()
	}
	cnet, keep, err := compactMaskedKeep(layers, inShape, p.stage, masks)
	if err != nil {
		return nil, fmt.Errorf("nn: compile: %w", err)
	}
	c, err := plan(cnet, keep, p.net.Layers[len(p.net.Layers)-1].OutShape())
	if err != nil {
		return nil, fmt.Errorf("nn: compile: %w", err)
	}
	c.prefix = p
	if p.plan != nil {
		c.mid, c.arena = c.arena, c.arena+p.plan.outSize
	}
	if err := c.verify(layers, p.stage, masks, inShape); err != nil {
		return nil, fmt.Errorf("nn: compile: %w", err)
	}
	if p.plan != nil {
		c.inShape, c.inSize = p.plan.inShape, p.plan.inSize
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
			op = newConvOp(t.geom(), t.w.W.Data(), t.b.W.Data())
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
		case *Flatten:
			// Identity on the contiguous slab: elide.
			continue
		default:
			return nil, fmt.Errorf("cannot lower layer type %T", l)
		}
		c.bytes += int64(len(op.wd)+len(op.bd)+len(op.pk)) * 8
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
			if op.out >= denseConvMin { // its panel's filter (newDenseOp)
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

// InSize is the flattened per-sample input length.
func (c *Compiled) InSize() int { return c.inSize }

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
	c.forward(x.Data(), out.Data(), n, c.prefix.head())
	return out
}

// InferSample is Infer for one flattened sample, without the tensors: the
// returned logits are its only allocation. The serving tier's entry.
func (c *Compiled) InferSample(x []float64) []float64 {
	if len(x) != c.inSize {
		panic(fmt.Sprintf("nn: compiled infer got %d elems/sample, want %d", len(x), c.inSize))
	}
	out := make([]float64, c.outSize)
	c.forward(x, out, 1, c.prefix.head())
	return out
}

// head is the prefix's plan, nil when there is none (or no prefix).
func (p *Prefix) head() *Compiled {
	if p == nil {
		return nil
	}
	return p.plan
}

// forward runs n samples from in through head, when there is one, and
// then the plan's own ops into out, one after another, each on a pooled
// arena: head's output lands in the plan's arena at mid, where ops[0]
// reads it.
func (c *Compiled) forward(in, out []float64, n int, head *Compiled) {
	if n == 0 {
		return
	}
	a, h, w := c.pool.Get().(*[]float64), (*[]float64)(nil), len(in)/n
	if head != nil {
		h = head.pool.Get().(*[]float64)
	}
	for s := 0; s < n; s++ {
		src, o := in[s*w:][:w], out[s*c.outSize:][:c.outSize]
		if head != nil {
			mid := (*a)[c.mid:][:head.outSize]
			head.pass(src, mid, *h)
			src = mid
		}
		c.pass(src, o, *a)
	}
	if head != nil {
		head.pool.Put(h)
	}
	c.pool.Put(a)
}

// pass runs one sample from src through the ops into out on arena.
func (c *Compiled) pass(src, out, arena []float64) {
	if len(c.ops) == 0 {
		copy(out, src)
	}
	for i := range c.ops {
		dst := c.dst(i, out, arena)
		c.ops[i].run(src, dst, arena)
		src = dst
	}
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
			op.g.padInput(src[:op.in], plane, 1)
		}
		op.macs(plane, dst)
	case opDense:
		switch {
		case useAVX512:
			denseLanesAVX512(src, op.pk, dst, op.in, op.out, op.relu)
		case op.out < denseConvMin:
			densePanelGo(src[:op.in], op.pk, dst[:op.out], op.relu)
		default:
			filter := arena[op.plane:][:op.in+1]
			filter[0] = 1
			copy(filter[1:], src[:op.in])
			op.g.conv1x1(op.pk, filter, negZero, dst, nil, op.relu)
		}
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

// macs is a conv op's multiply-accumulates over its filled plane, stored
// to dst at the op's strides: with AVX-512, on the lane tile when the op
// has a panel.
func (op *compiledOp) macs(plane, dst []float64) {
	if op.pk != nil && useAVX512 {
		convLanesAVX512(op.g, plane, op.offs, op.pk, dst, op.row, op.ch, op.relu)
		return
	}
	op.g.convMACs(plane, op.offs, op.wd, op.bd, dst, op.row, op.ch, nil, op.relu)
}

// verify pushes a deterministic two-sample probe batch of inShape through
// the plan's own ops and through InferLayers(layers, stage, masks, ·) and
// reports the first bit mismatch. The probe seed is fixed so compile
// results are reproducible across processes.
func (c *Compiled) verify(layers []Layer, stage int, masks map[int][]bool, inShape []int) error {
	rng := rand.New(rand.NewSource(0x9e3779b9))
	probe := tensor.New(append([]int{2}, inShape...)...)
	pd := probe.Data()
	for i := range pd {
		pd[i] = rng.NormFloat64()
	}
	wd := InferLayers(layers, stage, masks, probe).Data()
	gd := make([]float64, 2*c.outSize)
	c.forward(pd, gd, 2, nil)
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
