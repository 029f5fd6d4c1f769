package nn

import (
	"fmt"
	"math/rand"

	"capnn/internal/tensor"
)

// Network is an ordered feed-forward stack of layers.
type Network struct {
	// InShape is the per-sample input shape, e.g. [1, 32, 32].
	InShape []int
	Layers  []Layer
}

// Forward runs the batch x (shape [N, InShape...]) through every layer and
// returns the final output (the logits for a classifier).
func (n *Network) Forward(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range n.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward propagates the loss gradient through every layer in reverse,
// accumulating parameter gradients.
func (n *Network) Backward(grad *tensor.Tensor) {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad = n.Layers[i].Backward(grad)
	}
}

// Params returns every learnable parameter in layer order.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrad clears every parameter gradient.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		p.G.Zero()
	}
}

// ParamCount returns the number of learnable scalars (weights + biases),
// the paper's model-size metric.
func (n *Network) ParamCount() int {
	total := 0
	for _, p := range n.Params() {
		total += p.W.Len()
	}
	return total
}

// Stage pairs a prunable unit layer with the ReLU that observes its firing
// (nil for the output layer, which has no activation and is never pruned).
type Stage struct {
	// Index is the position of this stage among all unit layers, 0-based.
	Index int
	Unit  UnitLayer
	Act   *ReLU
}

// Stages returns the network's unit layers (convs and denses) in order,
// each paired with its following ReLU when one exists. CAP'NN indexes
// layers through this list: the last len-6 entries are the paper's set L,
// with the final entry being the never-pruned output layer.
func (n *Network) Stages() []Stage {
	var stages []Stage
	for i, l := range n.Layers {
		u, ok := l.(UnitLayer)
		if !ok {
			continue
		}
		st := Stage{Index: len(stages), Unit: u}
		if i+1 < len(n.Layers) {
			if r, ok := n.Layers[i+1].(*ReLU); ok {
				st.Act = r
			}
		}
		stages = append(stages, st)
	}
	return stages
}

// Builder assembles sequential networks with automatic shape threading.
type Builder struct {
	inShape []int
	cur     []int
	layers  []Layer
	rng     *rand.Rand
	err     error
	n       int
}

// NewBuilder starts a network for per-sample inputs of shape [c, h, w].
// All parameter initialization draws from a rand source seeded with seed,
// making construction fully deterministic.
func NewBuilder(c, h, w int, seed int64) *Builder {
	in := []int{c, h, w}
	return &Builder{inShape: in, cur: in, rng: rand.New(rand.NewSource(seed))}
}

func (b *Builder) push(l Layer, err error) {
	if b.err != nil {
		return
	}
	if err != nil {
		b.err = err
		return
	}
	b.layers = append(b.layers, l)
	b.cur = l.OutShape()
	b.n++
}

// Conv appends a 3×3 stride-1 pad-1 convolution with outC channels.
func (b *Builder) Conv(outC int) *Builder {
	l, err := NewConv2D(fmt.Sprintf("conv%d", b.n), b.cur, outC, 3, 1, 1, b.rng)
	b.push(l, err)
	return b
}

// ConvK appends a convolution with explicit kernel, stride and padding.
func (b *Builder) ConvK(outC, k, stride, pad int) *Builder {
	l, err := NewConv2D(fmt.Sprintf("conv%d", b.n), b.cur, outC, k, stride, pad, b.rng)
	b.push(l, err)
	return b
}

// ReLU appends a rectifier.
func (b *Builder) ReLU() *Builder {
	if b.err == nil {
		b.push(NewReLU(fmt.Sprintf("relu%d", b.n), b.cur), nil)
	}
	return b
}

// Pool appends 2×2 stride-2 max pooling.
func (b *Builder) Pool() *Builder {
	l, err := NewMaxPool2D(fmt.Sprintf("pool%d", b.n), b.cur, 2, 2)
	b.push(l, err)
	return b
}

// Flatten appends a flatten layer.
func (b *Builder) Flatten() *Builder {
	if b.err == nil {
		b.push(NewFlatten(fmt.Sprintf("flatten%d", b.n), b.cur), nil)
	}
	return b
}

// Dense appends a fully-connected layer with out neurons.
func (b *Builder) Dense(out int) *Builder {
	l, err := NewDense(fmt.Sprintf("fc%d", b.n), b.cur, out, b.rng)
	b.push(l, err)
	return b
}

// Build finalizes the network.
func (b *Builder) Build() (*Network, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.layers) == 0 {
		return nil, fmt.Errorf("nn: empty network")
	}
	return &Network{InShape: append([]int(nil), b.inShape...), Layers: b.layers}, nil
}

// MustBuild is Build but panics on error.
func (b *Builder) MustBuild() *Network {
	n, err := b.Build()
	if err != nil {
		panic(err)
	}
	return n
}
