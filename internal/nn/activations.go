package nn

import (
	"fmt"

	"capnn/internal/tensor"
)

// ReLU is the rectified-linear activation. CAP'NN's firing-rate profiling
// observes post-ReLU activations through Network.InferObserved.
type ReLU struct {
	name    string
	shape   []int
	lastOut *tensor.Tensor
}

// NewReLU constructs a ReLU preserving the per-sample shape.
func NewReLU(name string, inShape []int) *ReLU {
	return &ReLU{name: name, shape: append([]int(nil), inShape...)}
}

func (r *ReLU) Name() string     { return r.name }
func (r *ReLU) InShape() []int   { return r.shape }
func (r *ReLU) OutShape() []int  { return r.shape }
func (r *ReLU) Params() []*Param { return nil }

// Forward clamps negatives to zero — the "withheld from firing" semantics
// the paper's firing-rate definition relies on.
func (r *ReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.Shape()...)
	reluForward(out.Data(), x.Data())
	r.lastOut = out
	return out
}

// Backward gates the incoming gradient by the fired mask.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if r.lastOut == nil {
		panic("nn: relu Backward before Forward")
	}
	dx := tensor.New(grad.Shape()...)
	gd, od, dxd := grad.Data(), r.lastOut.Data(), dx.Data()
	for i, v := range od {
		if v > 0 {
			dxd[i] = gd[i]
		}
	}
	return dx
}

// MaxPool2D is max pooling over NCHW batches with 2×2 windows that do
// not overlap (step 2), VGG-16's only pool: an odd last row or column is
// dropped.
type MaxPool2D struct {
	name        string
	c, inH, inW int
	outH, outW  int
	lastArg     []int // flat input index of each output's max
	lastBatch   int
}

// NewMaxPool2D constructs a pool layer for per-sample input [C, H, W].
func NewMaxPool2D(name string, inShape []int) (*MaxPool2D, error) {
	if len(inShape) != 3 {
		return nil, fmt.Errorf("nn: pool %q needs [C,H,W] input shape, got %v", name, inShape)
	}
	c, h, w := inShape[0], inShape[1], inShape[2]
	if h < 2 || w < 2 {
		return nil, fmt.Errorf("nn: pool %q empty output for input %v", name, inShape)
	}
	return &MaxPool2D{name: name, c: c, inH: h, inW: w, outH: h / 2, outW: w / 2}, nil
}

// geom is the pool's planes in the kernels' terms (outC = inC).
func (p *MaxPool2D) geom() convGeom {
	return convGeom{inC: p.c, inH: p.inH, inW: p.inW, outC: p.c, outH: p.outH, outW: p.outW}
}

func (p *MaxPool2D) Name() string     { return p.name }
func (p *MaxPool2D) InShape() []int   { return []int{p.c, p.inH, p.inW} }
func (p *MaxPool2D) OutShape() []int  { return []int{p.c, p.outH, p.outW} }
func (p *MaxPool2D) Params() []*Param { return nil }

// Forward computes channelwise max pooling for a batch [N, C, H, W]. It
// keeps its own loop (poolForward's comparison order) because Backward
// needs each output's argmax.
func (p *MaxPool2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	n := x.Dim(0)
	out := tensor.New(n, p.c, p.outH, p.outW)
	outHW := p.outH * p.outW
	inHW := p.inH * p.inW
	p.lastBatch = n
	if cap(p.lastArg) < out.Len() {
		p.lastArg = make([]int, out.Len())
	}
	p.lastArg = p.lastArg[:out.Len()]
	xd, od := x.Data(), out.Data()
	for s := 0; s < n; s++ {
		for c := 0; c < p.c; c++ {
			xCh := xd[(s*p.c+c)*inHW : (s*p.c+c+1)*inHW]
			oBase := (s*p.c + c) * outHW
			for oy := 0; oy < p.outH; oy++ {
				for ox := 0; ox < p.outW; ox++ {
					arg := 2*oy*p.inW + 2*ox
					best := xCh[arg]
					for _, i := range [3]int{arg + 1, arg + p.inW, arg + p.inW + 1} {
						if v := xCh[i]; v > best {
							best, arg = v, i
						}
					}
					od[oBase+oy*p.outW+ox] = best
					p.lastArg[oBase+oy*p.outW+ox] = (s*p.c+c)*inHW + arg
				}
			}
		}
	}
	return out
}

// Backward routes each output gradient to the input location that won the
// max during the forward pass.
func (p *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if p.lastArg == nil {
		panic("nn: pool Backward before Forward")
	}
	dx := tensor.New(p.lastBatch, p.c, p.inH, p.inW)
	gd, dxd := grad.Data(), dx.Data()
	for i, src := range p.lastArg {
		dxd[src] += gd[i]
	}
	return dx
}

// Flatten reshapes [N, C, H, W] batches into [N, C*H*W].
type Flatten struct {
	name    string
	inShape []int
	out     int
}

// NewFlatten constructs a flatten layer for the given per-sample shape.
func NewFlatten(name string, inShape []int) *Flatten {
	return &Flatten{name: name, inShape: append([]int(nil), inShape...), out: shapeElems(inShape)}
}

func (f *Flatten) Name() string     { return f.name }
func (f *Flatten) InShape() []int   { return f.inShape }
func (f *Flatten) OutShape() []int  { return []int{f.out} }
func (f *Flatten) Params() []*Param { return nil }

func (f *Flatten) Forward(x *tensor.Tensor) *tensor.Tensor {
	return x.MustReshape(x.Dim(0), f.out)
}

func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	shape := append([]int{grad.Dim(0)}, f.inShape...)
	return grad.MustReshape(shape...)
}
