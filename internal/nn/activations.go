package nn

import (
	"fmt"

	"capnn/internal/tensor"
)

// ReLU is the rectified-linear activation. CAP'NN's firing-rate profiling
// observes post-ReLU activations, so ReLU supports an optional recording
// hook invoked with each forward output.
type ReLU struct {
	name  string
	shape []int
	// Hook, when non-nil, is called with the batch output of every
	// Forward. The callee must not retain or mutate the tensor.
	Hook func(out *tensor.Tensor)

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
	if r.Hook != nil {
		r.Hook(out)
	}
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

// MaxPool2D is max pooling over NCHW batches with a square window.
type MaxPool2D struct {
	name          string
	c, inH, inW   int
	k, stride     int
	outH, outW    int
	lastArg       []int // flat input index of each output's max
	lastBatch     int
	lastArgStride int
}

// NewMaxPool2D constructs a pool layer for per-sample input [C, H, W].
func NewMaxPool2D(name string, inShape []int, k, stride int) (*MaxPool2D, error) {
	if len(inShape) != 3 {
		return nil, fmt.Errorf("nn: pool %q needs [C,H,W] input shape, got %v", name, inShape)
	}
	c, h, w := inShape[0], inShape[1], inShape[2]
	if k <= 0 || stride <= 0 || k > h || k > w {
		return nil, fmt.Errorf("nn: pool %q invalid window k=%d stride=%d for input %v", name, k, stride, inShape)
	}
	outH := (h-k)/stride + 1
	outW := (w-k)/stride + 1
	if outH <= 0 || outW <= 0 {
		return nil, fmt.Errorf("nn: pool %q empty output for input %v", name, inShape)
	}
	return &MaxPool2D{name: name, c: c, inH: h, inW: w, k: k, stride: stride, outH: outH, outW: outW}, nil
}

// geom is the pool's window geometry in the kernels' terms (outC = inC).
func (p *MaxPool2D) geom() convGeom {
	return convGeom{inC: p.c, inH: p.inH, inW: p.inW, outC: p.c, outH: p.outH, outW: p.outW, k: p.k, stride: p.stride}
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
	p.lastArgStride = p.c * outHW
	if cap(p.lastArg) < n*p.lastArgStride {
		p.lastArg = make([]int, n*p.lastArgStride)
	}
	p.lastArg = p.lastArg[:n*p.lastArgStride]
	xd, od := x.Data(), out.Data()
	for s := 0; s < n; s++ {
		for c := 0; c < p.c; c++ {
			xCh := xd[(s*p.c+c)*inHW : (s*p.c+c+1)*inHW]
			oBase := (s*p.c + c) * outHW
			for oy := 0; oy < p.outH; oy++ {
				for ox := 0; ox < p.outW; ox++ {
					iy0, ix0 := oy*p.stride, ox*p.stride
					best := xCh[iy0*p.inW+ix0]
					arg := iy0*p.inW + ix0
					for ky := 0; ky < p.k; ky++ {
						for kx := 0; kx < p.k; kx++ {
							v := xCh[(iy0+ky)*p.inW+ix0+kx]
							if v > best {
								best = v
								arg = (iy0+ky)*p.inW + ix0 + kx
							}
						}
					}
					od[oBase+oy*p.outW+ox] = best
					p.lastArg[s*p.lastArgStride+c*outHW+oy*p.outW+ox] = (s*p.c+c)*inHW + arg
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
