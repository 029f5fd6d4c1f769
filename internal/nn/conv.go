package nn

import (
	"fmt"
	"math/rand"

	"capnn/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW batches. Weights have shape
// [outC, inC, K, K]; bias has shape [outC]. Output channels are the
// prunable units.
type Conv2D struct {
	name                 string
	inC, inH, inW        int
	outC, k, stride, pad int
	outH, outW           int

	w, b *Param

	lastIn *tensor.Tensor
}

// NewConv2D constructs a convolution for the given per-sample input shape
// [inC, inH, inW]. Weights are He-initialized from rng; bias starts at 0.
func NewConv2D(name string, inShape []int, outC, k, stride, pad int, rng *rand.Rand) (*Conv2D, error) {
	c, err := NewConv2DUninit(name, inShape, outC, k, stride, pad)
	if err != nil {
		return nil, err
	}
	c.w.W.FillHe(rng, inShape[0]*k*k)
	return c, nil
}

// NewConv2DUninit constructs the convolution with zeroed weights — the
// allocation path for callers that overwrite every parameter anyway
// (compaction, deserialization), which would otherwise pay for a full
// random init just to discard it.
func NewConv2DUninit(name string, inShape []int, outC, k, stride, pad int) (*Conv2D, error) {
	if len(inShape) != 3 {
		return nil, fmt.Errorf("nn: conv %q needs [C,H,W] input shape, got %v", name, inShape)
	}
	inC, inH, inW := inShape[0], inShape[1], inShape[2]
	if outC <= 0 || k <= 0 || stride <= 0 || pad < 0 {
		return nil, fmt.Errorf("nn: conv %q invalid config outC=%d k=%d stride=%d pad=%d", name, outC, k, stride, pad)
	}
	outH := (inH+2*pad-k)/stride + 1
	outW := (inW+2*pad-k)/stride + 1
	if outH <= 0 || outW <= 0 {
		return nil, fmt.Errorf("nn: conv %q produces empty output for input %v", name, inShape)
	}
	c := &Conv2D{
		name: name,
		inC:  inC, inH: inH, inW: inW,
		outC: outC, k: k, stride: stride, pad: pad,
		outH: outH, outW: outW,
	}
	c.w = &Param{Name: name + ".w", W: tensor.New(outC, inC, k, k), G: tensor.New(outC, inC, k, k)}
	c.b = &Param{Name: name + ".b", W: tensor.New(outC), G: tensor.New(outC)}
	return c, nil
}

func (c *Conv2D) Name() string     { return c.name }
func (c *Conv2D) Kernel() int      { return c.k }
func (c *Conv2D) Stride() int      { return c.stride }
func (c *Conv2D) Pad() int         { return c.pad }
func (c *Conv2D) InShape() []int   { return []int{c.inC, c.inH, c.inW} }
func (c *Conv2D) OutShape() []int  { return []int{c.outC, c.outH, c.outW} }
func (c *Conv2D) Params() []*Param { return []*Param{c.w, c.b} }

// Weights exposes the filter tensor [outC, inC, K, K]; baselines rank
// channels by filter norm.
func (c *Conv2D) Weights() *tensor.Tensor { return c.w.W }

// Bias exposes the bias vector [outC].
func (c *Conv2D) Bias() *tensor.Tensor { return c.b.W }
func (c *Conv2D) Units() int           { return c.outC }

// Forward computes the convolution for a batch x of shape [N, inC, inH, inW]:
// inferMasked (infer.go) with nothing pruned, plus the cached input
// Backward needs.
func (c *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	c.lastIn = x
	return c.inferMasked(x, nil)
}

// Backward accumulates dW and dB and returns dX. grad has the output's
// batch shape.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if c.lastIn == nil {
		panic("nn: conv Backward before Forward")
	}
	x := c.lastIn
	n := x.Dim(0)
	dx := tensor.New(n, c.inC, c.inH, c.inW)
	xd, gd, dxd := x.Data(), grad.Data(), dx.Data()
	wd, dwd, dbd := c.w.W.Data(), c.w.G.Data(), c.b.G.Data()

	g := c.geom()
	inSz, outSz, colSz := g.inSize(), g.outSize(), g.colsSize()
	colsBuf, dcolsBuf, padBuf := floatScratch.get(colSz), floatScratch.get(colSz), floatScratch.get(g.padSize())
	cols, dcols, offs := *colsBuf, *dcolsBuf, g.tapOffsets(nil)
	for s := 0; s < n; s++ {
		g.im2col(xd[s*inSz:(s+1)*inSz], *padBuf, offs, cols)
		clear(dcols)
		g.convBackward(cols, wd, gd[s*outSz:(s+1)*outSz], dwd, dbd, dcols)
		g.col2im(dcols, dxd[s*inSz:(s+1)*inSz])
	}
	floatScratch.Put(colsBuf)
	floatScratch.Put(dcolsBuf)
	floatScratch.Put(padBuf)
	return dx
}
