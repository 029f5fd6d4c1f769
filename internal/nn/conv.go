package nn

import (
	"fmt"
	"math/rand"

	"capnn/internal/tensor"
)

// Conv2D is a 3×3 convolution at step 1 with one pad cell on every
// side, so its output plane is its input's, over NCHW batches: VGG-16's
// only conv. Weights have shape [outC, inC, 3, 3]; bias has shape
// [outC]. Output channels are the prunable units.
type Conv2D struct {
	name          string
	inC, inH, inW int
	outC          int

	w, b *Param

	lastIn *tensor.Tensor
}

// convK and convPad are every conv's kernel side and padding.
const convK, convPad = 3, 1

// NewConv2D constructs a convolution for the given per-sample input shape
// [inC, inH, inW]. Weights are He-initialized from rng; bias starts at 0.
func NewConv2D(name string, inShape []int, outC int, rng *rand.Rand) (*Conv2D, error) {
	c, err := NewConv2DUninit(name, inShape, outC)
	if err != nil {
		return nil, err
	}
	c.w.W.FillHe(rng, inShape[0]*convK*convK)
	return c, nil
}

// NewConv2DUninit constructs the convolution with zeroed weights — the
// allocation path for callers that overwrite every parameter anyway
// (compaction, deserialization), which would otherwise pay for a full
// random init just to discard it.
func NewConv2DUninit(name string, inShape []int, outC int) (*Conv2D, error) {
	if len(inShape) != 3 {
		return nil, fmt.Errorf("nn: conv %q needs [C,H,W] input shape, got %v", name, inShape)
	}
	inC, inH, inW := inShape[0], inShape[1], inShape[2]
	if outC <= 0 {
		return nil, fmt.Errorf("nn: conv %q needs output channels, got outC=%d", name, outC)
	}
	if inH <= 0 || inW <= 0 {
		return nil, fmt.Errorf("nn: conv %q produces empty output for input %v", name, inShape)
	}
	c := &Conv2D{name: name, inC: inC, inH: inH, inW: inW, outC: outC}
	c.w = &Param{Name: name + ".w", W: tensor.New(outC, inC, convK, convK), G: tensor.New(outC, inC, convK, convK)}
	c.b = &Param{Name: name + ".b", W: tensor.New(outC), G: tensor.New(outC)}
	return c, nil
}

func (c *Conv2D) Name() string     { return c.name }
func (c *Conv2D) Kernel() int      { return convK }
func (c *Conv2D) InShape() []int   { return []int{c.inC, c.inH, c.inW} }
func (c *Conv2D) OutShape() []int  { return []int{c.outC, c.inH, c.inW} }
func (c *Conv2D) Params() []*Param { return []*Param{c.w, c.b} }

// Weights exposes the filter tensor [outC, inC, K, K]; baselines rank
// channels by filter norm.
func (c *Conv2D) Weights() *tensor.Tensor { return c.w.W }
func (c *Conv2D) Units() int              { return c.outC }

// Forward computes the convolution for a batch x of shape [N, inC, inH, inW]:
// forward with nothing pruned, plus the cached input Backward needs.
func (c *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	c.lastIn = x
	out := tensor.New(x.Dim(0), c.outC, c.inH, c.inW)
	c.forward(x.Data(), out.Data(), x.Dim(0), nil, false)
	return out
}

func (c *Conv2D) outLen() int { return c.outC * c.inH * c.inW }

// forward runs n samples through the shared direct-convolution kernel
// (unitForward), touching no layer state.
func (c *Conv2D) forward(xd, od []float64, n int, pruned []bool, relu bool) {
	g := c.geom()
	inSz, outSz := g.inSize(), g.outSize()
	pad, ib := floatScratch.get(g.padSize()), intScratch.get(g.inC*g.k*g.k)
	offs := g.tapOffsets((*ib)[:0])
	for s := 0; s < n; s++ {
		g.convForward(xd[s*inSz:(s+1)*inSz], *pad, offs, c.w.W.Data(), c.b.W.Data(), od[s*outSz:(s+1)*outSz], pruned, relu)
	}
	floatScratch.Put(pad)
	intScratch.Put(ib)
}

// forwardMinor runs a sample-minor batch through convMinor (unitForward).
func (c *Conv2D) forwardMinor(xd, od []float64, n int, pruned []bool, relu bool) {
	c.geom().convMinor(xd, c.w.W.Data(), c.b.W.Data(), od, n, pruned, relu)
}

func (c *Conv2D) planeW() int { return c.inW }

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
