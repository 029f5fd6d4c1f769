package nn

import (
	"fmt"
	"math/rand"

	"capnn/internal/tensor"
)

// Dense is a fully-connected layer y = Wx + b with weights [out, in] and
// bias [out]. Output neurons are the prunable units.
type Dense struct {
	name    string
	in, out int
	w, b    *Param
	lastIn  *tensor.Tensor
}

// NewDense constructs a dense layer for flat per-sample input [in].
// Weights are He-initialized from rng; bias starts at 0.
func NewDense(name string, inShape []int, out int, rng *rand.Rand) (*Dense, error) {
	d, err := NewDenseUninit(name, inShape, out)
	if err != nil {
		return nil, err
	}
	d.w.W.FillHe(rng, inShape[0])
	return d, nil
}

// NewDenseUninit constructs the dense layer with zeroed weights — the
// allocation path for callers that overwrite every parameter anyway
// (compaction, deserialization).
func NewDenseUninit(name string, inShape []int, out int) (*Dense, error) {
	if len(inShape) != 1 {
		return nil, fmt.Errorf("nn: dense %q needs flat [F] input shape, got %v", name, inShape)
	}
	in := inShape[0]
	if in <= 0 || out <= 0 {
		return nil, fmt.Errorf("nn: dense %q invalid dims in=%d out=%d", name, in, out)
	}
	d := &Dense{name: name, in: in, out: out}
	d.w = &Param{Name: name + ".w", W: tensor.New(out, in), G: tensor.New(out, in)}
	d.b = &Param{Name: name + ".b", W: tensor.New(out), G: tensor.New(out)}
	return d, nil
}

func (d *Dense) Name() string     { return d.name }
func (d *Dense) InShape() []int   { return []int{d.in} }
func (d *Dense) OutShape() []int  { return []int{d.out} }
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }
func (d *Dense) Units() int       { return d.out }

// Weights exposes the weight matrix [out, in]. CAP'NN-M reads it to score
// last-layer neuron contributions (∂c_j/∂n_i = w_ji, Eq. 1 of the paper).
func (d *Dense) Weights() *tensor.Tensor { return d.w.W }

// Forward computes the affine map for a batch x of shape [N, in] via the
// shared dense kernel (see kernels.go).
func (d *Dense) Forward(x *tensor.Tensor) *tensor.Tensor {
	d.lastIn = x
	out := tensor.New(x.Dim(0), d.out)
	d.forward(x.Data(), out.Data(), x.Dim(0), nil, false)
	return out
}

func (d *Dense) outLen() int { return d.out }

// forward runs n rows through the shared dense kernel (unitForward).
func (d *Dense) forward(xd, od []float64, n int, pruned []bool, relu bool) {
	denseForward(xd, d.w.W.Data(), d.b.W.Data(), od, n, d.in, d.out, pruned, relu)
}

// forwardMinor runs a sample-minor batch through the conv the layer is
// (unitForward).
func (d *Dense) forwardMinor(xd, od []float64, n int, pruned []bool, relu bool) {
	denseGeom(d.in, d.out).convMinor(xd, d.w.W.Data(), d.b.W.Data(), od, n, pruned, relu)
}

func (d *Dense) planeW() int { return 1 }

// Backward accumulates dW and dB and returns dX.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.lastIn == nil {
		panic("nn: dense Backward before Forward")
	}
	x := d.lastIn
	n := x.Dim(0)
	dx := tensor.New(n, d.in)
	denseBackward(x.Data(), grad.Data(), d.w.W.Data(), dx.Data(), d.w.G.Data(), d.b.G.Data(), n, d.in, d.out)
	return dx
}
