// Package nn implements the from-scratch CNN substrate that CAP'NN prunes:
// convolution, dense, ReLU, max-pool and flatten layers with forward and
// backward passes, inference under per-unit prune masks (conv channels /
// dense neurons) that reports post-ReLU activations to firing-rate
// profiling, physical network compaction, and gob serialization.
//
// The paper's framework takes "a commodity trained model" as input; this
// package is the stdlib-only stand-in for that commodity framework.
package nn

import "capnn/internal/tensor"

// Param is a learnable parameter with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Tensor // value
	G    *tensor.Tensor // gradient, same shape as W
}

// Layer is one stage of a feed-forward network. Forward consumes a batch
// tensor whose first dimension is the sample index; Backward consumes the
// gradient of the loss with respect to the layer's output and returns the
// gradient with respect to its input, accumulating parameter gradients.
//
// Layers are stateful across a Forward/Backward pair (they cache the
// forward input); a single network instance must not be used concurrently.
type Layer interface {
	Name() string
	// InShape and OutShape are per-sample shapes (no batch dimension).
	InShape() []int
	OutShape() []int
	Forward(x *tensor.Tensor) *tensor.Tensor
	Backward(grad *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// UnitLayer is a layer whose outputs form prunable units: output channels
// for convolutions, output neurons for dense layers. Pruning unit u forces
// its entire output (and hence the following ReLU) to zero, exactly the
// semantics CAP'NN's algorithms assume. Masks are values: Infer and
// CompactMasked take them as an argument, and no layer stores one.
type UnitLayer interface {
	Layer
	// Units returns the number of prunable output units.
	Units() int
}

func shapeElems(s []int) int {
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}
