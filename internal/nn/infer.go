package nn

import (
	"fmt"

	"capnn/internal/tensor"
)

// This file is the inference-only forward path. Network.Forward exists
// for training: every layer caches its forward input so Backward can
// run, which is why a network must not be shared across goroutines
// there. Training never runs under masks — a pruned network is
// compacted first (CompactMasked) and the smaller network trained.
//
// Serving, profiling, evaluation and the pruning search want the
// opposite trade: many goroutines pushing batches through ONE set of
// weights, each under its own masks. Network.Infer provides that: it
// performs no writes to any layer field — no cached inputs, no pool
// argmax buffers — and takes the prune masks as an
// explicit argument; no layer stores one. Concurrent Infer calls are
// therefore safe, including beside personalization (System.Prune),
// which goes through this same walk and writes nothing either. The
// single forbidden overlap is weight mutation: do not train while
// serving.
//
// The arithmetic itself lives in kernels.go — the same direct conv and
// dense kernels Forward uses — so the serving path and the
// training path execute one implementation and stay bit-identical.

// unitForward is a unit layer's forward as both Forward and the walk run
// it: n samples from xd into od, which may arrive dirty — each sample's
// slab after the last (forward), or sample-minor, the n samples of a
// position side by side (forwardMinor). Pruned units' outputs are stored
// +0, and with relu every live output is clamped at +0 as it is stored —
// the ReLU that follows, folded in.
type unitForward interface {
	UnitLayer
	outLen() int // one sample's output floats
	planeW() int // its output plane's width: a dense layer's is 1
	forward(xd, od []float64, n int, pruned []bool, relu bool)
	forwardMinor(xd, od []float64, n int, pruned []bool, relu bool)
}

// minorBelow is the output-plane width under which a unit layer is
// narrow: the ZMM tile's row of 8 positions, which a narrower plane
// cannot fill and a sample-minor batch of 16 rows (two rows of 8) does.
// (Sample-minor 8-wide planes measured no faster on either rung.)
const minorBelow = 8

// minorFrom reports whether a walk of n rows turns sample-minor at the
// unit layer l: from 8 rows up on a CPU with AVX2, at its first narrow
// unit layer. Tests replace it to force either form.
var minorFrom = func(l unitForward, n int) bool {
	return n >= 8 && useAVX2 && l.planeW() < minorBelow
}

// Infer runs the batch x (shape [N, InShape...]) through the network
// without mutating any layer state and returns the logits. masks maps
// unit-layer index (the Stage.Index of Stages) to that stage's prune
// mask; nil masks — or absent indices — leave the stage unpruned. A
// pruned unit's output (and hence everything downstream of its ReLU) is
// zero; with nil masks Infer computes what Forward does outside
// training, bit for bit.
//
// Infer is safe for concurrent use, including concurrently with
// personalization, because it only reads the weights. It must not run
// concurrently with training (weight mutation).
func (n *Network) Infer(x *tensor.Tensor, masks map[int][]bool) *tensor.Tensor {
	return inferLayers(n.Layers, 0, masks, x, nil)
}

// InferObserved is Infer with a firing observer: after each unit stage's
// ReLU (the pairing Stages() reports), observe is called with the stage
// index and the post-ReLU batch output. That tensor is pooled scratch,
// valid only during the call: the observer must not retain or mutate it.
// A nil observe makes this identical to Infer.
//
// This is the stateless primitive behind firing-rate and activation
// profiling: it writes no layer state, so any number of goroutines can
// profile disjoint shards of a dataset through one network concurrently.
func (n *Network) InferObserved(x *tensor.Tensor, masks map[int][]bool, observe func(stage int, post *tensor.Tensor)) *tensor.Tensor {
	return inferLayers(n.Layers, 0, masks, x, observe)
}

// InferLayers is Infer over a contiguous slice of a network's layers —
// the suffix-replay primitive of the ε checks. firstStage is the
// unit-layer index of the first unit layer in layers, so masks keeps the
// whole network's indexing; x is the batch entering layers[0].
func InferLayers(layers []Layer, firstStage int, masks map[int][]bool, x *tensor.Tensor) *tensor.Tensor {
	return inferLayers(layers, firstStage, masks, x, nil)
}

// inferLayers is the one stateless layer walk. Each layer stores into a
// slab it takes from floatScratch and hands its input's slab back, so a
// walk holds at most two and, once the pool is warm, allocates nothing
// per layer. A ReLU right after a unit layer is folded into that layer's
// store, as the compiled plan folds it; any other ReLU clamps in place.
// From the first narrow unit layer on (minorFrom) the batch is
// transposed once into its sample-minor form [C][H][W][n] and stays in
// it — convs pad it once and run the tiles per output position over the
// n samples, a pool compares n-vectors, Flatten is still the identity and
// a dense layer's 1×1 conv takes the plane as it is — to be transposed
// back at the end; batches under 8 rows, and CPUs without AVX2, walk
// sample by sample throughout. Either way each output is the same chain, bit for
// bit (TestInferMinorMatchesPerImage). observe, when set, sees each
// folded ReLU's output, one sample's slab after the last. The result is
// copied out of the pool into a fresh tensor, the caller's to keep.
func inferLayers(layers []Layer, firstStage int, masks map[int][]bool, x *tensor.Tensor, observe func(stage int, post *tensor.Tensor)) *tensor.Tensor {
	n, unit := x.Dim(0), firstStage-1
	src, held := x.Data(), (*[]float64)(nil) // held is src's slab; nil while src is the caller's x
	minor := false                           // src is sample-minor
	next := func(out *[]float64) {           // out becomes src, src's slab goes back
		if held != nil {
			floatScratch.Put(held)
		}
		held, src = out, *out
	}
	for i := 0; i < len(layers); i++ {
		var out *[]float64
		switch t := layers[i].(type) {
		case unitForward:
			unit++
			pruned := masks[unit]
			if pruned != nil && len(pruned) != t.Units() {
				panic(fmt.Sprintf("nn: %q mask length %d, want %d", t.Name(), len(pruned), t.Units()))
			}
			relu := false
			if i+1 < len(layers) {
				_, relu = layers[i+1].(*ReLU)
			}
			if !minor && minorFrom(t, n) {
				out = floatScratch.get(len(src))
				transpose(*out, src, n, len(src)/n)
				next(out)
				minor = true
			}
			out = floatScratch.get(n * t.outLen())
			if minor {
				t.forwardMinor(src, *out, n, pruned, relu)
			} else {
				t.forward(src, *out, n, pruned, relu)
			}
			if relu {
				i++
				if observe != nil {
					observed(unit, *out, n, minor, t.OutShape(), observe)
				}
			}
		case *MaxPool2D:
			g := t.geom()
			inSz, outSz := g.inSize(), g.outSize()
			out = floatScratch.get(n * outSz)
			if minor {
				g.poolMinor(src, *out, n)
				break
			}
			for s := 0; s < n; s++ {
				g.poolForward(src[s*inSz:(s+1)*inSz], (*out)[s*outSz:(s+1)*outSz], g.outW, g.outH*g.outW)
			}
		case *ReLU:
			if held != nil {
				reluForward(src, src)
				continue
			}
			out = floatScratch.get(len(src))
			reluForward(*out, src)
		case *Flatten:
			continue // the identity on a contiguous slab, sample-minor too
		default:
			panic(fmt.Sprintf("nn: layer %s does not support stateless inference", t.Name()))
		}
		next(out)
	}
	shape := x.Shape()[1:]
	if len(layers) > 0 {
		shape = layers[len(layers)-1].OutShape()
	}
	res := tensor.New(append([]int{n}, shape...)...)
	if minor {
		transpose(res.Data(), src, len(src)/n, n)
	} else {
		copy(res.Data(), src)
	}
	if held != nil {
		floatScratch.Put(held)
	}
	return res
}

// observed hands observe the post-ReLU batch post of stage (one sample's
// shape), transposed into pooled scratch first when it is sample-minor.
func observed(stage int, post []float64, n int, minor bool, shape []int, observe func(stage int, post *tensor.Tensor)) {
	if minor {
		tr := floatScratch.get(len(post))
		defer floatScratch.Put(tr)
		transpose(*tr, post, len(post)/n, n)
		post = *tr
	}
	observe(stage, tensor.MustFromSlice(post, append([]int{n}, shape...)...))
}
