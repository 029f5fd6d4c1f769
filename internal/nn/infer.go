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
// argmax buffers, no recording hooks — and takes the prune masks as an
// explicit argument; no layer stores one. Concurrent Infer calls are
// therefore safe, including beside personalization (System.Prune),
// which goes through this same walk and writes nothing either. The
// single forbidden overlap is weight mutation: do not train while
// serving.
//
// The arithmetic itself lives in kernels.go — the same direct conv and
// dense kernels Forward uses — so the serving path and the
// training path execute one implementation and stay bit-identical.

// statelessInfer is implemented by layers whose inference pass has no
// side effects and no prunable units.
type statelessInfer interface {
	infer(x *tensor.Tensor) *tensor.Tensor
}

// maskedInfer is implemented by unit layers: inference with the prune
// mask supplied by the caller (nil = nothing pruned).
type maskedInfer interface {
	inferMasked(x *tensor.Tensor, pruned []bool) *tensor.Tensor
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
// index and the post-ReLU batch output. The observer must not retain or
// mutate the tensor. A nil observe makes this identical to Infer.
//
// This is the stateless primitive behind parallel firing-rate profiling:
// unlike the ReLU.Hook field it writes no layer state, so any number of
// goroutines can profile disjoint shards of a dataset through one
// network concurrently.
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

// inferLayers is the one stateless layer walk. observe, when set, sees
// the output of each ReLU that directly follows a unit layer.
func inferLayers(layers []Layer, firstStage int, masks map[int][]bool, x *tensor.Tensor, observe func(stage int, post *tensor.Tensor)) *tensor.Tensor {
	unit := firstStage - 1
	for i, l := range layers {
		switch t := l.(type) {
		case maskedInfer:
			unit++
			x = t.inferMasked(x, masks[unit])
		case statelessInfer:
			x = t.infer(x)
			if _, isReLU := l.(*ReLU); isReLU && observe != nil && i > 0 {
				if _, paired := layers[i-1].(maskedInfer); paired {
					observe(unit, x)
				}
			}
		default:
			panic(fmt.Sprintf("nn: layer %s does not support stateless inference", l.Name()))
		}
	}
	return x
}

// inferMasked computes the convolution with an explicit channel mask via
// the shared direct-convolution kernel, touching no layer state.
func (c *Conv2D) inferMasked(x *tensor.Tensor, pruned []bool) *tensor.Tensor {
	if pruned != nil && len(pruned) != c.outC {
		panic(fmt.Sprintf("nn: conv %q mask length %d, want %d", c.name, len(pruned), c.outC))
	}
	n := x.Dim(0)
	out := tensor.New(n, c.outC, c.outH, c.outW)
	xd, od := x.Data(), out.Data()
	wd, bd := c.w.W.Data(), c.b.W.Data()

	g := c.geom()
	inSz, outSz := g.inSize(), g.outSize()
	pad, ib := floatScratch.get(g.padSize()), intScratch.get(g.inC*g.k*g.k)
	offs := g.tapOffsets((*ib)[:0])
	for s := 0; s < n; s++ {
		g.convForward(xd[s*inSz:(s+1)*inSz], *pad, offs, wd, bd, od[s*outSz:(s+1)*outSz], pruned, false)
	}
	floatScratch.Put(pad)
	intScratch.Put(ib)
	return out
}

// inferMasked computes the affine map with an explicit neuron mask,
// without caching the input.
func (d *Dense) inferMasked(x *tensor.Tensor, pruned []bool) *tensor.Tensor {
	if pruned != nil && len(pruned) != d.out {
		panic(fmt.Sprintf("nn: dense %q mask length %d, want %d", d.name, len(pruned), d.out))
	}
	n := x.Dim(0)
	out := tensor.New(n, d.out)
	denseForward(x.Data(), d.w.W.Data(), d.b.W.Data(), out.Data(), n, d.in, d.out, pruned)
	return out
}

// infer clamps negatives to zero without recording the output or firing
// the profiling hook.
func (r *ReLU) infer(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.Shape()...)
	reluForward(out.Data(), x.Data())
	return out
}

// infer computes max pooling without recording argmax locations.
func (p *MaxPool2D) infer(x *tensor.Tensor) *tensor.Tensor {
	n := x.Dim(0)
	out := tensor.New(n, p.c, p.outH, p.outW)
	g := p.geom()
	inSz, outSz := g.inSize(), g.outSize()
	xd, od := x.Data(), out.Data()
	for s := 0; s < n; s++ {
		g.poolForward(xd[s*inSz:(s+1)*inSz], od[s*outSz:(s+1)*outSz], g.outW, g.outH*g.outW)
	}
	return out
}

// infer reshapes without touching state (Flatten is stateless anyway).
func (f *Flatten) infer(x *tensor.Tensor) *tensor.Tensor {
	return x.MustReshape(x.Dim(0), f.out)
}

// infer is the identity: dropout is inactive at inference and, unlike
// Forward, does not clear the cached training mask.
func (d *Dropout) infer(x *tensor.Tensor) *tensor.Tensor { return x }
