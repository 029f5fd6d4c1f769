package nn

import (
	"fmt"

	"capnn/internal/tensor"
)

// Data-parallel training runs Forward/Backward on several shards of a
// mini-batch at once. Forward/Backward are stateful — layers cache
// activations and accumulate gradients — so shards cannot share one
// Network. A Replica is the resolution: a structural copy whose layers
// SHARE the original's weight tensors (Param.W) but own fresh gradient
// buffers (Param.G) and fresh activation caches. Each worker drives its
// own replica; the trainer reduces the replicas' gradients in shard
// order into the original network and steps the optimizer there, so
// every replica observes the updated weights immediately.

// replicable is implemented by every layer that can produce a
// weight-sharing training copy of itself.
type replicable interface {
	replica() Layer
}

// Replica returns a training copy of the network: shared weights, fresh
// gradients, fresh activation caches, no profiling hooks.
func (n *Network) Replica() *Network {
	layers := make([]Layer, len(n.Layers))
	for i, l := range n.Layers {
		r, ok := l.(replicable)
		if !ok {
			panic(fmt.Sprintf("nn: layer %s does not support replication", l.Name()))
		}
		layers[i] = r.replica()
	}
	return &Network{InShape: append([]int(nil), n.InShape...), Layers: layers}
}

// shareParam builds a Param aliasing p's weights with a zeroed gradient
// buffer of the same shape.
func shareParam(p *Param) *Param {
	return &Param{Name: p.Name, W: p.W, G: tensor.New(p.W.Shape()...)}
}

func (c *Conv2D) replica() Layer {
	r := &Conv2D{name: c.name, inC: c.inC, inH: c.inH, inW: c.inW, outC: c.outC}
	r.w, r.b = shareParam(c.w), shareParam(c.b)
	return r
}

func (d *Dense) replica() Layer {
	r := &Dense{name: d.name, in: d.in, out: d.out}
	r.w, r.b = shareParam(d.w), shareParam(d.b)
	return r
}

func (r *ReLU) replica() Layer {
	return &ReLU{name: r.name, shape: append([]int(nil), r.shape...)}
}

func (p *MaxPool2D) replica() Layer {
	return &MaxPool2D{name: p.name, c: p.c, inH: p.inH, inW: p.inW, outH: p.outH, outW: p.outW}
}

func (f *Flatten) replica() Layer {
	return &Flatten{name: f.name, inShape: append([]int(nil), f.inShape...), out: f.out}
}
