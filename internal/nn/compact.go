package nn

import (
	"fmt"
	"slices"
)

// CompactMasked returns a physically smaller copy of net in which every
// unit masks prunes has been removed: a pruned conv channel drops its
// filters and bias plus the matching input slices of the next layer; a
// pruned dense neuron drops its weight row, bias, and the matching
// columns downstream. masks has the unit-layer indexing Network.Infer
// takes; nil masks or absent indices leave a stage unpruned. A mask keyed
// at a stage net does not have is an error, and so is one that prunes a
// unit of the output stage: a model with fewer logits than classes cannot
// classify. The returned network computes exactly net.Infer(x, masks)
// (verified by the test suite) and its ParamCount is the paper's "number
// of unique parameters" model-size metric. It fails if pruning would
// empty a layer entirely.
//
// CompactMasked never reads or writes any mutable field of net — only
// the weights — so it is safe to run concurrently with Infer calls, the
// same contract as Infer itself. It must not run concurrently with
// training (weight mutation).
func CompactMasked(net *Network, masks map[int][]bool) (*Network, error) {
	if err := checkStages(net, masks); err != nil {
		return nil, fmt.Errorf("nn: compact: %w", err)
	}
	return compactLayers(net.Layers, net.InShape, 0, masks)
}

// checkStages refuses masks keyed at a stage outside net's [0, units) —
// unread, such a mask would yield an unpruned copy and no error — and a
// mask that prunes a unit of the output stage, which CAP'NN never prunes.
func checkStages(net *Network, masks map[int][]bool) error {
	units := len(net.Stages())
	for s := range masks {
		if s < 0 || s >= units {
			return fmt.Errorf("mask for stage %d, but the network has stages 0 to %d", s, units-1)
		}
	}
	if slices.Contains(masks[units-1], true) {
		return fmt.Errorf("mask prunes a unit of the output stage %d, which is never pruned", units-1)
	}
	return nil
}

// compactLayers is CompactMasked of the network layers, whose input has
// shape inShape and whose first unit layer is stage first.
func compactLayers(layers []Layer, inShape []int, first int, masks map[int][]bool) (*Network, error) {
	out := &Network{InShape: append([]int(nil), inShape...)}
	// keep[i] reports whether feature i of the current inter-layer
	// signal survives. It starts as all-true over the input channels.
	keep := allTrue(inShape[0])
	cur := append([]int(nil), inShape...)
	unit := first - 1

	for _, l := range layers {
		switch t := l.(type) {
		case *Conv2D:
			unit++
			mask := masks[unit]
			if mask != nil && len(mask) != t.outC {
				return nil, fmt.Errorf("nn: compact conv %q mask length %d, want %d", t.name, len(mask), t.outC)
			}
			outKeep := notPruned(mask, t.outC)
			newIn, newOut := count(keep), count(outKeep)
			if newOut == 0 {
				return nil, fmt.Errorf("nn: compact would remove every channel of %q", t.name)
			}
			nc, err := NewConv2DUninit(t.name, []int{newIn, cur[1], cur[2]}, newOut)
			if err != nil {
				return nil, err
			}
			copyConvWeights(nc, t, keep, outKeep)
			out.Layers = append(out.Layers, nc)
			keep = outKeep
			cur = nc.OutShape()

		case *Dense:
			unit++
			mask := masks[unit]
			if mask != nil && len(mask) != t.out {
				return nil, fmt.Errorf("nn: compact dense %q mask length %d, want %d", t.name, len(mask), t.out)
			}
			outKeep := notPruned(mask, t.out)
			newIn, newOut := count(keep), count(outKeep)
			if newOut == 0 {
				return nil, fmt.Errorf("nn: compact would remove every neuron of %q", t.name)
			}
			nd, err := NewDenseUninit(t.name, []int{newIn}, newOut)
			if err != nil {
				return nil, err
			}
			copyDenseWeights(nd, t, keep, outKeep)
			out.Layers = append(out.Layers, nd)
			keep = outKeep
			cur = nd.OutShape()

		case *ReLU:
			nr := NewReLU(t.name, compactShape(cur, keep))
			out.Layers = append(out.Layers, nr)

		case *MaxPool2D:
			np, err := NewMaxPool2D(t.name, compactShape(cur, keep))
			if err != nil {
				return nil, err
			}
			out.Layers = append(out.Layers, np)
			cur = []int{cur[0], np.outH, np.outW}

		case *Flatten:
			// Expand the per-channel keep mask into a per-feature mask.
			h, w := cur[1], cur[2]
			feat := make([]bool, 0, len(keep)*h*w)
			for _, k := range keep {
				for i := 0; i < h*w; i++ {
					feat = append(feat, k)
				}
			}
			nf := NewFlatten(t.name, compactShape(cur, keep))
			out.Layers = append(out.Layers, nf)
			keep = feat
			cur = nf.OutShape()

		default:
			return nil, fmt.Errorf("nn: compact does not support layer type %T", l)
		}
	}
	return out, nil
}

// compactShape shrinks the leading (channel/feature) dimension of a
// per-sample shape to the surviving count.
func compactShape(cur []int, keep []bool) []int {
	s := append([]int(nil), cur...)
	s[0] = count(keep)
	return s
}

// copyConvWeights copies the kept filters' kept 3×3 input planes, one
// contiguous run each, between the [outC, inC, 3, 3] weight slices.
func copyConvWeights(dst, src *Conv2D, inKeep, outKeep []bool) {
	const kk = convK * convK
	sw, dw := src.w.W.Data(), dst.w.W.Data()
	sb, db := src.b.W.Data(), dst.b.W.Data()
	do, d := 0, 0
	for oc := 0; oc < src.outC; oc++ {
		if !outKeep[oc] {
			continue
		}
		db[do] = sb[oc]
		do++
		for ic := 0; ic < src.inC; ic++ {
			if inKeep[ic] {
				s := (oc*src.inC + ic) * kk
				d += copy(dw[d:], sw[s:s+kk])
			}
		}
	}
}

// copyDenseWeights copies the kept rows' kept columns between the
// [out, in] weight slices.
func copyDenseWeights(dst, src *Dense, inKeep, outKeep []bool) {
	sw, dw := src.w.W.Data(), dst.w.W.Data()
	sb, db := src.b.W.Data(), dst.b.W.Data()
	do, d := 0, 0
	for o := 0; o < src.out; o++ {
		if !outKeep[o] {
			continue
		}
		db[do] = sb[o]
		do++
		for i, w := range sw[o*src.in : (o+1)*src.in] {
			if inKeep[i] {
				dw[d] = w
				d++
			}
		}
	}
}

func allTrue(n int) []bool {
	m := make([]bool, n)
	for i := range m {
		m[i] = true
	}
	return m
}

func notPruned(pruned []bool, n int) []bool {
	m := allTrue(n)
	if pruned != nil {
		for i, p := range pruned {
			m[i] = !p
		}
	}
	return m
}

func count(m []bool) int {
	c := 0
	for _, v := range m {
		if v {
			c++
		}
	}
	return c
}

// RelativeSize returns pruned.ParamCount / orig.ParamCount, the paper's
// relative-model-size metric (Fig. 4, Fig. 6, Table II).
func RelativeSize(orig, pruned *Network) float64 {
	return float64(pruned.ParamCount()) / float64(orig.ParamCount())
}
