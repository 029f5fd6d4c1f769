package nn

import (
	"fmt"
	"hash/fnv"
)

// CompactMasked returns a physically smaller copy of net in which every
// unit masks prunes has been removed: a pruned conv channel drops its
// filters and bias plus the matching input slices of the next layer; a
// pruned dense neuron drops its weight row, bias, and the matching
// columns downstream. masks has the unit-layer indexing Network.Infer
// takes; nil masks or absent indices leave a stage unpruned. The returned
// network computes exactly net.Infer(x, masks) (verified by the test
// suite) and its ParamCount is the paper's "number of unique parameters"
// model-size metric. It fails if pruning would empty a layer entirely.
//
// CompactMasked never reads or writes any mutable field of net — only
// the weights — so it is safe to run concurrently with Infer calls, the
// same contract as Infer itself. It must not run concurrently with
// training (weight mutation).
func CompactMasked(net *Network, masks map[int][]bool) (*Network, error) {
	cnet, _, err := compactMaskedKeep(net, masks)
	return cnet, err
}

// compactMaskedKeep is CompactMasked plus the final keep mask: one bool
// per feature of the ORIGINAL network's flattened output, true where the
// compacted output carries that feature and false where the masked
// original would emit a (exactly +0.0) pruned output. Compile uses it to
// scatter compacted outputs back to full width.
func compactMaskedKeep(net *Network, masks map[int][]bool) (*Network, []bool, error) {
	out := &Network{InShape: append([]int(nil), net.InShape...)}
	// keep[i] reports whether feature i of the current inter-layer
	// signal survives. It starts as all-true over the input channels.
	keep := allTrue(net.InShape[0])
	cur := append([]int(nil), net.InShape...)
	unit := -1

	for _, l := range net.Layers {
		switch t := l.(type) {
		case *Conv2D:
			unit++
			mask := masks[unit]
			if mask != nil && len(mask) != t.outC {
				return nil, nil, fmt.Errorf("nn: compact conv %q mask length %d, want %d", t.name, len(mask), t.outC)
			}
			outKeep := notPruned(mask, t.outC)
			newIn, newOut := count(keep), count(outKeep)
			if newOut == 0 {
				return nil, nil, fmt.Errorf("nn: compact would remove every channel of %q", t.name)
			}
			nc, err := NewConv2DUninit(t.name, []int{newIn, cur[1], cur[2]}, newOut, t.k, t.stride, t.pad)
			if err != nil {
				return nil, nil, err
			}
			copyConvWeights(nc, t, keep, outKeep)
			out.Layers = append(out.Layers, nc)
			keep = outKeep
			cur = nc.OutShape()

		case *Dense:
			unit++
			mask := masks[unit]
			if mask != nil && len(mask) != t.out {
				return nil, nil, fmt.Errorf("nn: compact dense %q mask length %d, want %d", t.name, len(mask), t.out)
			}
			outKeep := notPruned(mask, t.out)
			newIn, newOut := count(keep), count(outKeep)
			if newOut == 0 {
				return nil, nil, fmt.Errorf("nn: compact would remove every neuron of %q", t.name)
			}
			nd, err := NewDenseUninit(t.name, []int{newIn}, newOut)
			if err != nil {
				return nil, nil, err
			}
			copyDenseWeights(nd, t, keep, outKeep)
			out.Layers = append(out.Layers, nd)
			keep = outKeep
			cur = nd.OutShape()

		case *ReLU:
			nr := NewReLU(t.name, compactShape(cur, keep))
			out.Layers = append(out.Layers, nr)

		case *MaxPool2D:
			np, err := NewMaxPool2D(t.name, compactShape(cur, keep), t.k, t.stride)
			if err != nil {
				return nil, nil, err
			}
			out.Layers = append(out.Layers, np)
			cur = []int{cur[0], np.outH, np.outW}

		case *Dropout:
			// Dropout is identity at inference; the seed only shapes
			// training noise, which a compacted copy never runs. A
			// name-derived seed keeps construction deterministic without
			// mutating the source layer's rng (serialization does not
			// preserve dropout seeds either).
			nd, err := NewDropout(t.name, compactShape(cur, keep), t.p, nameSeed(t.name))
			if err != nil {
				return nil, nil, err
			}
			out.Layers = append(out.Layers, nd)

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
			return nil, nil, fmt.Errorf("nn: compact does not support layer type %T", l)
		}
	}
	// Expand the final keep mask to per-feature granularity of the
	// original output: channel-level masks repeat over the spatial plane.
	keepOut := keep
	if len(cur) == 3 {
		hw := cur[1] * cur[2]
		keepOut = make([]bool, 0, len(keep)*hw)
		for _, k := range keep {
			for i := 0; i < hw; i++ {
				keepOut = append(keepOut, k)
			}
		}
	}
	return out, keepOut, nil
}

// nameSeed derives a stable dropout seed from a layer name.
func nameSeed(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64())
}

// compactShape shrinks the leading (channel/feature) dimension of a
// per-sample shape to the surviving count.
func compactShape(cur []int, keep []bool) []int {
	s := append([]int(nil), cur...)
	s[0] = count(keep)
	return s
}

func copyConvWeights(dst, src *Conv2D, inKeep, outKeep []bool) {
	sw, dw := src.w.W, dst.w.W
	sb, db := src.b.W.Data(), dst.b.W.Data()
	do := 0
	for oc := 0; oc < src.outC; oc++ {
		if !outKeep[oc] {
			continue
		}
		db[do] = sb[oc]
		di := 0
		for ic := 0; ic < src.inC; ic++ {
			if !inKeep[ic] {
				continue
			}
			for ky := 0; ky < src.k; ky++ {
				for kx := 0; kx < src.k; kx++ {
					dw.Set(sw.At(oc, ic, ky, kx), do, di, ky, kx)
				}
			}
			di++
		}
		do++
	}
}

func copyDenseWeights(dst, src *Dense, inKeep, outKeep []bool) {
	sw, dw := src.w.W, dst.w.W
	sb, db := src.b.W.Data(), dst.b.W.Data()
	do := 0
	for o := 0; o < src.out; o++ {
		if !outKeep[o] {
			continue
		}
		db[do] = sb[o]
		di := 0
		for i := 0; i < src.in; i++ {
			if !inKeep[i] {
				continue
			}
			dw.Set(sw.At(o, i), do, di)
			di++
		}
		do++
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
