package baselines

import (
	"fmt"
	"math/rand"

	"capnn/internal/data"
	"capnn/internal/nn"
	"capnn/internal/tensor"
)

// ThiNetGreedy implements the actual greedy selection of ThiNet [9],
// which PruneUnaware's ByThiNet approximates in one shot; Table II runs
// the one-shot form, so the greedy one is test code: channels
// of stage si are removed one at a time, each time picking the channel
// whose removal least perturbs the *next* layer's pre-activation outputs,
// measured over randomly sampled output locations of sampleSet.
//
// It returns the prune mask for stage si. fraction ∈ [0,1) of channels
// are removed; at least one channel survives.
func ThiNetGreedy(net *nn.Network, si int, fraction float64, sampleSet *data.Dataset, locations int, seed int64) ([]bool, error) {
	if fraction < 0 || fraction >= 1 {
		return nil, fmt.Errorf("baselines: fraction %v outside [0,1)", fraction)
	}
	if locations < 1 {
		return nil, fmt.Errorf("baselines: need ≥1 sampled locations")
	}
	stages := net.Stages()
	if si < 0 || si+1 >= len(stages) {
		return nil, fmt.Errorf("baselines: stage %d has no downstream layer", si)
	}
	units := stages[si].Unit.Units()

	// Forward a few samples up to the *input* of the next unit layer —
	// after any pool/flatten between the two stages — since that is the
	// signal whose reconstruction ThiNet preserves. Channel identity is
	// preserved through pooling, and across a flatten each unit owns a
	// contiguous block of features.
	nextIdx := -1
	unitSeen := 0
	for i, l := range net.Layers {
		if _, ok := l.(nn.UnitLayer); ok {
			if unitSeen == si+1 {
				nextIdx = i
				break
			}
			unitSeen++
		}
	}
	if nextIdx < 0 {
		return nil, fmt.Errorf("baselines: cannot locate stage %d", si+1)
	}
	n := sampleSet.Len()
	if n > 16 {
		n = 16
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	act, _ := sampleSet.Batch(idx)
	for _, l := range net.Layers[:nextIdx] {
		act = l.Forward(act)
	}

	// Build per-location contribution vectors v_j ∈ R^units: the next
	// layer's pre-activation at a sampled output location decomposes as
	// Σ_c v_j[c] over input channels (plus bias, which removal keeps).
	rng := rand.New(rand.NewSource(seed))
	contrib, err := contributions(stages[si+1].Unit, act, units, rng, locations)
	if err != nil {
		return nil, err
	}

	// Greedy: S starts empty; repeatedly remove the channel whose
	// addition to S minimizes Σ_j (Σ_{c∈S} v_j[c])² — the squared error
	// ThiNet's objective assigns to dropping S.
	k := int(float64(units) * fraction)
	if k >= units {
		k = units - 1
	}
	mask := make([]bool, units)
	curSum := make([]float64, len(contrib)) // Σ_{c∈S} v_j[c] per location
	for picked := 0; picked < k; picked++ {
		bestC, bestErr := -1, 0.0
		for c := 0; c < units; c++ {
			if mask[c] {
				continue
			}
			e := 0.0
			for j := range contrib {
				s := curSum[j] + contrib[j][c]
				e += s * s
			}
			if bestC < 0 || e < bestErr {
				bestC, bestErr = c, e
			}
		}
		mask[bestC] = true
		for j := range contrib {
			curSum[j] += contrib[j][bestC]
		}
	}
	return mask, nil
}

// contributions samples output locations of the next layer and returns
// the per-input-channel contribution vectors.
func contributions(next nn.UnitLayer, act *tensor.Tensor, units int, rng *rand.Rand, locations int) ([][]float64, error) {
	switch t := next.(type) {
	case *nn.Conv2D:
		return convContributions(t, act, rng, locations)
	case *nn.Dense:
		return denseContributions(t, act, units, rng, locations)
	default:
		return nil, fmt.Errorf("baselines: unsupported downstream layer %T", next)
	}
}

func convContributions(next *nn.Conv2D, act *tensor.Tensor, rng *rand.Rand, locations int) ([][]float64, error) {
	if act.Dims() != 4 {
		return nil, fmt.Errorf("baselines: conv downstream needs NCHW activations, got %v", act.Shape())
	}
	n, c, h, w := act.Dim(0), act.Dim(1), act.Dim(2), act.Dim(3)
	wt := next.Weights() // [outC, inC=c, k, k]
	if wt.Dim(1) != c {
		return nil, fmt.Errorf("baselines: next conv consumes %d channels, stage has %d", wt.Dim(1), c)
	}
	outC, k := wt.Dim(0), wt.Dim(2)
	// Every conv here comes from nn.Builder.Conv: stride 1, padded to
	// keep the plane.
	const stride = 1
	pad := (k - 1) / 2
	outH := (h+2*pad-k)/stride + 1
	outW := (w+2*pad-k)/stride + 1
	if s := next.OutShape(); s[1] != outH || s[2] != outW {
		return nil, fmt.Errorf("baselines: next conv maps a %dx%d plane to %v, not a same-padded stride-1 conv", h, w, s)
	}
	out := make([][]float64, 0, locations)
	for j := 0; j < locations; j++ {
		s := rng.Intn(n)
		oc := rng.Intn(outC)
		oy := rng.Intn(outH)
		ox := rng.Intn(outW)
		v := make([]float64, c)
		for ic := 0; ic < c; ic++ {
			sum := 0.0
			for ky := 0; ky < k; ky++ {
				iy := oy*stride - pad + ky
				if iy < 0 || iy >= h {
					continue
				}
				for kx := 0; kx < k; kx++ {
					ix := ox*stride - pad + kx
					if ix < 0 || ix >= w {
						continue
					}
					sum += wt.At(oc, ic, ky, kx) * act.At(s, ic, iy, ix)
				}
			}
			v[ic] = sum
		}
		out = append(out, v)
	}
	return out, nil
}

func denseContributions(next *nn.Dense, act *tensor.Tensor, units int, rng *rand.Rand, locations int) ([][]float64, error) {
	wt := next.Weights() // [out, in]
	in := wt.Dim(1)
	// The dense layer's input is flat [n, in]; each upstream unit owns a
	// contiguous block of in/units features (1 for dense→dense).
	if act.Dims() != 2 || act.Dim(1) != in || in%units != 0 {
		return nil, fmt.Errorf("baselines: dense consumes %d inputs (shape %v), stage has %d units", in, act.Shape(), units)
	}
	per := in / units
	n := act.Dim(0)
	outN := wt.Dim(0)
	data := act.Data()
	out := make([][]float64, 0, locations)
	for j := 0; j < locations; j++ {
		s := rng.Intn(n)
		o := rng.Intn(outN)
		v := make([]float64, units)
		base := s * units * per
		for u := 0; u < units; u++ {
			sum := 0.0
			for p := 0; p < per; p++ {
				sum += wt.At(o, u*per+p) * data[base+u*per+p]
			}
			v[u] = sum
		}
		out = append(out, v)
	}
	return out, nil
}
