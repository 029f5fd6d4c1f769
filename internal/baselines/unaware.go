// Package baselines implements the comparison points of the paper's
// evaluation: two class-unaware structured-pruning schemes in the spirit
// of He et al. [5] (channel pruning by filter importance) and ThiNet [9]
// (next-layer reconstruction-driven greedy channel selection), plus the
// class-adaptive CAPTOR rule [11] used in Table III. The class-unaware
// baselines produce the "already-pruned, retrained models" onto which
// Table II stacks CAP'NN-M.
package baselines

import (
	"fmt"
	"math"
	"sort"

	"capnn/internal/data"
	"capnn/internal/nn"
	"capnn/internal/tensor"
)

// Criterion selects how class-unaware pruning ranks units.
type Criterion int

const (
	// ByWeightNorm ranks units by the L2 norm of their incoming weights
	// (filters for conv channels, rows for dense neurons) — the
	// magnitude-based proxy for He et al.'s channel pruning [5].
	ByWeightNorm Criterion = iota
	// ByThiNet ranks units by their contribution to the next layer:
	// E[a²]·‖W_next[:,unit]‖², the greedy reconstruction criterion of
	// ThiNet [9] in its one-shot form.
	ByThiNet
)

func (c Criterion) String() string {
	switch c {
	case ByWeightNorm:
		return "weight-norm"
	case ByThiNet:
		return "thinet"
	default:
		return fmt.Sprintf("criterion(%d)", int(c))
	}
}

// PruneUnaware prunes the lowest-scoring fraction of units in each given
// stage and returns the masks. sampleSet is required for ByThiNet (activation statistics). fraction is
// the per-stage fraction of units to remove, in [0,1); at least one unit
// always survives.
func PruneUnaware(net *nn.Network, stages []int, fraction float64, crit Criterion, sampleSet *data.Dataset) (map[int][]bool, error) {
	if fraction < 0 || fraction >= 1 {
		return nil, fmt.Errorf("baselines: fraction %v outside [0,1)", fraction)
	}
	all := net.Stages()
	var moments map[int][]float64
	if crit == ByThiNet {
		if sampleSet == nil {
			return nil, fmt.Errorf("baselines: ThiNet criterion needs a sample set")
		}
		var err error
		moments, err = secondMoments(net, sampleSet, stages)
		if err != nil {
			return nil, err
		}
	}
	masks := map[int][]bool{}
	for _, si := range stages {
		if si < 0 || si >= len(all) {
			return nil, fmt.Errorf("baselines: stage %d outside [0,%d)", si, len(all))
		}
		unit := all[si].Unit
		units := unit.Units()
		scores := make([]float64, units)
		switch crit {
		case ByWeightNorm:
			if err := weightNormScores(unit, scores); err != nil {
				return nil, err
			}
		case ByThiNet:
			next, err := nextUnitLayer(all, si)
			if err != nil {
				return nil, err
			}
			norms, err := outgoingNorms(net, si, next)
			if err != nil {
				return nil, err
			}
			for n := 0; n < units; n++ {
				scores[n] = moments[si][n] * norms[n]
			}
		default:
			return nil, fmt.Errorf("baselines: unknown criterion %v", crit)
		}
		k := int(float64(units) * fraction)
		if k >= units {
			k = units - 1
		}
		masks[si] = pruneLowest(scores, k)
	}
	return masks, nil
}

// pruneLowest returns a mask with the k lowest-scoring units pruned
// (ties toward lower index).
func pruneLowest(scores []float64, k int) []bool {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	mask := make([]bool, len(scores))
	for i := 0; i < k; i++ {
		mask[idx[i]] = true
	}
	return mask
}

func weightNormScores(unit nn.UnitLayer, scores []float64) error {
	switch t := unit.(type) {
	case *nn.Conv2D:
		w := t.Weights()
		per := w.Len() / t.Units()
		d := w.Data()
		for n := range scores {
			s := 0.0
			for _, v := range d[n*per : (n+1)*per] {
				s += v * v
			}
			scores[n] = math.Sqrt(s)
		}
	case *nn.Dense:
		w := t.Weights()
		in := w.Dim(1)
		d := w.Data()
		for n := range scores {
			s := 0.0
			for _, v := range d[n*in : (n+1)*in] {
				s += v * v
			}
			scores[n] = math.Sqrt(s)
		}
	default:
		return fmt.Errorf("baselines: cannot score unit layer %T", unit)
	}
	return nil
}

// nextUnitLayer returns the stage index of the unit layer consuming
// stage si's output.
func nextUnitLayer(stages []nn.Stage, si int) (int, error) {
	if si+1 >= len(stages) {
		return 0, fmt.Errorf("baselines: stage %d has no downstream layer", si)
	}
	return si + 1, nil
}

// outgoingNorms computes, per unit of stage si, the squared L2 norm of
// the downstream weights that consume it. For conv→conv the filter slices
// of the input channel; for flatten boundaries the matching dense
// columns.
func outgoingNorms(net *nn.Network, si, next int) ([]float64, error) {
	stages := net.Stages()
	cur := stages[si].Unit
	nxt := stages[next].Unit
	units := cur.Units()
	norms := make([]float64, units)
	switch t := nxt.(type) {
	case *nn.Conv2D:
		w := t.Weights() // [outC, inC, k, k]
		if w.Dim(1) != units {
			return nil, fmt.Errorf("baselines: stage %d has %d units but next conv consumes %d channels", si, units, w.Dim(1))
		}
		outC, k := w.Dim(0), w.Dim(2)
		for oc := 0; oc < outC; oc++ {
			for ic := 0; ic < units; ic++ {
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						v := w.At(oc, ic, ky, kx)
						norms[ic] += v * v
					}
				}
			}
		}
	case *nn.Dense:
		w := t.Weights() // [out, in]
		in := w.Dim(1)
		if in%units != 0 {
			return nil, fmt.Errorf("baselines: dense input %d not a multiple of %d upstream units", in, units)
		}
		per := in / units // H*W of the flattened map (1 for dense→dense)
		for o := 0; o < w.Dim(0); o++ {
			for i := 0; i < in; i++ {
				v := w.At(o, i)
				norms[i/per] += v * v
			}
		}
	default:
		return nil, fmt.Errorf("baselines: unsupported downstream layer %T", nxt)
	}
	return norms, nil
}

// secondMoments profiles E[a²] per unit over the sample set for the
// given stages (post-ReLU).
func secondMoments(net *nn.Network, ds *data.Dataset, stageIdx []int) (map[int][]float64, error) {
	stages := net.Stages()
	out := map[int][]float64{}
	counts := map[int]int{}
	observe := map[int]func(post *tensor.Tensor){}
	for _, si := range stageIdx {
		if si < 0 || si >= len(stages) {
			return nil, fmt.Errorf("baselines: stage %d outside [0,%d)", si, len(stages))
		}
		st := stages[si]
		if st.Act == nil {
			return nil, fmt.Errorf("baselines: stage %d has no ReLU", si)
		}
		units := st.Unit.Units()
		sums := make([]float64, units)
		out[si] = sums
		outShape := st.Unit.OutShape()
		unitSize := 1
		if len(outShape) == 3 {
			unitSize = outShape[1] * outShape[2]
		}
		observe[si] = func(t *tensor.Tensor) {
			d := t.Data()
			n := t.Dim(0)
			for s := 0; s < n; s++ {
				base := s * units * unitSize
				for u := 0; u < units; u++ {
					acc := 0.0
					for _, v := range d[base+u*unitSize : base+(u+1)*unitSize] {
						acc += v * v
					}
					sums[u] += acc / float64(unitSize)
				}
			}
			counts[si] += n
		}
	}
	const batch = 32
	for start := 0; start < ds.Len(); start += batch {
		end := start + batch
		if end > ds.Len() {
			end = ds.Len()
		}
		idx := make([]int, end-start)
		for i := range idx {
			idx[i] = start + i
		}
		x, _ := ds.Batch(idx)
		net.InferObserved(x, func(stage int, post *tensor.Tensor) {
			if f := observe[stage]; f != nil {
				f(post)
			}
		})
	}
	for si, sums := range out {
		if counts[si] > 0 {
			for i := range sums {
				sums[i] /= float64(counts[si])
			}
		}
	}
	return out, nil
}
