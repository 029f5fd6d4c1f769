// Package firing computes the class-specific firing rates at the heart of
// CAP'NN (paper §II–III): for every prunable unit (dense neuron or conv
// channel) and every output class, the fraction of that class's profiling
// inputs for which the unit fires (post-ReLU activation > 0). For conv
// channels the rate is the mean non-zero fraction over the feature map,
// i.e. 1 − APoZ of Hu et al. [6]. The package also provides the 3-bit
// linear quantization and memory-overhead accounting of paper §V-C.
package firing

import (
	"fmt"

	"capnn/internal/data"
	"capnn/internal/nn"
	"capnn/internal/parallel"
	"capnn/internal/tensor"
)

// LayerRates holds the firing-rate matrix F_ℓ of one unit layer:
// Units × Classes, row-major.
type LayerRates struct {
	// Stage is the unit-layer index within Network.Stages().
	Stage int
	// Units is the number of prunable units in the layer.
	Units int
	// Classes is the number of output classes.
	Classes int
	// F holds Units×Classes rates in [0,1], row-major by unit.
	F []float64
}

// At returns F(n, c).
func (lr *LayerRates) At(n, c int) float64 { return lr.F[n*lr.Classes+c] }

// Set stores F(n, c) = v.
func (lr *LayerRates) Set(n, c int, v float64) { lr.F[n*lr.Classes+c] = v }

// Clone deep-copies the matrix.
func (lr *LayerRates) Clone() *LayerRates {
	c := *lr
	c.F = append([]float64(nil), lr.F...)
	return &c
}

// Rates is the collection of firing-rate matrices for a network's
// profiled stages, stored in the cloud alongside the model (paper §II).
type Rates struct {
	Classes int
	// Layers maps stage index → matrix for every profiled stage.
	Layers map[int]*LayerRates
}

// Clone deep-copies all matrices (CAP'NN-M mutates a copy).
func (r *Rates) Clone() *Rates {
	c := &Rates{Classes: r.Classes, Layers: make(map[int]*LayerRates, len(r.Layers))}
	for k, v := range r.Layers {
		c.Layers[k] = v.Clone()
	}
	return c
}

// profileBatch is the forward batch size used while profiling. Shard
// boundaries derive from it, so it also fixes the parallel decomposition.
const profileBatch = 32

// Compute profiles the network over ds and returns the firing-rate
// matrices for the given stage indices, using parallel.Default() workers.
// The dataset should contain an equal number of samples per class (paper
// §III); classes with zero samples yield zero rates. The network is
// profiled as given: to profile a pruned model, compact it first.
func Compute(net *nn.Network, ds *data.Dataset, stageIdx []int) (*Rates, error) {
	return ComputeWorkers(net, ds, stageIdx, 0)
}

// ComputeWorkers is Compute with an explicit worker count (<= 0 means
// parallel.Default()). The dataset is split into fixed profileBatch
// shards; each shard counts integer firing events into its own partial
// matrices via the stateless Network.InferObserved, and partials are
// merged in shard order. Firing counts are integers, so the merged
// totals — and hence the rates — are bit-identical for every worker
// count.
func ComputeWorkers(net *nn.Network, ds *data.Dataset, stageIdx []int, workers int) (*Rates, error) {
	stages := net.Stages()
	// stagePos maps profiled stage index → position in the accumulator
	// arrays; unitSize is the per-unit feature-map size (1 for dense).
	stagePos := make(map[int]int, len(stageIdx))
	unitSizes := make([]int, len(stageIdx))
	units := make([]int, len(stageIdx))
	for i, si := range stageIdx {
		if si < 0 || si >= len(stages) {
			return nil, fmt.Errorf("firing: stage %d outside [0,%d)", si, len(stages))
		}
		st := stages[si]
		if st.Act == nil {
			return nil, fmt.Errorf("firing: stage %d (%s) has no ReLU to observe", si, st.Unit.Name())
		}
		stagePos[si] = i
		units[i] = st.Unit.Units()
		unitSizes[i] = 1
		if outShape := st.Unit.OutShape(); len(outShape) == 3 {
			unitSizes[i] = outShape[1] * outShape[2]
		}
	}

	shards := parallel.Shards(ds.Len(), profileBatch)

	// One partial result per shard: integer firing counts per profiled
	// stage (units × classes) plus the shard's class census.
	type partial struct {
		fired    [][]int64
		perClass []int
	}
	parts := make([]partial, len(shards))
	parallel.For(workers, len(shards), func(i int) {
		sh := shards[i]
		idx := make([]int, sh.Len())
		for j := range idx {
			idx[j] = sh.Lo + j
		}
		x, labels := ds.Batch(idx)
		p := partial{fired: make([][]int64, len(stageIdx)), perClass: make([]int, ds.Classes)}
		for j := range p.fired {
			p.fired[j] = make([]int64, units[j]*ds.Classes)
		}
		net.InferObserved(x, nil, func(stage int, post *tensor.Tensor) {
			pos, ok := stagePos[stage]
			if !ok {
				return
			}
			u, usz := units[pos], unitSizes[pos]
			d := post.Data()
			for s := 0; s < post.Dim(0); s++ {
				class := labels[s]
				base := s * u * usz
				for un := 0; un < u; un++ {
					fired := int64(0)
					for _, v := range d[base+un*usz : base+(un+1)*usz] {
						if v > 0 {
							fired++
						}
					}
					p.fired[pos][un*ds.Classes+class] += fired
				}
			}
		})
		for _, l := range labels {
			p.perClass[l]++
		}
		parts[i] = p
	})

	// Merge in shard order. Integer addition is exactly associative, so
	// this is belt and braces — any order would yield the same totals.
	perClass := make([]int, ds.Classes)
	totals := make([][]int64, len(stageIdx))
	for i := range totals {
		totals[i] = make([]int64, units[i]*ds.Classes)
	}
	for _, p := range parts {
		for c, n := range p.perClass {
			perClass[c] += n
		}
		for i := range totals {
			for k, v := range p.fired[i] {
				totals[i][k] += v
			}
		}
	}

	res := &Rates{Classes: ds.Classes, Layers: make(map[int]*LayerRates, len(stageIdx))}
	for i, si := range stageIdx {
		lr := &LayerRates{Stage: si, Units: units[i], Classes: ds.Classes, F: make([]float64, units[i]*ds.Classes)}
		for u := 0; u < units[i]; u++ {
			for c := 0; c < ds.Classes; c++ {
				if perClass[c] > 0 {
					lr.F[u*ds.Classes+c] = float64(totals[i][u*ds.Classes+c]) / (float64(unitSizes[i]) * float64(perClass[c]))
				}
			}
		}
		res.Layers[si] = lr
	}
	return res, nil
}

// PrunableStages returns the paper's prunable layer set for a network:
// the last 6 unit layers minus the output layer (which is never pruned),
// i.e. 5 stage indices. For VGG-16 these are conv11–13, FC1 and FC2.
func PrunableStages(net *nn.Network) []int {
	n := len(net.Stages())
	start := n - 6
	if start < 0 {
		start = 0
	}
	var out []int
	for i := start; i < n-1; i++ {
		out = append(out, i)
	}
	return out
}
