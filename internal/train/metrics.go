package train

import (
	"capnn/internal/data"
	"capnn/internal/nn"
	"capnn/internal/parallel"
	"capnn/internal/tensor"
)

// Eval summarizes classification quality on a dataset.
type Eval struct {
	// Top1 and Top5 are overall accuracies in [0,1].
	Top1, Top5 float64
	// PerClass and PerClassTop5 are per-class accuracies; entries for
	// classes absent from the dataset are NaN-free zeros with Count 0.
	PerClass, PerClassTop5 []float64
	// Count is the number of evaluated samples per class.
	Count []int
}

// evalBatch is the forward batch size used during evaluation.
const evalBatch = 32

// Evaluate runs the network under masks (as Network.Infer takes them;
// nil = unpruned) over every image of ds and returns accuracy metrics,
// using parallel.Default() workers.
// Per-class accuracy for class i is the fraction of class-i images whose
// top-1 prediction (over all output classes) is i — the quantity
// Algorithms 1 and 2 bound by ε.
func Evaluate(net *nn.Network, masks map[int][]bool, ds *data.Dataset) Eval {
	return EvaluateWorkers(net, masks, ds, 0)
}

// EvaluateWorkers is Evaluate with an explicit worker count (<= 0 means
// parallel.Default()). The dataset is split into fixed evalBatch shards
// run through the stateless Network.Infer; per-shard integer hit
// counters merge in shard order, so the metrics are bit-identical for
// every worker count. The network's weights must not change while an
// evaluation is in flight.
func EvaluateWorkers(net *nn.Network, masks map[int][]bool, ds *data.Dataset, workers int) Eval {
	e := Eval{
		PerClass:     make([]float64, ds.Classes),
		PerClassTop5: make([]float64, ds.Classes),
		Count:        make([]int, ds.Classes),
	}
	hit1 := make([]int, ds.Classes)
	hit5 := make([]int, ds.Classes)
	shards := parallel.Shards(ds.Len(), evalBatch)
	type part struct{ hit1, hit5, count []int }
	parts := make([]part, len(shards))
	parallel.For(workers, len(shards), func(i int) {
		sh := shards[i]
		idx := make([]int, sh.Len())
		for j := range idx {
			idx[j] = sh.Lo + j
		}
		x, labels := ds.Batch(idx)
		logits := net.Infer(x, masks)
		p := part{
			hit1:  make([]int, ds.Classes),
			hit5:  make([]int, ds.Classes),
			count: make([]int, ds.Classes),
		}
		scoreBatch(logits, labels, p.hit1, p.hit5, p.count)
		parts[i] = p
	})
	for _, p := range parts {
		for c := 0; c < ds.Classes; c++ {
			hit1[c] += p.hit1[c]
			hit5[c] += p.hit5[c]
			e.Count[c] += p.count[c]
		}
	}
	t1, t5, total := 0, 0, 0
	for c := 0; c < ds.Classes; c++ {
		if e.Count[c] > 0 {
			e.PerClass[c] = float64(hit1[c]) / float64(e.Count[c])
			e.PerClassTop5[c] = float64(hit5[c]) / float64(e.Count[c])
		}
		t1 += hit1[c]
		t5 += hit5[c]
		total += e.Count[c]
	}
	if total > 0 {
		e.Top1 = float64(t1) / float64(total)
		e.Top5 = float64(t5) / float64(total)
	}
	return e
}

func scoreBatch(logits *tensor.Tensor, labels []int, hit1, hit5, count []int) {
	n, c := logits.Dim(0), logits.Dim(1)
	ld := logits.Data()
	k := 5
	if k > c {
		k = c
	}
	for s := 0; s < n; s++ {
		row := ld[s*c : (s+1)*c]
		label := labels[s]
		count[label]++
		top := tensor.ArgTopK(row, k)
		if top[0] == label {
			hit1[label]++
		}
		for _, t := range top {
			if t == label {
				hit5[label]++
				break
			}
		}
	}
}

// MeanAccuracyOver averages per-class top-1 accuracy over the given class
// subset (the quantity Figs. 5–6 plot for the user's classes).
func MeanAccuracyOver(e Eval, classes []int) float64 {
	if len(classes) == 0 {
		return 0
	}
	sum := 0.0
	for _, c := range classes {
		sum += e.PerClass[c]
	}
	return sum / float64(len(classes))
}

// MeanTop5Over averages per-class top-5 accuracy over the class subset.
func MeanTop5Over(e Eval, classes []int) float64 {
	if len(classes) == 0 {
		return 0
	}
	sum := 0.0
	for _, c := range classes {
		sum += e.PerClassTop5[c]
	}
	return sum / float64(len(classes))
}
