package core

import (
	"fmt"
	"sync"

	"capnn/internal/data"
	"capnn/internal/firing"
	"capnn/internal/nn"
	"capnn/internal/parallel"
	"capnn/internal/tensor"
)

// SuffixEvaluator measures per-class accuracy of a (possibly masked)
// network cheaply, by never repeating work whose result cannot change
// between the ε checks of Algorithms 1–2:
//
//   - The prefix. CAP'NN only prunes the last layers of the network, so
//     the activations entering the first prunable layer are the same for
//     every candidate; they are computed once, here, and every check
//     replays only the suffix (on the reference model a 6-layer pass over
//     tiny 2×2 feature maps instead of a full 16-layer pass).
//   - Other users' classes. The cached rows are grouped by class, and a
//     replay holds only the rows of the classes it is asked about. A
//     row's logits do not depend on which rows share its batch — convs
//     run image by image, and a dense layer's batch, lowered onto the
//     conv tiles with the rows as its positions, computes each row's
//     outputs with the chain it computes alone (nn's
//     TestInferBatchEqualsPerSample) — so the hit count of class k over
//     k's rows alone is the hit count of class k over the whole set.
//   - Decided stages. A prune mask only zeroes its own layer's output,
//     so once the stages before ℓ are committed the activations entering
//     ℓ are fixed for the whole threshold descent at ℓ; replay.advanceTo
//     pushes the rows there once and each candidate replays from ℓ on.
//   - The unmasked baseline. It depends on the weights and the evaluation
//     set alone, both fixed for the evaluator's lifetime (the cached
//     prefix already assumes so), and is measured once, at first use.
//
// Every replay goes through the same nn.InferLayers under the same masks
// as a full-set net.Infer(x, masks), and counts integer hits, so
// accuracies — and with them every accept/reject and every mask — are
// bit-identical to that pass for every worker count.
//
// The masks judged are the ones the caller passes: the evaluator reads
// only the network's weights and writes nothing, so any number of
// goroutines may use one evaluator at once.
// Stages before the cached split are not replayed; a mask there is not
// seen.
type SuffixEvaluator struct {
	net     *nn.Network
	suffix  []nn.Layer // net.Layers[split:]
	first   int        // stage index of suffix[0]
	unitAt  []int      // unitAt[s-first] indexes stage s's unit layer in suffix
	classes int

	cached *tensor.Tensor // activations at the split, rows grouped by class
	labels []int          // class of each cached row
	start  []int          // class c owns rows [start[c], start[c+1])

	baseOnce sync.Once
	base     []float64 // unmasked per-class accuracy, set by baseOnce
}

// suffixBatch is the replay's shard size. A two-class user's ε check
// replays 80 rows: at 64 rows a shard one worker would do 64 of them and
// the other 16, so the shards are kept small enough to balance.
const suffixBatch = 16

// NewSuffixEvaluator caches activations of ds at the input of the unit
// layer with stage index firstPrunable, computed with no stage pruned.
// The returned evaluator shares the network's weights, which must not
// change afterwards.
func NewSuffixEvaluator(net *nn.Network, ds *data.Dataset, firstPrunable int) (*SuffixEvaluator, error) {
	stages := net.Stages()
	if firstPrunable < 0 || firstPrunable >= len(stages) {
		return nil, fmt.Errorf("core: stage %d outside [0,%d)", firstPrunable, len(stages))
	}
	if ds.Len() == 0 {
		return nil, fmt.Errorf("core: empty evaluation set")
	}
	// Locate the unit layers within net.Layers.
	var unitLayers []int
	for i, l := range net.Layers {
		if _, ok := l.(nn.UnitLayer); ok {
			unitLayers = append(unitLayers, i)
		}
	}
	split := unitLayers[firstPrunable]

	ev := &SuffixEvaluator{net: net, suffix: net.Layers[split:], first: firstPrunable, classes: ds.Classes}
	for _, i := range unitLayers[firstPrunable:] {
		ev.unitAt = append(ev.unitAt, i-split)
	}
	// Stable grouping by class: order lists the samples class by class,
	// each class in dataset order.
	order := make([]int, 0, ds.Len())
	ev.start = make([]int, ds.Classes+1)
	for c, idx := range ds.ByClass() {
		ev.start[c] = len(order)
		order = append(order, idx...)
		for range idx {
			ev.labels = append(ev.labels, c)
		}
	}
	ev.start[ds.Classes] = len(order)

	// Run the prefix once over the whole set, sharded across workers.
	// Shards write disjoint regions of the cache via the stateless
	// nn.InferLayers, so any worker count produces the same bits.
	ev.cached = tensor.New(append([]int{len(order)}, net.Layers[split].InShape()...)...)
	prefix := net.Layers[:split]
	shards := parallel.Shards(len(order), suffixBatch)
	parallel.For(0, len(shards), func(i int) {
		sh := shards[i]
		x, _ := ds.Batch(order[sh.Lo:sh.Hi])
		x = nn.InferLayers(prefix, 0, nil, x)
		copy(rows(ev.cached, sh.Lo, sh.Hi), x.Data())
	})
	return ev, nil
}

// rows returns the backing data of rows [lo, hi) of a batch tensor.
func rows(t *tensor.Tensor, lo, hi int) []float64 {
	per := t.Len() / t.Dim(0)
	return t.Data()[lo*per : hi*per]
}

// Classes returns the class count of the evaluation set.
func (ev *SuffixEvaluator) Classes() int { return ev.classes }

// SampleCount returns how many eval images exist for class c.
func (ev *SuffixEvaluator) SampleCount(c int) int { return ev.start[c+1] - ev.start[c] }

// PerClassAccuracy replays the suffix under masks (keyed by stage index,
// as Network.Infer takes them; nil = unpruned) and returns top-1
// accuracy per class, using parallel.Default() workers. Classes with no
// samples report 0.
func (ev *SuffixEvaluator) PerClassAccuracy(masks map[int][]bool) []float64 {
	return ev.newReplay(nil).accuracy(masks)
}

// checkStages rejects stages the evaluator cannot search: outside the
// network, before its cached split (a mask there would never be
// replayed), or without firing rates of the right width.
func (ev *SuffixEvaluator) checkStages(rates *firing.Rates, prunable []int) error {
	stages := ev.net.Stages()
	for _, l := range prunable {
		lr := rates.Layers[l]
		if lr == nil {
			return fmt.Errorf("core: no firing rates for stage %d", l)
		}
		if l < ev.first || l >= len(stages) {
			return fmt.Errorf("core: stage %d outside the evaluator's suffix [%d,%d)", l, ev.first, len(stages))
		}
		if units := stages[l].Unit.Units(); lr.Units != units {
			return fmt.Errorf("core: stage %d has %d units but rates cover %d", l, units, lr.Units)
		}
	}
	return nil
}

// baseline returns the per-class accuracy of the unmasked network,
// measuring it on first use.
func (ev *SuffixEvaluator) baseline() []float64 {
	ev.baseOnce.Do(func() { ev.base = ev.PerClassAccuracy(nil) })
	return ev.base
}

// replay is the rows of a class subset on their way through the suffix:
// x holds their activations entering the unit layer of stage. It is the
// one place per-class accuracy is measured, and belongs to one search:
// replays of one evaluator are independent.
type replay struct {
	ev     *SuffixEvaluator
	labels []int // class of each row of x
	x      *tensor.Tensor
	stage  int
}

// at is the position in the suffix of the layer the rows are entering.
func (r *replay) at() int { return r.ev.unitAt[r.stage-r.ev.first] }

// newReplay starts a replay of the cached rows of the classes in K (nil =
// every class) at the split.
func (ev *SuffixEvaluator) newReplay(K []int) *replay {
	if K == nil {
		return &replay{ev: ev, labels: ev.labels, x: ev.cached, stage: ev.first}
	}
	r := &replay{ev: ev, stage: ev.first}
	var data []float64
	for _, k := range K {
		lo, hi := ev.start[k], ev.start[k+1]
		r.labels = append(r.labels, ev.labels[lo:hi]...)
		data = append(data, rows(ev.cached, lo, hi)...)
	}
	if len(data) > 0 { // an evaluation set may hold no image of K
		r.x = tensor.MustFromSlice(data, append([]int{len(r.labels)}, ev.cached.Shape()[1:]...)...)
	}
	return r
}

// forward pushes the rows through layers — suffix[at():] or a leading
// part of it — under masks, in fixed suffixBatch shards on parallel.Default()
// workers, and hands each shard's output to visit, concurrently.
func (r *replay) forward(layers []nn.Layer, masks map[int][]bool, visit func(sh parallel.Shard, out *tensor.Tensor)) {
	if len(r.labels) == 0 {
		return
	}
	shape := r.x.Shape()
	shards := parallel.Shards(shape[0], suffixBatch)
	parallel.For(0, len(shards), func(i int) {
		sh := shards[i]
		x := tensor.MustFromSlice(rows(r.x, sh.Lo, sh.Hi), append([]int{sh.Len()}, shape[1:]...)...)
		visit(sh, nn.InferLayers(layers, r.stage, masks, x))
	})
}

// advanceTo moves the rows up to the input of the given stage's unit
// layer under masks. The caller promises the masks of the stages crossed
// are final for as long as the replay is used.
func (r *replay) advanceTo(stage int, masks map[int][]bool) {
	if stage <= r.stage || len(r.labels) == 0 {
		return
	}
	layers := r.ev.suffix[r.at():r.ev.unitAt[stage-r.ev.first]]
	next := tensor.New(append([]int{len(r.labels)}, layers[len(layers)-1].OutShape()...)...)
	r.forward(layers, masks, func(sh parallel.Shard, out *tensor.Tensor) {
		copy(rows(next, sh.Lo, sh.Hi), out.Data())
	})
	r.x, r.stage = next, stage
}

// accuracy replays the remaining layers under masks and returns top-1
// accuracy per class, 0 for classes the replay holds no rows of. Hits
// are integers and shards write disjoint rows, so the result is the same
// for every worker count.
func (r *replay) accuracy(masks map[int][]bool) []float64 {
	hit := make([]bool, len(r.labels))
	r.forward(r.ev.suffix[r.at():], masks, func(sh parallel.Shard, out *tensor.Tensor) {
		c := out.Dim(1)
		for s := 0; s < sh.Len(); s++ {
			hit[sh.Lo+s] = tensor.Argmax(out.Data()[s*c:(s+1)*c]) == r.labels[sh.Lo+s]
		}
	})
	hits := make([]int, r.ev.classes)
	for i, h := range hit {
		if h {
			hits[r.labels[i]]++
		}
	}
	acc := make([]float64, r.ev.classes)
	for c, h := range hits {
		if h > 0 {
			acc[c] = float64(h) / float64(r.ev.SampleCount(c))
		}
	}
	return acc
}

// DegradationOK reports whether pruned accuracy stays within eps of the
// baseline for every class in check (nil = all classes with samples).
// Degradation is max(0, base − acc): improvements never violate ε.
func DegradationOK(base, acc []float64, eps float64, check []int) bool {
	if check == nil {
		for c := range base {
			if base[c]-acc[c] > eps {
				return false
			}
		}
		return true
	}
	for _, c := range check {
		if base[c]-acc[c] > eps {
			return false
		}
	}
	return true
}
