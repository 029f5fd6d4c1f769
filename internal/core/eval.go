package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

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
//   - The prefix and the unmasked baseline. CAP'NN only prunes the last
//     layers of the network, so the activations entering the first
//     prunable layer are the same for every candidate. A class's are
//     computed once, when a replay first names it, and run on through the
//     unmasked suffix for its baseline hits; every check replays only the
//     suffix (on the reference model a 6-layer pass over tiny 2×2 feature
//     maps instead of a full 16-layer pass).
//   - Other users' classes. The cached rows are grouped by class, and a
//     replay holds (and builds) only the rows of the classes it is asked
//     about. A row's logits do not depend on which rows share its batch —
//     a suffix shard runs sample-minor on the conv tiles, the rows as the
//     positions of every conv and dense layer, and each row's outputs
//     are the chain it computes alone (nn's TestInferBatchEqualsPerSample
//     and TestInferMinorMatchesPerImage) — so the hit count of class k
//     over k's rows alone is the hit count of class k over the whole set.
//   - Decided stages. A prune mask only zeroes its own layer's output,
//     so once the stages before ℓ are committed the activations entering
//     ℓ are fixed for the whole threshold descent at ℓ; replay.advanceTo
//     pushes the rows there once and each candidate replays from ℓ on.
//   - Decided verdicts. An ε check asks only whether every checked class
//     stays within ε, so it stops replaying once the rows left could not
//     change the answer even if every one were a hit, or a miss
//     (replay.withinEps).
//
// Every replay goes through the same nn.InferLayers under the same masks
// as a full-set net.Infer(x, masks), and counts integer hits, so
// accuracies — and with them every accept/reject and every mask — are
// bit-identical to that pass for every worker count.
//
// The masks judged are the ones the caller passes: the evaluator reads
// only the network's weights and writes only its cache, each class once,
// so any number of goroutines may use one evaluator at once.
// Stages before the cached split are not replayed; a mask there is not
// seen.
type SuffixEvaluator struct {
	net     *nn.Network
	suffix  []nn.Layer    // net.Layers[split:]
	first   int           // stage index of suffix[0]
	unitAt  []int         // unitAt[s-first] indexes stage s's unit layer in suffix
	ds      *data.Dataset // evaluation set
	byClass [][]int       // dataset indices of each class's rows
	all     []int         // every class

	cached *tensor.Tensor // activations at the split, rows grouped by class
	labels []int          // class of each cached row
	start  []int          // class c owns rows [start[c], start[c+1])

	once     []sync.Once  // once[c] builds class c's rows and baseHits[c]
	baseHits []int        // unmasked hits per class, set by once
	built    atomic.Int64 // rows pushed through the prefix so far
}

// suffixBatch is the replay's shard size. A two-class user's ε check
// replays 80 rows: at 64 rows a shard one worker would do 64 of them and
// the other 16, so the shards are kept small enough to balance.
const suffixBatch = 16

// NewSuffixEvaluator prepares to cache activations of ds at the input of
// the unit layer with stage index firstPrunable, computed with no stage
// pruned, as replays name their classes. The returned evaluator shares
// the network's weights and ds, which must not change afterwards.
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

	ev := &SuffixEvaluator{net: net, suffix: net.Layers[split:], first: firstPrunable,
		ds: ds, byClass: ds.ByClass(), start: make([]int, ds.Classes+1),
		once: make([]sync.Once, ds.Classes), baseHits: make([]int, ds.Classes)}
	for _, i := range unitLayers[firstPrunable:] {
		ev.unitAt = append(ev.unitAt, i-split)
	}
	// Stable grouping by class: the rows list the samples class by class,
	// each class in dataset order.
	for c, idx := range ev.byClass {
		ev.all, ev.start[c+1] = append(ev.all, c), ev.start[c]+len(idx)
		for range idx {
			ev.labels = append(ev.labels, c)
		}
	}
	ev.cached = tensor.New(append([]int{len(ev.labels)}, net.Layers[split].InShape()...)...)
	return ev, nil
}

// build caches the rows of the classes in K (nil = every class) not yet
// built — side by side, each in suffixBatch shards across workers — and
// returns the classes.
func (ev *SuffixEvaluator) build(K []int) []int {
	if K == nil {
		K = ev.all
	}
	parallel.For(0, len(K), func(i int) {
		k := K[i]
		ev.once[k].Do(func() { ev.buildClass(k) })
	})
	return K
}

// buildClass pushes class k's rows through the prefix into the cache
// and on through the unmasked suffix, counting k's baseline hits. Shards
// write disjoint regions of the cache via the stateless nn.InferLayers,
// so any worker count produces the same bits.
func (ev *SuffixEvaluator) buildClass(k int) {
	lo := ev.start[k]
	var hits atomic.Int64
	shards := parallel.Shards(ev.start[k+1]-lo, suffixBatch)
	parallel.For(0, len(shards), func(i int) {
		sh := shards[i]
		x, _ := ev.ds.Batch(ev.byClass[k][sh.Lo:sh.Hi])
		x = nn.InferLayers(ev.net.Layers[:len(ev.net.Layers)-len(ev.suffix)], 0, nil, x)
		copy(rows(ev.cached, lo+sh.Lo, lo+sh.Hi), x.Data())
		out := nn.InferLayers(ev.suffix, ev.first, nil, x)
		for s, c := 0, out.Dim(1); s < sh.Len(); s++ {
			if tensor.Argmax(out.Data()[s*c:(s+1)*c]) == k {
				hits.Add(1)
			}
		}
		ev.built.Add(int64(sh.Len()))
	})
	ev.baseHits[k] = int(hits.Load())
}

// rows returns the backing data of rows [lo, hi) of a batch tensor.
func rows(t *tensor.Tensor, lo, hi int) []float64 {
	per := t.Len() / t.Dim(0)
	return t.Data()[lo*per : hi*per]
}

// SampleCount returns how many eval images exist for class c.
func (ev *SuffixEvaluator) SampleCount(c int) int { return ev.start[c+1] - ev.start[c] }

// PerClassAccuracy replays the suffix under masks (keyed by stage index,
// as Network.Infer takes them; nil = unpruned) and returns top-1
// accuracy per class, using parallel.Default() workers. It builds every
// class. Classes with no samples report 0.
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

// baseline returns the per-class accuracy of the unmasked network on the
// classes in K (none = every class; the others report 0), building them
// if need be.
func (ev *SuffixEvaluator) baseline(K ...int) []float64 {
	base := make([]float64, ev.ds.Classes)
	for _, c := range ev.build(K) {
		base[c] = ev.rate(c, ev.baseHits[c])
	}
	return base
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

	replayed atomic.Int64 // rows pushed through the shard loop so far
}

// at is the position in the suffix of the layer the rows are entering.
func (r *replay) at() int { return r.ev.unitAt[r.stage-r.ev.first] }

// newReplay starts a replay of the cached rows of the classes in K (nil =
// every class) at the split, building them if need be.
func (ev *SuffixEvaluator) newReplay(K []int) *replay {
	ev.build(K)
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
// workers, and hands each shard's output to visit, concurrently. Once a
// visit returns true, the shards not yet started are skipped.
func (r *replay) forward(layers []nn.Layer, masks map[int][]bool, visit func(sh parallel.Shard, out *tensor.Tensor) (done bool)) {
	if len(r.labels) == 0 {
		return
	}
	shape := r.x.Shape()
	shards := parallel.Shards(shape[0], suffixBatch)
	var done atomic.Bool
	parallel.For(0, len(shards), func(i int) {
		if done.Load() {
			return
		}
		sh := shards[i]
		r.replayed.Add(int64(sh.Len()))
		x := tensor.MustFromSlice(rows(r.x, sh.Lo, sh.Hi), append([]int{sh.Len()}, shape[1:]...)...)
		if visit(sh, nn.InferLayers(layers, r.stage, masks, x)) {
			done.Store(true)
		}
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
	r.forward(layers, masks, func(sh parallel.Shard, out *tensor.Tensor) bool {
		copy(rows(next, sh.Lo, sh.Hi), out.Data())
		return false
	})
	r.x, r.stage = next, stage
}

// accuracy replays the remaining layers under masks and returns top-1
// accuracy per class, 0 for classes the replay holds no rows of. Hits
// are integers, so the result is the same for every worker count.
func (r *replay) accuracy(masks map[int][]bool) []float64 {
	acc := make([]float64, r.ev.ds.Classes)
	for c, h := range r.tally(masks, nil) {
		acc[c] = r.ev.rate(c, h)
	}
	return acc
}

// withinEps is the ε check: DegradationOK(base, r.accuracy(masks), eps,
// check), except that it stops replaying once the rows not yet replayed
// cannot change the verdict — when it holds with none of them counted a
// hit, or fails with every one of them counted. The quotient and
// base − acc > eps are both monotone in the hit count, so the early
// verdict is the full replay's for every worker count and schedule.
func (r *replay) withinEps(masks map[int][]bool, base []float64, eps float64, check []int) bool {
	lo, hi := make([]float64, r.ev.ds.Classes), make([]float64, r.ev.ds.Classes)
	var ok bool
	r.tally(masks, func(hits, left []int) bool {
		for c, h := range hits {
			lo[c], hi[c] = r.ev.rate(c, h), r.ev.rate(c, h+left[c])
		}
		ok = DegradationOK(base, lo, eps, check)
		return ok || !DegradationOK(base, hi, eps, check)
	})
	return ok
}

// tally replays the remaining layers under masks and returns the hits
// per class. A non-nil stop is asked before the first shard and after
// each one, under a lock, with the hits so far and the rows of each class
// not yet replayed; once it returns true the shards not yet started are
// skipped.
func (r *replay) tally(masks map[int][]bool, stop func(hits, left []int) bool) []int {
	hits, left := make([]int, r.ev.ds.Classes), make([]int, r.ev.ds.Classes)
	for _, c := range r.labels {
		left[c]++
	}
	done := stop != nil && stop(hits, left)
	if done {
		return hits
	}
	var mu sync.Mutex
	r.forward(r.ev.suffix[r.at():], masks, func(sh parallel.Shard, out *tensor.Tensor) bool {
		c := out.Dim(1)
		mu.Lock()
		defer mu.Unlock()
		if done { // decided while this shard ran
			return true
		}
		for s := 0; s < sh.Len(); s++ {
			k := r.labels[sh.Lo+s]
			left[k]--
			if tensor.Argmax(out.Data()[s*c:(s+1)*c]) == k {
				hits[k]++
			}
		}
		done = stop != nil && stop(hits, left)
		return done
	})
	return hits
}

// rate is the accuracy of h hits on class c: h over SampleCount(c), and
// 0 without a hit.
func (ev *SuffixEvaluator) rate(c, h int) float64 {
	if h == 0 {
		return 0
	}
	return float64(h) / float64(ev.SampleCount(c))
}

// DegradationOK reports whether pruned accuracy stays within eps of the
// baseline for every class in check (nil = all classes with samples).
// Degradation is max(0, base − acc): improvements never violate ε.
func DegradationOK(base, acc []float64, eps float64, check []int) bool {
	for c := range base {
		if (check == nil || slices.Contains(check, c)) && base[c]-acc[c] > eps {
			return false
		}
	}
	return true
}
