package train

import (
	"fmt"

	"capnn/internal/data"
	"capnn/internal/nn"
	"capnn/internal/parallel"
)

// maxGradShards fixes how many gradient shards a mini-batch is split
// into, independently of the worker count. Each shard's gradient is
// computed in isolation and the shard partials are reduced in shard
// order, so the summed gradient — and every weight that follows from it
// — is bit-identical whether one worker or eight executed the shards.
// Worker counts above maxGradShards add nothing; NewTrainer caps there.
const maxGradShards = 8

// Trainer runs data-parallel mini-batch steps: the batch is split into
// fixed shards, each shard's forward/backward runs on a per-worker
// weight-sharing replica of the network (see nn.Replica), and the shard
// gradients are reduced deterministically before a single optimizer
// step on the real network.
//
// Dropout noise is derived from (seed, step, shard), never from the
// executing worker, so stochastic regularization is also identical for
// every worker count.
type Trainer struct {
	net  *nn.Network
	opt  Stepper
	pool *parallel.Pool
	reps []*nn.Network

	gradLen int
	// Per-shard slots, reused across steps.
	grads  [][]float64
	losses []float64
	errs   []error

	seed int64
	step int64
}

// NewTrainer builds a trainer for net with the given optimizer. workers
// <= 0 means parallel.Default(); counts above maxGradShards are capped.
// Callers must Close the trainer to release its worker goroutines.
func NewTrainer(net *nn.Network, opt Stepper, workers int, seed int64) *Trainer {
	if workers <= 0 {
		workers = parallel.Default()
	}
	if workers > maxGradShards {
		workers = maxGradShards
	}
	t := &Trainer{net: net, opt: opt, seed: seed}
	t.pool = parallel.NewPool(workers)
	t.reps = make([]*nn.Network, workers)
	for w := range t.reps {
		t.reps[w] = net.Replica()
		t.reps[w].SetTraining(true)
	}
	for _, p := range net.Params() {
		t.gradLen += p.G.Len()
	}
	t.grads = make([][]float64, maxGradShards)
	for i := range t.grads {
		t.grads[i] = make([]float64, t.gradLen)
	}
	t.losses = make([]float64, maxGradShards)
	t.errs = make([]error, maxGradShards)
	return t
}

// Step runs one optimizer step over the samples of ds selected by
// indices and returns the batch's mean cross-entropy loss. The shard
// losses and gradients are combined with weights |shard|/|batch| in
// shard order, matching the mean-loss semantics of the serial loop.
func (t *Trainer) Step(ds *data.Dataset, indices []int) (float64, error) {
	n := len(indices)
	if n == 0 {
		return 0, fmt.Errorf("train: empty batch")
	}
	shardSize := (n + maxGradShards - 1) / maxGradShards
	shards := parallel.Shards(n, shardSize)
	step := t.step
	t.step++

	t.pool.ForWorker(len(shards), func(worker, si int) {
		rep := t.reps[worker]
		sh := shards[si]
		idx := indices[sh.Lo:sh.Hi]
		x, labels := ds.Batch(idx)
		rep.ZeroGrad()
		// The noise stream depends on what is computed (step, shard),
		// never on which worker computes it.
		rep.ReseedDropout(t.seed + step*1_000_003 + int64(si)*7919)
		logits := rep.Forward(x)
		loss, grad, err := SoftmaxCrossEntropy(logits, labels)
		if err != nil {
			t.errs[si] = err
			return
		}
		wgt := float64(len(idx)) / float64(n)
		grad.Scale(wgt)
		rep.Backward(grad)
		buf := t.grads[si]
		off := 0
		for _, p := range rep.Params() {
			off += copy(buf[off:], p.G.Data())
		}
		t.losses[si] = loss * wgt
	})

	for si := range shards {
		if err := t.errs[si]; err != nil {
			t.errs[si] = nil
			return 0, err
		}
	}

	// Reduce shard gradients in shard order onto the real network, then
	// step once. Replicas share the weight tensors, so they observe the
	// update immediately.
	t.net.ZeroGrad()
	params := t.net.Params()
	loss := 0.0
	for si := range shards {
		buf := t.grads[si]
		off := 0
		for _, p := range params {
			gd := p.G.Data()
			for i := range gd {
				gd[i] += buf[off+i]
			}
			off += len(gd)
		}
		loss += t.losses[si]
	}
	t.opt.Step(params)
	return loss, nil
}

// Close releases the trainer's worker goroutines. Idempotent.
func (t *Trainer) Close() { t.pool.Close() }
