package capnn

import (
	"runtime"
	"testing"
	"time"

	"capnn/internal/core"
	"capnn/internal/data"
	"capnn/internal/firing"
	"capnn/internal/nn"
	"capnn/internal/parallel"
	"capnn/internal/train"
)

// This suite pins the parallel engine's central contract: the worker
// count changes wall-clock time only. Firing rates, per-class accuracy,
// and post-step weights must be bit-identical whether the shards ran on
// one goroutine or seven — CAP'NN compares these quantities against
// thresholds (ε checks, pruning rules), so any worker-dependent drift
// would make pruning decisions differ between a 1-core device and a
// many-core cloud box.

var determinismWorkers = []int{1, 2, 7}

func determinismData(t testing.TB) *data.Dataset {
	t.Helper()
	gen, err := data.NewGenerator(data.SynthConfig{
		Classes: 4, Groups: 2, H: 12, W: 12,
		GroupMix: 0.5, NoiseStd: 0.3, MaxShift: 1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 80 samples: several profiling (32), evaluation (32) and suffix (16)
	// shards, with a ragged tail shard in each decomposition (for the
	// suffix, in the two-class subset replay: 40 rows).
	return gen.Generate(20, 101)
}

// determinismNet is a small conv/pool/dense stack shaped like the
// reference model's tail.
func determinismNet(t testing.TB) *nn.Network {
	t.Helper()
	net, err := nn.NewBuilder(1, 12, 12, 7).
		Conv(6).ReLU().Pool().
		Conv(8).ReLU().Pool().
		Flatten().Dense(12).ReLU().Dense(4).Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestFiringRatesBitIdenticalAcrossWorkers(t *testing.T) {
	net := determinismNet(t)
	ds := determinismData(t)
	stages := []int{0, 1, 2}
	ref, err := firing.ComputeWorkers(net, ds, stages, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range determinismWorkers[1:] {
		got, err := firing.ComputeWorkers(net, ds, stages, w)
		if err != nil {
			t.Fatal(err)
		}
		for _, si := range stages {
			rf, gf := ref.Layers[si].F, got.Layers[si].F
			for i := range rf {
				if rf[i] != gf[i] {
					t.Fatalf("workers=%d stage %d: rate %d = %v, want %v (bit-identical)", w, si, i, gf[i], rf[i])
				}
			}
		}
	}
}

func TestEvaluationBitIdenticalAcrossWorkers(t *testing.T) {
	net := determinismNet(t)
	ds := determinismData(t)
	rates, err := firing.ComputeWorkers(net, ds, []int{2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	params := core.DefaultParams()
	params.Stages = []int{2}
	// Prune every other unit of the first dense stage so the masked path
	// is exercised too.
	masks := map[int][]bool{2: make([]bool, 12)}
	for u := range masks[2] {
		masks[2][u] = u%2 == 1
	}

	refEval := train.EvaluateWorkers(net, masks, ds, 1)
	defer parallel.SetDefault(0)
	var refAcc []float64
	var refPruned map[int][]bool
	for _, w := range determinismWorkers {
		gotEval := train.EvaluateWorkers(net, masks, ds, w)
		for c := range refEval.PerClass {
			if gotEval.PerClass[c] != refEval.PerClass[c] || gotEval.PerClassTop5[c] != refEval.PerClassTop5[c] {
				t.Fatalf("workers=%d: class %d accuracy %v/%v, want %v/%v", w,
					c, gotEval.PerClass[c], gotEval.PerClassTop5[c], refEval.PerClass[c], refEval.PerClassTop5[c])
			}
		}

		// The suffix evaluator reads the worker count from
		// parallel.Default (both prefix fill and replay).
		parallel.SetDefault(w)
		ev, err := core.NewSuffixEvaluator(net, ds, 2)
		if err != nil {
			t.Fatal(err)
		}
		acc := ev.PerClassAccuracy(masks)
		// So does the ε check's replay of a class subset (two of the four
		// classes) inside a threshold descent.
		pruned, err := core.PruneW(ev, rates, core.Uniform([]int{1, 3}), params)
		if err != nil {
			t.Fatal(err)
		}
		if refAcc == nil {
			refAcc, refPruned = acc, pruned
			continue
		}
		for c := range refAcc {
			if acc[c] != refAcc[c] {
				t.Fatalf("workers=%d: suffix per-class accuracy %v, want %v", w, acc[c], refAcc[c])
			}
		}
		for u, p := range refPruned[2] {
			if pruned[2][u] != p {
				t.Fatalf("workers=%d: PruneW unit %d pruned=%v, want %v", w, u, pruned[2][u], p)
			}
		}
	}
}

func TestTrainingBitIdenticalAcrossWorkers(t *testing.T) {
	ds := determinismData(t)
	batches := [][]int{firstN(ds.Len(), 16), {16, 33, 50, 67, 2, 9}, firstN(ds.Len(), 80)[64:]}

	var refWeights []float64
	var refLoss []float64
	for _, w := range determinismWorkers {
		net := determinismNet(t)
		tr := train.NewTrainer(net, train.NewSGD(0.05, 0.9, 5e-4), w)
		var losses []float64
		for step := 0; step < 3; step++ {
			for _, idx := range batches {
				loss, err := tr.Step(ds, idx)
				if err != nil {
					t.Fatal(err)
				}
				losses = append(losses, loss)
			}
		}
		tr.Close()
		var weights []float64
		for _, p := range net.Params() {
			weights = append(weights, p.W.Data()...)
		}
		if refWeights == nil {
			refWeights, refLoss = weights, losses
			continue
		}
		for i := range refLoss {
			if losses[i] != refLoss[i] {
				t.Fatalf("workers=%d: step %d loss %v, want %v (bit-identical)", w, i, losses[i], refLoss[i])
			}
		}
		for i := range refWeights {
			if weights[i] != refWeights[i] {
				t.Fatalf("workers=%d: weight %d = %v, want %v (bit-identical)", w, i, weights[i], refWeights[i])
			}
		}
	}
}

// After a trainer shuts its pool down, its worker goroutines must be
// gone — serving processes personalize many users and would otherwise
// leak a pool per fine-tune.
func TestTrainerCloseLeavesNoGoroutines(t *testing.T) {
	ds := determinismData(t)
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		net := determinismNet(t)
		tr := train.NewTrainer(net, train.NewSGD(0.05, 0.9, 5e-4), 4)
		if _, err := tr.Step(ds, firstN(ds.Len(), 16)); err != nil {
			t.Fatal(err)
		}
		tr.Close()
		tr.Close() // idempotent
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutine leak: %d live after Close, %d before", got, before)
	}
}
