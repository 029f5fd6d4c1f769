package core

import (
	"sync"
	"testing"

	"capnn/internal/data"
	"capnn/internal/nn"
	"capnn/internal/train"
)

// The core tests share one small trained model: 6 classes in 2 confusion
// groups, a 5-unit-layer CNN (4 prunable stages under the last-6 rule),
// briefly trained so that firing rates and confusion structure are real.
type fixture struct {
	net     *nn.Network
	sets    *data.Sets
	sys     *System
	baseVal []float64 // unpruned per-class accuracy on the val split
}

var (
	fixOnce sync.Once
	fix     *fixture
	fixErr  error
)

func testParams() Params {
	p := DefaultParams()
	p.Epsilon = 0.10 // coarser than the paper: tiny eval sets quantize accuracy in 0.1 steps
	return p
}

func getFixture(t *testing.T) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		cfg := data.SynthConfig{Classes: 6, Groups: 2, H: 12, W: 12, GroupMix: 0.5, NoiseStd: 0.3, MaxShift: 1, Seed: 11}
		gen, err := data.NewGenerator(cfg)
		if err != nil {
			fixErr = err
			return
		}
		sets := data.MakeSets(gen, data.SetSizes{TrainPerClass: 20, ValPerClass: 10, TestPerClass: 10, ProfilePerClass: 15})
		net := nn.NewBuilder(1, 12, 12, 21).
			Conv(6).ReLU().Pool().
			Conv(8).ReLU().Pool().
			Flatten().
			Dense(16).ReLU().
			Dense(12).ReLU().
			Dense(6).MustBuild()
		tc := train.Config{Epochs: 14, BatchSize: 12, LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4, LRDecayEvery: 5, Seed: 3}
		if _, err := train.Train(net, sets.Train, nil, tc); err != nil {
			fixErr = err
			return
		}
		sys, err := NewSystem(net, sets.Val, sets.Profile, nil, testParams())
		if err != nil {
			fixErr = err
			return
		}
		base := sys.Eval.PerClassAccuracy(nil)
		fix = &fixture{net: net, sets: sets, sys: sys, baseVal: base}
	})
	if fixErr != nil {
		t.Fatalf("fixture: %v", fixErr)
	}
	return fix
}

func TestFixtureLearnedSomething(t *testing.T) {
	f := getFixture(t)
	ev := train.Evaluate(f.net, nil, f.sets.Val)
	if ev.Top1 < 0.5 {
		t.Fatalf("fixture val top-1 %.3f too low for meaningful pruning tests", ev.Top1)
	}
}

func TestPrunableStagesOfFixture(t *testing.T) {
	f := getFixture(t)
	ps := f.sys.Params.Stages
	want := []int{0, 1, 2, 3}
	if len(ps) != len(want) {
		t.Fatalf("stages %v, want %v", ps, want)
	}
	for i := range want {
		if ps[i] != want[i] {
			t.Fatalf("stages %v, want %v", ps, want)
		}
	}
}
