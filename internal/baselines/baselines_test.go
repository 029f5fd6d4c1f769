package baselines

import (
	"sync"
	"testing"

	"capnn/internal/data"
	"capnn/internal/firing"
	"capnn/internal/nn"
	"capnn/internal/train"
)

type fixture struct {
	net   *nn.Network
	sets  *data.Sets
	rates *firing.Rates
}

var (
	fixOnce sync.Once
	fix     *fixture
	fixErr  error
)

func getFixture(t *testing.T) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		gen, err := data.NewGenerator(data.SynthConfig{Classes: 4, Groups: 2, H: 12, W: 12, GroupMix: 0.5, NoiseStd: 0.3, MaxShift: 1, Seed: 31})
		if err != nil {
			fixErr = err
			return
		}
		sets := data.MakeSets(gen, data.SetSizes{TrainPerClass: 15, ValPerClass: 8, TestPerClass: 8, ProfilePerClass: 10})
		net := nn.NewBuilder(1, 12, 12, 41).
			Conv(6).ReLU().Pool().
			Conv(8).ReLU().Pool().
			Flatten().Dense(12).ReLU().Dense(4).MustBuild()
		tc := train.Config{Epochs: 8, BatchSize: 10, LR: 0.05, Momentum: 0.9, Seed: 5}
		if _, err := train.Train(net, sets.Train, nil, tc); err != nil {
			fixErr = err
			return
		}
		stages := []int{0, 1, 2}
		rates, err := firing.Compute(net, sets.Profile, stages)
		if err != nil {
			fixErr = err
			return
		}
		fix = &fixture{net: net, sets: sets, rates: rates}
	})
	if fixErr != nil {
		t.Fatalf("fixture: %v", fixErr)
	}
	return fix
}

func countPruned(m map[int][]bool) int {
	n := 0
	for _, mask := range m {
		for _, p := range mask {
			if p {
				n++
			}
		}
	}
	return n
}

func TestPruneUnawareFractions(t *testing.T) {
	f := getFixture(t)
	for _, crit := range []Criterion{ByWeightNorm, ByThiNet} {
		masks, err := PruneUnaware(f.net, []int{0, 1, 2}, 0.25, crit, f.sets.Profile)
		if err != nil {
			t.Fatalf("%v: %v", crit, err)
		}
		// stage 0: 6 units → 1 pruned; stage 1: 8 → 2; stage 2: 12 → 3.
		want := map[int]int{0: 1, 1: 2, 2: 3}
		for si, mask := range masks {
			got := 0
			for _, p := range mask {
				if p {
					got++
				}
			}
			if got != want[si] {
				t.Fatalf("%v stage %d pruned %d, want %d", crit, si, got, want[si])
			}
		}
	}
}

func TestPruneUnawareNeverEmptiesLayer(t *testing.T) {
	f := getFixture(t)
	masks, err := PruneUnaware(f.net, []int{0}, 0.99, ByWeightNorm, nil)
	if err != nil {
		t.Fatal(err)
	}
	kept := 0
	for _, p := range masks[0] {
		if !p {
			kept++
		}
	}
	if kept < 1 {
		t.Fatal("layer emptied")
	}
}

func TestPruneUnawareValidation(t *testing.T) {
	f := getFixture(t)
	if _, err := PruneUnaware(f.net, []int{0}, 1.0, ByWeightNorm, nil); err == nil {
		t.Fatal("fraction 1.0 accepted")
	}
	if _, err := PruneUnaware(f.net, []int{99}, 0.5, ByWeightNorm, nil); err == nil {
		t.Fatal("bad stage accepted")
	}
	if _, err := PruneUnaware(f.net, []int{0}, 0.5, ByThiNet, nil); err == nil {
		t.Fatal("missing sample set accepted")
	}
}

func TestWeightNormPrunesSmallestFilter(t *testing.T) {
	f := getFixture(t)
	conv := f.net.Stages()[0].Unit.(*nn.Conv2D)
	w := conv.Weights()
	// Make channel 3 the unambiguous smallest filter.
	per := w.Len() / conv.Units()
	saved := append([]float64(nil), w.Data()[3*per:(3+1)*per]...)
	for i := 3 * per; i < 4*per; i++ {
		w.Data()[i] = 1e-6
	}
	defer copy(w.Data()[3*per:4*per], saved)
	masks, err := PruneUnaware(f.net, []int{0}, 0.2, ByWeightNorm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !masks[0][3] {
		t.Fatalf("smallest filter not pruned: %v", masks[0])
	}
}

func TestFineTuneRecoversAccuracy(t *testing.T) {
	f := getFixture(t)
	masks, err := PruneUnaware(f.net, []int{0, 1, 2}, 0.25, ByWeightNorm, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := train.Evaluate(f.net, masks, f.sets.Val).Top1
	compacted, err := nn.CompactMasked(f.net, masks)
	if err != nil {
		t.Fatal(err)
	}
	if err := train.FineTune(compacted, f.sets.Train, nil, 3, 7); err != nil {
		t.Fatal(err)
	}
	after := train.Evaluate(compacted, nil, f.sets.Val).Top1
	if after+1e-9 < before {
		t.Fatalf("fine-tuning reduced accuracy: %.3f → %.3f", before, after)
	}
}

func TestCAPTORPrunesOnlyConvStages(t *testing.T) {
	f := getFixture(t)
	cfg := CAPTORConfig{Theta: 0.5, Stages: []int{0, 1, 2}}
	masks, err := CAPTORPrune(f.net, f.rates, []int{0, 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := masks[2]; ok {
		t.Fatal("CAPTOR produced a mask for a dense stage")
	}
	if _, ok := masks[0]; !ok {
		t.Fatal("CAPTOR skipped a conv stage")
	}
	for si, mask := range masks {
		kept := 0
		for _, p := range mask {
			if !p {
				kept++
			}
		}
		if kept < 1 {
			t.Fatalf("stage %d emptied", si)
		}
	}
}

func TestCAPTORMoreClassesLessPruning(t *testing.T) {
	f := getFixture(t)
	cfg := CAPTORConfig{Theta: 0.4, Stages: []int{0, 1}}
	small, err := CAPTORPrune(f.net, f.rates, []int{0}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	large, err := CAPTORPrune(f.net, f.rates, []int{0, 1, 2, 3}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if countPruned(large) > countPruned(small) {
		t.Fatalf("CAPTOR pruned more with more classes: %d vs %d", countPruned(large), countPruned(small))
	}
}

func TestCAPTORValidation(t *testing.T) {
	f := getFixture(t)
	cfg := DefaultCAPTORConfig(f.net)
	if _, err := CAPTORPrune(f.net, f.rates, nil, cfg); err == nil {
		t.Fatal("empty K accepted")
	}
	bad := cfg
	bad.Theta = 0
	if _, err := CAPTORPrune(f.net, f.rates, []int{0}, bad); err == nil {
		t.Fatal("theta 0 accepted")
	}
	if _, err := CAPTORPrune(f.net, f.rates, []int{99}, CAPTORConfig{Theta: 0.3, Stages: []int{0}}); err == nil {
		t.Fatal("bad class accepted")
	}
}

func TestThiNetScoresUseDownstreamWeights(t *testing.T) {
	f := getFixture(t)
	// Zero the downstream filter slices consuming conv0's channel 2: its
	// ThiNet score collapses, so it must be among the pruned at 20%.
	conv1 := f.net.Stages()[1].Unit.(*nn.Conv2D)
	w := conv1.Weights()
	outC, k := w.Dim(0), w.Dim(2)
	saved := map[int]float64{} // by offset of w[oc][2][ky][kx]
	for oc := 0; oc < outC; oc++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				i := ((oc*w.Dim(1)+2)*k+ky)*k + kx
				saved[i] = w.Data()[i]
				w.Data()[i] = 0
			}
		}
	}
	defer func() {
		for i, v := range saved {
			w.Data()[i] = v
		}
	}()
	masks, err := PruneUnaware(f.net, []int{0}, 0.2, ByThiNet, f.sets.Profile)
	if err != nil {
		t.Fatal(err)
	}
	if !masks[0][2] {
		t.Fatalf("channel with zero downstream weights not pruned: %v", masks[0])
	}
}

func TestThiNetGreedyBasics(t *testing.T) {
	f := getFixture(t)
	mask, err := ThiNetGreedy(f.net, 0, 0.5, f.sets.Profile, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	pruned, kept := 0, 0
	for _, p := range mask {
		if p {
			pruned++
		} else {
			kept++
		}
	}
	if pruned != 3 || kept != 3 { // 6 channels at 50%
		t.Fatalf("pruned %d kept %d, want 3/3", pruned, kept)
	}
}

func TestThiNetGreedyPrefersZeroContributionChannel(t *testing.T) {
	f := getFixture(t)
	// Silence channel 4's downstream consumption entirely: greedy must
	// remove it first (its removal has exactly zero reconstruction error).
	conv1 := f.net.Stages()[1].Unit.(*nn.Conv2D)
	w := conv1.Weights()
	outC, k := w.Dim(0), w.Dim(2)
	saved := map[int]float64{} // by offset of w[oc][4][ky][kx]
	for oc := 0; oc < outC; oc++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				i := ((oc*w.Dim(1)+4)*k+ky)*k + kx
				saved[i] = w.Data()[i]
				w.Data()[i] = 0
			}
		}
	}
	defer func() {
		for i, v := range saved {
			w.Data()[i] = v
		}
	}()
	mask, err := ThiNetGreedy(f.net, 0, 0.17, f.sets.Profile, 60, 2) // 1 of 6 channels
	if err != nil {
		t.Fatal(err)
	}
	if !mask[4] {
		t.Fatalf("zero-contribution channel not removed first: %v", mask)
	}
}

func TestThiNetGreedyValidation(t *testing.T) {
	f := getFixture(t)
	if _, err := ThiNetGreedy(f.net, 0, 1.0, f.sets.Profile, 10, 1); err == nil {
		t.Fatal("fraction 1.0 accepted")
	}
	if _, err := ThiNetGreedy(f.net, 0, 0.5, f.sets.Profile, 0, 1); err == nil {
		t.Fatal("0 locations accepted")
	}
	// Output stage has no downstream layer.
	last := len(f.net.Stages()) - 1
	if _, err := ThiNetGreedy(f.net, last, 0.5, f.sets.Profile, 10, 1); err == nil {
		t.Fatal("output stage accepted")
	}
}

func TestThiNetGreedyAcrossFlattenBoundary(t *testing.T) {
	f := getFixture(t)
	// Stage 1 (conv) feeds the dense layer through a pool+flatten; the
	// dense contribution path must handle the [n, c, h, w] activations.
	mask, err := ThiNetGreedy(f.net, 1, 0.25, f.sets.Profile, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(mask) != 8 {
		t.Fatalf("mask length %d, want 8", len(mask))
	}
}
