package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"capnn/internal/firing"
)

// Single-class personalization can degenerate into "always answer that
// class", which passes the paper's ε check even when an entire layer is
// silenced. The keepOne guard must prevent physically empty layers.
func TestSingleClassNeverEmptiesALayer(t *testing.T) {
	f := getFixture(t)
	for c := 0; c < 6; c++ {
		prefs := Uniform([]int{c})
		masks, err := PruneW(f.sys.Eval, f.sys.Rates, prefs, f.sys.Params)
		if err != nil {
			t.Fatalf("class %d: %v", c, err)
		}
		for l, mask := range masks {
			kept := 0
			for _, p := range mask {
				if !p {
					kept++
				}
			}
			if kept == 0 {
				t.Fatalf("class %d: stage %d emptied", c, l)
			}
		}
	}
}

func TestKeepOneUnflagsHighestScore(t *testing.T) {
	H := []bool{true, true, true}
	keepOne(H, []float64{0.1, 0.9, 0.5})
	if H[1] {
		t.Fatal("highest-scoring unit still pruned")
	}
	if !H[0] || !H[2] {
		t.Fatal("keepOne unflagged more than one unit")
	}
	// No-op when something already survives.
	H2 := []bool{true, false, true}
	keepOne(H2, []float64{0.1, 0.9, 0.5})
	if !H2[0] || H2[1] || !H2[2] {
		t.Fatal("keepOne modified a non-degenerate mask")
	}
}

func TestParamsValidate(t *testing.T) {
	good := Params{Epsilon: 0.03, TStart: 0.4, Step: 0.025, Stages: []int{1, 2}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{Epsilon: -0.1, TStart: 0.4, Step: 0.025, Stages: []int{1}},
		{Epsilon: 1.0, TStart: 0.4, Step: 0.025, Stages: []int{1}},
		{Epsilon: 0.03, TStart: 0, Step: 0.025, Stages: []int{1}},
		{Epsilon: 0.03, TStart: 1.5, Step: 0.025, Stages: []int{1}},
		{Epsilon: 0.03, TStart: 0.4, Step: 0, Stages: []int{1}},
		{Epsilon: 0.03, TStart: 0.4, Step: 0.025},
		{Epsilon: 0.03, TStart: 0.4, Step: 0.025, Stages: []int{2, 2}},
		{Epsilon: 0.03, TStart: 0.4, Step: 0.025, Stages: []int{3, 1}},
		{Epsilon: math.NaN(), TStart: 0.4, Step: 0.025, Stages: []int{1}},
		{Epsilon: 0.03, TStart: math.NaN(), Step: 0.025, Stages: []int{1}},
		{Epsilon: 0.03, TStart: 0.4, Step: math.NaN(), Stages: []int{1}},
		{Epsilon: 0.03, TStart: 0.4, Step: 1e-20, Stages: []int{1}},       // never lowers T
		{Epsilon: 0.03, TStart: 0.4, Step: 0.4 / 20000, Stages: []int{1}}, // 20 000 thresholds
		{Epsilon: 0.03, TStart: 0.4, Step: math.Inf(-1), Stages: []int{1}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("params %d accepted: %+v", i, p)
		}
	}
}

// Pruning with 3-bit quantized rates (the paper's cloud storage format)
// must still respect ε — quantization shifts which units get flagged but
// the accuracy check is exact.
func TestPruneWWithQuantizedRates(t *testing.T) {
	f := getFixture(t)
	quantized, err := firing.Quantize(f.sys.Rates, 3)
	if err != nil {
		t.Fatal(err)
	}
	prefs, _ := Weighted([]int{0, 3}, []float64{0.6, 0.4})
	masks, err := PruneW(f.sys.Eval, quantized, prefs, f.sys.Params)
	if err != nil {
		t.Fatal(err)
	}
	acc := f.sys.Eval.PerClassAccuracy(masks)
	if !DegradationOK(f.baseVal, acc, f.sys.Params.Epsilon+1e-9, prefs.Classes) {
		t.Fatal("quantized-rate pruning violates ε")
	}
}

// Property: OnlineB over a superset of classes always prunes a subset of
// units, for arbitrary random B matrices (not just fixture-derived ones).
func TestOnlineBMonotoneProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		classes := 3 + rng.Intn(5)
		units := 1 + rng.Intn(10)
		b := &BMatrices{
			Classes: classes,
			Stages:  []int{0},
			P:       map[int][]bool{0: make([]bool, units*classes)},
			Units:   map[int]int{0: units},
		}
		for i := range b.P[0] {
			b.P[0][i] = rng.Float64() < 0.5
		}
		small := []int{0, 1}
		big := []int{0, 1, 2}
		ms, err := OnlineB(b, small)
		if err != nil {
			return false
		}
		mb, err := OnlineB(b, big)
		if err != nil {
			return false
		}
		for n := range mb[0] {
			if mb[0][n] && !ms[0][n] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
