package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"capnn/internal/firing"
	"capnn/internal/train"
)

// --- Suffix evaluator ---------------------------------------------------

func TestSuffixEvaluatorMatchesFullEvaluation(t *testing.T) {
	f := getFixture(t)
	// Compare suffix-replay per-class accuracy against train.Evaluate on
	// the same dataset under a nontrivial mask.
	masks := map[int][]bool{
		2: make([]bool, 16),
	}
	masks[2][0], masks[2][5], masks[2][9] = true, true, true
	suffix := f.sys.Eval.PerClassAccuracy(masks)
	full := train.Evaluate(f.net, masks, f.sets.Val)
	for c := range suffix {
		if math.Abs(suffix[c]-full.PerClass[c]) > 1e-12 {
			t.Fatalf("class %d: suffix %v vs full %v", c, suffix[c], full.PerClass[c])
		}
	}
}

// The evaluator holds no masks of its own: the cached prefix is computed
// unpruned, and a replay sees only the masks it is handed — a masked
// replay before it leaves the next unmasked one at the unpruned accuracy.
func TestSuffixEvaluatorIgnoresInstalledMasks(t *testing.T) {
	f := getFixture(t)
	ev, err := NewSuffixEvaluator(f.net, f.sets.Val, 2)
	if err != nil {
		t.Fatal(err)
	}
	mask := make([]bool, f.net.Stages()[2].Unit.Units())
	for n := range mask {
		mask[n] = n%2 == 0
	}
	ev.PerClassAccuracy(map[int][]bool{2: mask})
	for c, v := range ev.PerClassAccuracy(nil) {
		if v != f.baseVal[c] {
			t.Fatalf("class %d = %v after a masked replay, want unpruned %v", c, v, f.baseVal[c])
		}
	}
}

func TestSuffixEvaluatorRejectsBadArgs(t *testing.T) {
	f := getFixture(t)
	if _, err := NewSuffixEvaluator(f.net, f.sets.Val, 99); err == nil {
		t.Fatal("bad stage accepted")
	}
}

func TestDegradationOK(t *testing.T) {
	base := []float64{0.9, 0.8, 0.7}
	if !DegradationOK(base, []float64{0.88, 0.8, 0.71}, 0.03, nil) {
		t.Fatal("within-ε rejected")
	}
	if DegradationOK(base, []float64{0.8, 0.8, 0.7}, 0.03, nil) {
		t.Fatal("beyond-ε accepted")
	}
	// Restricting the check to a subset ignores other classes.
	if !DegradationOK(base, []float64{0.0, 0.8, 0.7}, 0.03, []int{1, 2}) {
		t.Fatal("subset check looked at excluded class")
	}
	// Improvement is never a violation.
	if !DegradationOK(base, []float64{1, 1, 1}, 0.0, nil) {
		t.Fatal("improvement rejected")
	}
}

// --- CAP'NN-B ------------------------------------------------------------

func TestComputeBProducesMatricesAndGuarantee(t *testing.T) {
	f := getFixture(t)
	b, err := f.sys.BMatrices()
	if err != nil {
		t.Fatal(err)
	}
	if b.Classes != 6 || len(b.Stages) != 4 {
		t.Fatalf("B shape: classes=%d stages=%v", b.Classes, b.Stages)
	}
	// Per-class columns must respect ε for ALL classes (the Algorithm 1
	// invariant): applying column c alone and re-measuring.
	eps := f.sys.Params.Epsilon
	for c := 0; c < b.Classes; c++ {
		masks := map[int][]bool{}
		for _, l := range b.Stages {
			m := make([]bool, b.Units[l])
			for n := range m {
				m[n] = b.At(l, n, c)
			}
			masks[l] = m
		}
		acc := f.sys.Eval.PerClassAccuracy(masks)
		if !DegradationOK(f.baseVal, acc, eps+1e-9, nil) {
			t.Fatalf("class %d column violates ε", c)
		}
	}
}

func TestOnlineBGuaranteeAndIntersection(t *testing.T) {
	f := getFixture(t)
	b, err := f.sys.BMatrices()
	if err != nil {
		t.Fatal(err)
	}
	eps := f.sys.Params.Epsilon
	small := []int{0, 3}
	big := []int{0, 1, 3, 5}
	mSmall, err := OnlineB(b, small)
	if err != nil {
		t.Fatal(err)
	}
	mBig, err := OnlineB(b, big)
	if err != nil {
		t.Fatal(err)
	}
	// ε guarantee holds for the intersection (paper §III-A).
	acc := f.sys.Eval.PerClassAccuracy(mSmall)
	if !DegradationOK(f.baseVal, acc, eps+1e-9, nil) {
		t.Fatal("OnlineB mask violates ε")
	}
	// Monotonicity: more classes → fewer pruned units (DESIGN.md inv. 4).
	for l, ms := range mSmall {
		mb := mBig[l]
		for n := range ms {
			if mb[n] && !ms[n] {
				t.Fatalf("stage %d unit %d pruned for K' ⊃ K but not for K", l, n)
			}
		}
	}
}

func TestOnlineBRejectsBadClasses(t *testing.T) {
	f := getFixture(t)
	b, _ := f.sys.BMatrices()
	if _, err := OnlineB(b, nil); err == nil {
		t.Fatal("empty K accepted")
	}
	if _, err := OnlineB(b, []int{99}); err == nil {
		t.Fatal("out-of-range class accepted")
	}
}

// --- CAP'NN-W ------------------------------------------------------------

func TestPruneWGuaranteeOnUserClasses(t *testing.T) {
	f := getFixture(t)
	prefs, _ := Weighted([]int{1, 4}, []float64{0.9, 0.1})
	masks, err := PruneW(f.sys.Eval, f.sys.Rates, prefs, f.sys.Params)
	if err != nil {
		t.Fatal(err)
	}
	acc := f.sys.Eval.PerClassAccuracy(masks)
	if !DegradationOK(f.baseVal, acc, f.sys.Params.Epsilon+1e-9, prefs.Classes) {
		t.Fatal("PruneW violates ε on user classes")
	}
	// Masks must exist for every prunable stage.
	for _, l := range f.sys.Params.Stages {
		if masks[l] == nil {
			t.Fatalf("no mask for stage %d", l)
		}
	}
}

func TestPruneWMoreAggressiveThanB(t *testing.T) {
	f := getFixture(t)
	b, err := f.sys.BMatrices()
	if err != nil {
		t.Fatal(err)
	}
	// Heavily skewed usage should let W prune at least as much as B's
	// intersection on the same classes (Fig. 3's argument).
	prefs, _ := Weighted([]int{0, 2}, []float64{0.95, 0.05})
	wMasks, err := PruneW(f.sys.Eval, f.sys.Rates, prefs, f.sys.Params)
	if err != nil {
		t.Fatal(err)
	}
	bMasks, err := OnlineB(b, prefs.Classes)
	if err != nil {
		t.Fatal(err)
	}
	countPruned := func(m map[int][]bool) int {
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
	if countPruned(wMasks) < countPruned(bMasks) {
		t.Fatalf("W pruned %d < B pruned %d under skewed usage",
			countPruned(wMasks), countPruned(bMasks))
	}
}

func TestPruneWValidatesInput(t *testing.T) {
	f := getFixture(t)
	bad := Preferences{Classes: []int{0}, Weights: []float64{2}}
	if _, err := PruneW(f.sys.Eval, f.sys.Rates, bad, f.sys.Params); err == nil {
		t.Fatal("invalid prefs accepted")
	}
	p := f.sys.Params
	p.Step = 0
	if _, err := PruneW(f.sys.Eval, f.sys.Rates, Uniform([]int{0, 1}), p); err == nil {
		t.Fatal("zero step accepted (would not terminate)")
	}
}

// Property (DESIGN.md inv. 3): at any shared threshold T, the set B can
// prune for every class of K is a subset of W's flag set under uniform
// weights, because min over K ≤ weighted mean.
func TestBFlagSubsetOfWFlagProperty(t *testing.T) {
	fcheck := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		units, classes := 1+rng.Intn(12), 2+rng.Intn(5)
		lr := &firing.LayerRates{Units: units, Classes: classes, F: make([]float64, units*classes)}
		for i := range lr.F {
			lr.F[i] = rng.Float64()
		}
		K := []int{0, classes - 1}
		prefs := Uniform(K)
		T := rng.Float64()
		for n := 0; n < units; n++ {
			bFlag := true
			for _, c := range K {
				if lr.At(n, c) >= T {
					bFlag = false
				}
			}
			wFlag := EffectiveRate(lr, prefs, n) <= T
			if bFlag && !wFlag {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fcheck, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// --- Figure 3 worked example ----------------------------------------------

// Figure 3 of the paper: three neurons, three classes, T = 0.1, usage
// weights {0.8, 0.1, 0.1}. Neuron n1 fires at 0.3 for class c2 so
// CAP'NN-B cannot prune it for the subset {c1,c2,c3}; its effective rate
// under the usage weights is below T so CAP'NN-W prunes it.
func TestFigure3Example(t *testing.T) {
	lr := &firing.LayerRates{Units: 3, Classes: 3, F: []float64{
		0.05, 0.30, 0.02, // n1: fires for c2 only
		0.02, 0.03, 0.01, // n2: near-dead everywhere
		0.50, 0.60, 0.40, // n3: active everywhere
	}}
	const T = 0.1
	prefs, _ := Weighted([]int{0, 1, 2}, []float64{0.8, 0.1, 0.1})

	// CAP'NN-B at threshold T: n1 not prunable for c2 (0.30 ≥ T).
	bPrunable := func(n int) bool {
		for c := 0; c < 3; c++ {
			if lr.At(n, c) >= T {
				return false
			}
		}
		return true
	}
	if bPrunable(0) {
		t.Fatal("B pruned n1 despite c2 firing rate above T")
	}
	if !bPrunable(1) {
		t.Fatal("B failed to prune the dead neuron n2")
	}
	if bPrunable(2) {
		t.Fatal("B pruned the active neuron n3")
	}

	// CAP'NN-W: n1's effective rate 0.8·0.05 + 0.1·0.30 + 0.1·0.02 =
	// 0.072 ≤ T → pruned; n3 stays.
	if got := EffectiveRate(lr, prefs, 0); math.Abs(got-0.072) > 1e-12 {
		t.Fatalf("n1 effective rate %v, want 0.072", got)
	}
	if EffectiveRate(lr, prefs, 0) > T {
		t.Fatal("W did not prune n1")
	}
	if EffectiveRate(lr, prefs, 2) <= T {
		t.Fatal("W pruned the active neuron n3")
	}
}
