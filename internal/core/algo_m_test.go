package core

import (
	"math"
	"testing"

	"capnn/internal/nn"
)

func TestConfusionMatrixRowsSumToOne(t *testing.T) {
	f := getFixture(t)
	K := []int{0, 1, 5}
	cm, err := NewConfusionProfile(f.net, f.sets.Profile).Matrix(K)
	if err != nil {
		t.Fatal(err)
	}
	if len(cm.Rows) != 3 || cm.Classes != 6 {
		t.Fatalf("confusion shape %dx%d", len(cm.Rows), cm.Classes)
	}
	for i, row := range cm.Rows {
		sum := 0.0
		for _, v := range row {
			if v < 0 || v > 1 {
				t.Fatalf("entry %v outside [0,1]", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

// OffPreferenceShare is the confusion rows read the serving guard's way:
// the claimed-weight mix of each row's mass outside K, backed by the
// profile images of K's classes.
func TestOffPreferenceShare(t *testing.T) {
	f := getFixture(t)
	prefs := Preferences{Classes: []int{0, 4}, Weights: []float64{0.75, 0.25}}
	cm, err := NewConfusionProfile(f.net, f.sets.Profile).Matrix(prefs.Classes)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.75*(1-cm.Rows[0][0]-cm.Rows[0][4]) + 0.25*(1-cm.Rows[1][0]-cm.Rows[1][4])
	share, n, err := f.sys.OffPreferenceShare(prefs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(share-want) > 1e-12 {
		t.Fatalf("share %v, want %v from the rows", share, want)
	}
	// 15 profile images per class: 1/(0.75²/15 + 0.25²/15) = 24.
	if math.Abs(n-24) > 1e-9 {
		t.Fatalf("effective profile n %v, want 24", n)
	}
	if _, n, _ := f.sys.OffPreferenceShare(Uniform([]int{1, 2, 3})); math.Abs(n-45) > 1e-9 {
		t.Fatalf("uniform over 3 classes: n %v, want all 45 images", n)
	}
	all, _, err := f.sys.OffPreferenceShare(Uniform([]int{0, 1, 2, 3, 4, 5}))
	if err != nil || all < 0 || all > 1e-12 {
		t.Fatalf("every class preferred: share %v err %v, want 0", all, err)
	}
	if _, _, err := f.sys.OffPreferenceShare(Uniform([]int{0, 77})); err == nil {
		t.Fatal("out-of-range class accepted")
	}
}

func TestTopConfusingExcludesSelf(t *testing.T) {
	f := getFixture(t)
	cm, err := NewConfusionProfile(f.net, f.sets.Profile).Matrix([]int{2})
	if err != nil {
		t.Fatal(err)
	}
	top, err := cm.TopConfusing(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 5 {
		t.Fatalf("got %d confusing classes, want 5", len(top))
	}
	for _, c := range top {
		if c == 2 {
			t.Fatal("class confused with itself")
		}
	}
	if _, err := cm.TopConfusing(4, 5); err == nil {
		t.Fatal("class outside matrix accepted")
	}
}

func TestConfusionReflectsGroupStructure(t *testing.T) {
	// Classes 0-2 share group 0, classes 3-5 share group 1 (fixture uses
	// 2 groups over 6 classes). The most confusing class of class 0
	// should come from its own group far more often than not; check the
	// top-2 include at least one same-group class.
	f := getFixture(t)
	cm, err := NewConfusionProfile(f.net, f.sets.Profile).Matrix([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	top, _ := cm.TopConfusing(0, 2)
	found := false
	for _, c := range top {
		if c == 1 || c == 2 {
			found = true
		}
	}
	if !found {
		t.Logf("top confusing of class 0: %v (no same-group class in top-2; structure weaker than expected)", top)
	}
}

func TestComputeConfusionErrors(t *testing.T) {
	f := getFixture(t)
	if _, err := NewConfusionProfile(f.net, f.sets.Profile).Matrix(nil); err == nil {
		t.Fatal("empty K accepted")
	}
	if _, err := NewConfusionProfile(f.net, f.sets.Profile).Matrix([]int{77}); err == nil {
		t.Fatal("out-of-range class accepted")
	}
}

func TestPruneMGuaranteeAndReport(t *testing.T) {
	f := getFixture(t)
	prefs, _ := Weighted([]int{0, 4}, []float64{0.7, 0.3})
	rep, err := PruneM(f.sys.Eval, f.sys.Rates, prefs, f.sys.Params, f.sys.confusion)
	if err != nil {
		t.Fatal(err)
	}
	acc := f.sys.Eval.PerClassAccuracy(rep.Masks)
	if !DegradationOK(f.baseVal, acc, f.sys.Params.Epsilon+1e-9, prefs.Classes) {
		t.Fatal("PruneM violates ε on user classes")
	}
	for _, k := range prefs.Classes {
		if len(rep.Confusing[k]) != TopConfusingCount {
			t.Fatalf("class %d has %d confusing classes", k, len(rep.Confusing[k]))
		}
	}
}

func TestPruneMDoesNotMutateSharedRates(t *testing.T) {
	f := getFixture(t)
	lastHidden := f.sys.Params.Stages[len(f.sys.Params.Stages)-1]
	before := append([]float64(nil), f.sys.Rates.Layers[lastHidden].F...)
	prefs := Uniform([]int{1, 2})
	if _, err := PruneM(f.sys.Eval, f.sys.Rates, prefs, f.sys.Params, f.sys.confusion); err != nil {
		t.Fatal(err)
	}
	after := f.sys.Rates.Layers[lastHidden].F
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("PruneM mutated the shared firing rates")
		}
	}
}

func TestPruneMAtLeastAsAggressiveAsW(t *testing.T) {
	f := getFixture(t)
	prefs, _ := Weighted([]int{3, 5}, []float64{0.8, 0.2})
	wMasks, err := PruneW(f.sys.Eval, f.sys.Rates, prefs, f.sys.Params)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := PruneM(f.sys.Eval, f.sys.Rates, prefs, f.sys.Params, f.sys.confusion)
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
	// M zeroes rate entries, which can only shrink effective rates, so
	// its candidate sets are supersets of W's at any threshold. The
	// accepted sets can differ when ε intervenes, but in the common case
	// M prunes at least as many units; tolerate a small deficit caused by
	// threshold descent, flag anything larger.
	w, m := countPruned(wMasks), countPruned(rep.Masks)
	if m+3 < w {
		t.Fatalf("M pruned %d, far below W's %d", m, w)
	}
}

// A hand-built network where one last-hidden neuron strongly supports a
// confusing class: PruneM must identify it as miseffectual.
func TestMiseffectualIdentification(t *testing.T) {
	f := getFixture(t)
	stages := f.net.Stages()
	out := stages[len(stages)-1].Unit.(*nn.Dense)
	W := out.Weights()

	// Determine class 0's top confusing classes on the real model.
	cm, err := NewConfusionProfile(f.net, f.sets.Profile).Matrix([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	conf, _ := cm.TopConfusing(0, TopConfusingCount)

	// Make neuron 7 a textbook miseffectual neuron for class 0: large
	// positive weight toward a confusing class, negative toward 0.
	saved0, savedC := W.At(0, 7), W.At(conf[0], 7)
	W.Set(-0.5, 0, 7)
	W.Set(0.9, conf[0], 7)
	defer func() {
		W.Set(saved0, 0, 7)
		W.Set(savedC, conf[0], 7)
	}()

	prefs := Uniform([]int{0, 3})
	rep, err := PruneM(f.sys.Eval, f.sys.Rates, prefs, f.sys.Params, f.sys.confusion)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range rep.Miseffectual[0] {
		if n == 7 {
			found = true
		}
	}
	if !found {
		t.Fatalf("neuron 7 not flagged miseffectual for class 0 (flagged: %v)", rep.Miseffectual[0])
	}
}

func TestMeasureReportsConsistentResult(t *testing.T) {
	f := getFixture(t)
	prefs := Uniform([]int{1, 2, 4})
	res, err := f.sys.Personalize(VariantW, prefs, f.sets.Test)
	if err != nil {
		t.Fatal(err)
	}
	if res.RelativeSize <= 0 || res.RelativeSize > 1 {
		t.Fatalf("relative size %v outside (0,1]", res.RelativeSize)
	}
	if res.PrunedUnits > res.TotalUnits {
		t.Fatalf("pruned %d > total %d", res.PrunedUnits, res.TotalUnits)
	}
	if res.Top1 < 0 || res.Top1 > 1 || res.Top5 < res.Top1 {
		t.Fatalf("accuracies inconsistent: %+v", res)
	}
}

func TestSystemPruneVariants(t *testing.T) {
	f := getFixture(t)
	prefs := Uniform([]int{0, 5})
	for _, v := range []Variant{VariantB, VariantW, VariantM} {
		masks, err := f.sys.Prune(v, prefs)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if len(masks) != len(f.sys.Params.Stages) {
			t.Fatalf("%s returned %d masks", v, len(masks))
		}
	}
	if _, err := f.sys.Prune(Variant("nope"), prefs); err == nil {
		t.Fatal("unknown variant accepted")
	}
	if _, err := f.sys.Prune(VariantB, Preferences{}); err == nil {
		t.Fatal("invalid prefs accepted")
	}
}
