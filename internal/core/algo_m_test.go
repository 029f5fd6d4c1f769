package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"testing"

	"capnn/internal/firing"
	"capnn/internal/nn"
	"capnn/internal/parallel"
	"capnn/internal/tensor"
)

// The confusion rows come from the top-1 counts of the profiling pass.
// Built from firing.Compute's counts on any worker count, they — and the
// guard's off-preference share read from them — equal to the bit a
// per-class measurement pushing each class's profiling images through
// the unpruned network and adding 1/n per image; the counts survive the
// packed cloud format, and a system refuses rates without them.
func TestConfusionFromProfilingPass(t *testing.T) {
	f := getFixture(t)
	defer parallel.SetDefault(0)
	byClass := f.sets.Profile.ByClass()
	want := make([][]float64, len(byClass))
	for k, idx := range byClass {
		x, _ := f.sets.Profile.Batch(idx)
		logits := f.net.Infer(x, nil)
		c := logits.Dim(1)
		want[k] = make([]float64, f.sets.Profile.Classes)
		for s := range idx {
			want[k][tensor.Argmax(logits.Data()[s*c:(s+1)*c])] += 1.0 / float64(len(idx))
		}
	}
	refShare := func(p Preferences) (share, n float64) {
		for i, k := range p.Classes {
			off := 1.0
			for _, c := range p.Classes {
				off -= want[k][c]
			}
			w := p.Weights[i]
			share += w * off
			n += w * w / float64(len(byClass[k]))
		}
		return math.Max(share, 0), 1 / n
	}
	prefsSet := []Preferences{Uniform([]int{1, 4}), {Classes: []int{0, 4}, Weights: []float64{0.75, 0.25}},
		{Classes: []int{5, 2, 3}, Weights: []float64{0.5, 0.3, 0.2}}}
	check := func(how string, rates *firing.Rates) {
		t.Helper()
		cm, err := confusionMatrix(rates, []int{0, 1, 2, 3, 4, 5})
		if err != nil {
			t.Fatal(err)
		}
		for k, row := range cm.Rows {
			for c, v := range row {
				if v != want[k][c] {
					t.Fatalf("%s: row %d class %d = %v, measured %v", how, k, c, v, want[k][c])
				}
			}
		}
		sys, err := NewSystem(f.net, f.sets.Val, nil, rates, testParams())
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range prefsSet {
			share, n, err := sys.OffPreferenceShare(p)
			if err != nil {
				t.Fatal(err)
			}
			if ws, wn := refShare(p); share != ws || n != wn {
				t.Fatalf("%s %v: off-preference share %v of %v images, measured %v of %v", how, p.Classes, share, n, ws, wn)
			}
		}
	}
	for _, w := range []int{1, 2, 4} {
		rates, err := firing.ComputeWorkers(f.net, f.sets.Profile, f.sys.Params.Stages, w)
		if err != nil {
			t.Fatal(err)
		}
		check("computed", rates)
		if w != 1 {
			continue
		}
		packed, err := firing.Pack(rates, 3)
		if err != nil {
			t.Fatal(err)
		}
		var wire bytes.Buffer
		if err := gob.NewEncoder(&wire).Encode(packed); err != nil {
			t.Fatal(err)
		}
		loaded, err := firing.LoadPacked(&wire)
		if err != nil {
			t.Fatal(err)
		}
		shipped, err := loaded.Unpack()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(shipped.Confusion, rates.Confusion) {
			t.Fatalf("counts %v after the packed round trip, want %v", shipped.Confusion, rates.Confusion)
		}
		check("packed and unpacked", shipped)
	}

	missing := f.sys.Rates.Clone()
	missing.Confusion = nil
	narrow := f.sys.Rates.Clone()
	narrow.Confusion[3] = narrow.Confusion[3][:2]
	for _, bad := range []*firing.Rates{missing, narrow} {
		if _, err := NewSystem(f.net, f.sets.Val, nil, bad, testParams()); err == nil {
			t.Fatalf("NewSystem accepted confusion counts %v", bad.Confusion)
		}
	}
}

func TestConfusionMatrixRowsSumToOne(t *testing.T) {
	f := getFixture(t)
	K := []int{0, 1, 5}
	cm, err := confusionMatrix(f.sys.Rates, K)
	if err != nil {
		t.Fatal(err)
	}
	if len(cm.Rows) != 3 {
		t.Fatalf("confusion has %d rows, want 3", len(cm.Rows))
	}
	for i, row := range cm.Rows {
		if len(row) != 6 {
			t.Fatalf("confusion row %d has %d columns, want 6", i, len(row))
		}
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
	cm, err := confusionMatrix(f.sys.Rates, prefs.Classes)
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
	cm, err := confusionMatrix(f.sys.Rates, []int{2})
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
	cm, err := confusionMatrix(f.sys.Rates, []int{0})
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
	if _, err := confusionMatrix(f.sys.Rates, nil); err == nil {
		t.Fatal("empty K accepted")
	}
	if _, err := confusionMatrix(f.sys.Rates, []int{77}); err == nil {
		t.Fatal("out-of-range class accepted")
	}
}

func TestPruneMGuaranteeAndReport(t *testing.T) {
	f := getFixture(t)
	prefs, _ := Weighted([]int{0, 4}, []float64{0.7, 0.3})
	rep, err := PruneM(f.sys.Eval, f.sys.Rates, prefs, f.sys.Params)
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
	if _, err := PruneM(f.sys.Eval, f.sys.Rates, prefs, f.sys.Params); err != nil {
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
	rep, err := PruneM(f.sys.Eval, f.sys.Rates, prefs, f.sys.Params)
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
	cm, err := confusionMatrix(f.sys.Rates, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	conf, _ := cm.TopConfusing(0, TopConfusingCount)

	// Make neuron 7 a textbook miseffectual neuron for class 0: large
	// positive weight toward a confusing class, negative toward 0.
	w0, wC := &W.Data()[7], &W.Data()[conf[0]*W.Dim(1)+7] // W[0][7], W[conf[0]][7]
	saved0, savedC := *w0, *wC
	*w0, *wC = -0.5, 0.9
	defer func() { *w0, *wC = saved0, savedC }()

	prefs := Uniform([]int{0, 3})
	rep, err := PruneM(f.sys.Eval, f.sys.Rates, prefs, f.sys.Params)
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
