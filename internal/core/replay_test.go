package core

import (
	"math/rand"
	"testing"

	"capnn/internal/parallel"
	"capnn/internal/train"
)

// TestReplaySubsetMatchesFullEvaluation is the soundness property of the
// cheap ε check: under random masks, a replay of a random class subset K
// — started at the split, advanced to any one stage, or advanced stage
// by stage — reports for every k ∈ K exactly the accuracy the full-set
// replay and the full-network net.Infer(x, masks) evaluation report, for
// every worker count.
func TestReplaySubsetMatchesFullEvaluation(t *testing.T) {
	f := getFixture(t)
	stages := f.net.Stages()
	defer parallel.SetDefault(0)

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		// Alternate between no cached prefix and a two-stage one.
		first := 2 * (trial % 2)
		ev, err := NewSuffixEvaluator(f.net, f.sets.Val, first)
		if err != nil {
			t.Fatal(err)
		}
		masks := map[int][]bool{}
		for _, l := range f.sys.Params.Stages {
			if l < first || rng.Intn(4) == 0 {
				continue // leave some stages unmasked
			}
			m := make([]bool, stages[l].Unit.Units())
			for n := range m {
				m[n] = rng.Intn(3) == 0
			}
			m[rng.Intn(len(m))] = false
			masks[l] = m
		}
		K := rng.Perm(ev.Classes())[:1+rng.Intn(ev.Classes())]
		oracle := train.Evaluate(f.net, masks, f.sets.Val).PerClass

		for _, w := range []int{1, 2, 4} {
			parallel.SetDefault(w)
			full := ev.PerClassAccuracy(masks)
			for c := range full {
				if full[c] != oracle[c] {
					t.Fatalf("trial %d workers %d: full replay class %d = %v, evaluation says %v", trial, w, c, full[c], oracle[c])
				}
			}
			check := func(how string, acc []float64) {
				t.Helper()
				for _, k := range K {
					if acc[k] != full[k] {
						t.Fatalf("trial %d workers %d K=%v %s: class %d = %v, want %v", trial, w, K, how, k, acc[k], full[k])
					}
				}
			}
			check("from the split", ev.newReplay(K).accuracy(masks))
			walk := ev.newReplay(K)
			for l := first; l < len(stages); l++ {
				jump := ev.newReplay(K)
				jump.advanceTo(l, masks)
				check("advanced to one stage", jump.accuracy(masks))
				walk.advanceTo(l, masks)
				check("advanced stage by stage", walk.accuracy(masks))
			}
		}
	}
}

// A stage before the evaluator's split is never replayed, so a mask there
// would pass every ε check unmeasured; the algorithms must refuse it.
func TestPruneRejectsStageBeforeSplit(t *testing.T) {
	f := getFixture(t)
	ev, err := NewSuffixEvaluator(f.net, f.sets.Val, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PruneW(ev, f.sys.Rates, Uniform([]int{0, 1}), f.sys.Params); err == nil {
		t.Fatal("PruneW searched a stage before the split")
	}
	if _, err := ComputeB(ev, f.sys.Rates, f.sys.Params); err == nil {
		t.Fatal("ComputeB searched a stage before the split")
	}
}

// The memoised baseline and confusion rows are constants of the model,
// and the search judges only the masks it builds: none of them may pick
// up the masks an earlier search judged.
func TestMemoisedConstantsIgnoreInstalledMasks(t *testing.T) {
	f := getFixture(t)
	want, err := NewConfusionProfile(f.net, f.sets.Profile).Matrix([]int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	mask := make([]bool, f.net.Stages()[2].Unit.Units())
	for n := range mask {
		mask[n] = n%2 == 0
	}
	// The shared evaluator judges a mask first; the constants measured
	// after it are the unpruned model's.
	f.sys.Eval.PerClassAccuracy(map[int][]bool{2: mask})
	got, err := NewConfusionProfile(f.net, f.sets.Profile).Matrix([]int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Rows {
		for c := range want.Rows[i] {
			if got.Rows[i][c] != want.Rows[i][c] {
				t.Fatalf("confusion row %d class %d = %v after a masked replay, want %v", i, c, got.Rows[i][c], want.Rows[i][c])
			}
		}
	}

	// A fresh evaluator finds the same masks as the shared, warmed one.
	ev, err := NewSuffixEvaluator(f.net, f.sets.Val, f.sys.Params.Stages[0])
	if err != nil {
		t.Fatal(err)
	}
	prefs := Uniform([]int{1, 4})
	a, err := PruneW(ev, f.sys.Rates, prefs, f.sys.Params)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PruneW(f.sys.Eval, f.sys.Rates, prefs, f.sys.Params)
	if err != nil {
		t.Fatal(err)
	}
	for l := range b {
		if !sameMask(a[l], b[l]) {
			t.Fatalf("stage %d: masks differ between a fresh and a warmed evaluator", l)
		}
	}
	for c, v := range ev.baseline() {
		if v != f.baseVal[c] {
			t.Fatalf("baseline class %d = %v, want unmasked %v", c, v, f.baseVal[c])
		}
	}
}
