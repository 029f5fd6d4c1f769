package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"capnn/internal/parallel"
	"capnn/internal/train"
)

// TestReplaySubsetMatchesFullEvaluation is the soundness property of the
// cheap ε check: under random masks, a replay of a random class subset K
// — started at the split, advanced to any one stage, or advanced stage
// by stage — reports for every k ∈ K exactly the accuracy the full-set
// replay and the full-network net.Infer(x, masks) evaluation report, for
// every worker count; and its early-stopping verdict equals
// DegradationOK over its full accuracies, for check K and nil and ε at,
// just above and just below a class's measured degradation.
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
		K := rng.Perm(ev.ds.Classes)[:1+rng.Intn(ev.ds.Classes)]
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
			verdict := func(how string, r *replay) {
				t.Helper()
				base, acc := ev.baseline(), r.accuracy(masks)
				c := K[trial%len(K)]
				d := base[c] - acc[c]
				for _, cls := range [][]int{K, nil} {
					for _, eps := range []float64{0, 0.999, d, math.Nextafter(d, 1), math.Nextafter(d, -1)} {
						want := DegradationOK(base, acc, eps, cls)
						if got := r.withinEps(masks, base, eps, cls); got != want {
							t.Fatalf("trial %d workers %d K=%v %s check=%v ε=%v: early verdict %v, full replay says %v", trial, w, K, how, cls, eps, got, want)
						}
					}
				}
			}
			split := ev.newReplay(K)
			check("from the split", split.accuracy(masks))
			verdict("from the split", split)
			walk := ev.newReplay(K)
			for l := first; l < len(stages); l++ {
				jump := ev.newReplay(K)
				jump.advanceTo(l, masks)
				check("advanced to one stage", jump.accuracy(masks))
				walk.advanceTo(l, masks)
				check("advanced stage by stage", walk.accuracy(masks))
				verdict("advanced stage by stage", walk)
			}
		}
	}
}

// A mask that keeps one unit of every stage wrecks every class, so the ε
// check rejects it with rows still left to replay: counted through the
// shard loop on one worker, where the schedule is fixed, it replays fewer
// rows than the replay holds. More workers may finish the shards already
// in flight, but reach the same verdict.
func TestReplayStopsOnceRejected(t *testing.T) {
	f := getFixture(t)
	defer parallel.SetDefault(0)
	ev, err := NewSuffixEvaluator(f.net, f.sets.Train, 0)
	if err != nil {
		t.Fatal(err)
	}
	masks := map[int][]bool{}
	for l, st := range f.net.Stages() {
		m := make([]bool, st.Unit.Units())
		for n := 1; n < len(m); n++ {
			m[n] = true
		}
		masks[l] = m
	}
	base, eps := ev.baseline(), f.sys.Params.Epsilon
	if DegradationOK(base, ev.PerClassAccuracy(masks), eps, nil) {
		t.Fatal("the full replay accepts a mask keeping one unit per stage")
	}
	for _, w := range []int{1, 2, 4} {
		parallel.SetDefault(w)
		r := ev.newReplay(nil)
		if r.withinEps(masks, base, eps, nil) {
			t.Fatalf("workers %d: the early verdict accepts what the full replay rejects", w)
		}
		if n := r.replayed.Load(); w == 1 && n >= int64(len(r.labels)) {
			t.Fatalf("rejected after replaying %d of %d rows, want fewer", n, len(r.labels))
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
	want, err := confusionMatrix(f.sys.Rates, []int{1, 4})
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
	got, err := confusionMatrix(f.sys.Rates, []int{1, 4})
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

// A system given rates runs no forward pass until a search names a
// class, and a search builds only the classes it names: W and M for
// K = {1, 4} push the rows of 1 and 4 through the prefix and nothing
// else. A later full evaluation builds the rest and reports what the
// whole-network evaluation does, and the lazily built system finds the
// shared, fully built one's masks.
func TestEvaluatorBuildsNamedClassesOnly(t *testing.T) {
	f := getFixture(t)
	sys, err := NewSystem(f.net, f.sets.Val, nil, f.sys.Rates, testParams())
	if err != nil {
		t.Fatal(err)
	}
	ev := sys.Eval
	if n := ev.built.Load(); n != 0 {
		t.Fatalf("NewSystem pushed %d rows through the prefix, want none", n)
	}
	prefs := Uniform([]int{1, 4})
	named := int64(ev.SampleCount(1) + ev.SampleCount(4))
	for _, v := range []Variant{VariantW, VariantM} {
		got, err := sys.Prune(v, prefs)
		if err != nil {
			t.Fatal(err)
		}
		if n := ev.built.Load(); n != named {
			t.Fatalf("%s for K=%v built %d rows, want the %d of classes 1 and 4", v, prefs.Classes, n, named)
		}
		want, err := f.sys.Prune(v, prefs)
		if err != nil {
			t.Fatal(err)
		}
		for l := range want {
			if !sameMask(got[l], want[l]) {
				t.Fatalf("%s stage %d: the lazily built system's mask differs from the shared one's", v, l)
			}
		}
	}
	// The classes built are 1 and 4: naming them again builds nothing,
	// naming 0 builds only 0.
	ev.newReplay([]int{4, 1})
	if n := ev.built.Load(); n != named {
		t.Fatalf("naming built classes again: %d rows built, want %d", n, named)
	}
	ev.newReplay([]int{0})
	if n, w := ev.built.Load(), named+int64(ev.SampleCount(0)); n != w {
		t.Fatalf("naming class 0: %d rows built, want %d", n, w)
	}

	acc := ev.PerClassAccuracy(nil)
	if n := ev.built.Load(); n != int64(f.sets.Val.Len()) {
		t.Fatalf("a full evaluation left %d of %d rows built", n, f.sets.Val.Len())
	}
	oracle := train.Evaluate(f.net, nil, f.sets.Val).PerClass
	for c := range oracle {
		if acc[c] != oracle[c] {
			t.Fatalf("class %d: %v after building on demand, evaluation says %v", c, acc[c], oracle[c])
		}
	}
	for c, v := range ev.baseline() {
		if v != oracle[c] {
			t.Fatalf("baseline class %d = %v, evaluation says %v", c, v, oracle[c])
		}
	}

	// Concurrent first searches over overlapping classes build each named
	// class once and find the serial masks.
	sys, err = NewSystem(f.net, f.sets.Val, nil, f.sys.Rates, testParams())
	if err != nil {
		t.Fatal(err)
	}
	prefSets := []Preferences{Uniform([]int{1, 4}), Uniform([]int{4, 2}), Uniform([]int{2, 1, 4})}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(p Preferences) {
			defer wg.Done()
			got, err := sys.Prune(VariantW, p)
			if err != nil {
				t.Error(err)
				return
			}
			want, err := f.sys.Prune(VariantW, p)
			if err != nil {
				t.Error(err)
				return
			}
			for l := range want {
				if !sameMask(got[l], want[l]) {
					t.Errorf("K=%v stage %d: a concurrent first search's mask differs from the serial one's", p.Classes, l)
				}
			}
		}(prefSets[g%len(prefSets)])
	}
	wg.Wait()
	if n, w := sys.Eval.built.Load(), int64(ev.SampleCount(1)+ev.SampleCount(2)+ev.SampleCount(4)); n != w {
		t.Fatalf("concurrent searches built %d rows, want the %d of classes 1, 2 and 4 once", n, w)
	}
}
