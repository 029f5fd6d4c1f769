package exp

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"capnn/internal/data"
	"capnn/internal/nn"
	"capnn/internal/train"
)

// tinyConfig is a miniature fixture exercising the full harness quickly:
// a real 13-conv VGG topology with minimal widths on 6 classes.
func tinyConfig() FixtureConfig {
	tc := train.DefaultConfig()
	tc.Optimizer = "adam"
	tc.LR = 0.002
	tc.Epochs = 6
	tc.LRDecayEvery = 0
	synth := data.DefaultSynthConfig(6)
	synth.NoiseStd = 1.0
	synth.GroupMix = 0.7
	return FixtureConfig{
		Name:  "test-tiny",
		Synth: synth,
		Sizes: data.SetSizes{TrainPerClass: 12, ValPerClass: 8, TestPerClass: 8, ProfilePerClass: 10},
		VGG: nn.VGGConfig{
			InC: 1, InH: 32, InW: 32,
			Widths:  []int{2, 2, 3, 3, 4, 4, 4, 4, 4, 4, 6, 6, 6},
			FC:      []int{12, 12},
			Classes: 6,
			Seed:    3,
		},
		Train:   tc,
		Epsilon: 0.15,
	}
}

// TestFixtureCacheIsCheckedIn fails when an edit to any struct inside
// FixtureConfig moves a cache key off the checked-in files, which would
// otherwise retrain the fixture silently on first use. It is the first
// test of the package, so it runs before anything can fill the cache.
func TestFixtureCacheIsCheckedIn(t *testing.T) {
	dir, err := fixtureDir()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []FixtureConfig{ImageNet20Config(), CIFAR10Config(), tinyConfig()} {
		for _, name := range []string{c.Name + "-" + c.modelHash() + ".model", c.Name + "-" + c.hash() + ".bmat"} {
			if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
				t.Errorf("%s: %v (a FixtureConfig edit changed its cache key; retrain, check the parameters are unchanged, and rename the checked-in file)", c.Name, err)
			}
		}
	}
}

var (
	tinyOnce sync.Once
	tinyFx   *Fixture
	tinyErr  error
)

func tinyFixture(t *testing.T) *Fixture {
	t.Helper()
	tinyOnce.Do(func() { tinyFx, tinyErr = Load(tinyConfig(), nil) })
	if tinyErr != nil {
		t.Fatalf("tiny fixture: %v", tinyErr)
	}
	return tinyFx
}

func TestPaperUsageDists(t *testing.T) {
	for k := 2; k <= 6; k++ {
		dists := PaperUsageDists(k)
		if len(dists) == 0 {
			t.Fatalf("no distributions for K=%d", k)
		}
		for _, d := range dists {
			if len(d.Weights) != k {
				t.Fatalf("K=%d dist %q has %d weights", k, d.Name, len(d.Weights))
			}
			sum := 0.0
			for _, w := range d.Weights {
				sum += w
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("K=%d dist %q sums to %v", k, d.Name, sum)
			}
		}
	}
	// K=2..5 sweep three shapes each (12 configurations overall).
	total := 0
	for k := 2; k <= 5; k++ {
		total += len(PaperUsageDists(k))
	}
	if total != 12 {
		t.Fatalf("comparison sweep has %d configurations, want 12", total)
	}
}

func TestDefaultTradeoffKs(t *testing.T) {
	ks := DefaultTradeoffKs(20)
	if ks[0] != 2 || ks[len(ks)-1] != 20 {
		t.Fatalf("Ks = %v", ks)
	}
	for i := 1; i < len(ks); i++ {
		if ks[i] <= ks[i-1] {
			t.Fatalf("Ks not strictly ascending: %v", ks)
		}
	}
	ks10 := DefaultTradeoffKs(10)
	if ks10[len(ks10)-1] != 10 {
		t.Fatalf("Ks(10) = %v", ks10)
	}
}

func TestSampleClassesDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		cs := sampleClasses(rng, 10, 5)
		seen := map[int]bool{}
		for _, c := range cs {
			if c < 0 || c >= 10 || seen[c] {
				t.Fatalf("bad sample %v", cs)
			}
			seen[c] = true
		}
	}
}

func TestFixtureLoadUsesCache(t *testing.T) {
	tinyFixture(t) // ensures the model is cached
	var log bytes.Buffer
	fx2, err := Load(tinyConfig(), &log)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "loaded cached model") {
		t.Fatalf("second Load retrained; log: %s", log.String())
	}
	// Cached model computes identically.
	fx1 := tinyFixture(t)
	x, _ := fx1.Sets.Test.Batch([]int{0, 1})
	a, b := fx1.Net.Forward(x), fx2.Net.Forward(x)
	for i, v := range a.Data() {
		if v != b.Data()[i] {
			t.Fatal("cached model differs from trained model")
		}
	}
}

func TestConfigHashDistinguishes(t *testing.T) {
	a, b := tinyConfig(), tinyConfig()
	b.Train.Epochs++
	if a.hash() == b.hash() {
		t.Fatal("different configs share a hash")
	}
	if a.hash() != tinyConfig().hash() {
		t.Fatal("equal configs hash differently")
	}
}

func TestFixtureByName(t *testing.T) {
	for _, c := range []struct {
		name string
		want FixtureConfig
		ok   bool
	}{
		{"imagenet20", ImageNet20Config(), true},
		{"cifar10", CIFAR10Config(), true},
		{"mnist", FixtureConfig{}, false},
	} {
		got, err := FixtureByName(c.name)
		if (err == nil) != c.ok {
			t.Fatalf("FixtureByName(%q) error = %v, want ok=%v", c.name, err, c.ok)
		}
		if err != nil {
			for _, valid := range []string{"imagenet20", "cifar10"} {
				if !strings.Contains(err.Error(), valid) {
					t.Fatalf("FixtureByName(%q) error %q does not name %s", c.name, err, valid)
				}
			}
			continue
		}
		if got.hash() != c.want.hash() {
			t.Fatalf("FixtureByName(%q) = %+v, want %+v", c.name, got, c.want)
		}
	}
}

func TestEnsureBCaches(t *testing.T) {
	fx := tinyFixture(t)
	b1, err := fx.EnsureB(nil)
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	fx2, err := Load(tinyConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := fx2.EnsureB(&log)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "loaded cached B matrices") {
		t.Fatal("B matrices recomputed despite cache")
	}
	for _, l := range b1.Stages {
		for i, v := range b1.P[l] {
			if b2.P[l][i] != v {
				t.Fatal("cached B matrices differ")
			}
		}
	}
}

func TestRunComparisonTiny(t *testing.T) {
	fx := tinyFixture(t)
	rows, err := RunComparison(fx, Scale{Combos: 1, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("%d rows, want 12", len(rows))
	}
	for _, r := range rows {
		for _, v := range []float64{r.RelSizeB, r.RelSizeW, r.RelSizeM} {
			if v <= 0 || v > 1 {
				t.Fatalf("relative size %v out of range in %+v", v, r)
			}
		}
		// W and M account for usage → at least as much pruning as B
		// (allow small slack for threshold-descent differences).
		if r.RelSizeW > r.RelSizeB+0.1 {
			t.Errorf("K=%d %s: W size %.3f far above B %.3f", r.K, r.Usage, r.RelSizeW, r.RelSizeB)
		}
		for _, a := range []float64{r.Top1Orig, r.Top1B, r.Top1W, r.Top1M} {
			if a < 0 || a > 1 {
				t.Fatalf("accuracy %v out of range", a)
			}
		}
	}
	var buf bytes.Buffer
	PrintFig4(&buf, rows, Scale{Combos: 1})
	PrintFig5(&buf, rows, Scale{Combos: 1})
	if !strings.Contains(buf.String(), "Figure 4") || !strings.Contains(buf.String(), "Figure 5") {
		t.Fatal("printers missing headers")
	}
}

func TestRunTradeoffTiny(t *testing.T) {
	fx := tinyFixture(t)
	rows, err := RunTradeoff(fx, Scale{Combos: 1, Seed: 1}, []int{2, 4, 6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// More classes → larger (more conservative) model, weakly monotone.
	if rows[2].RelSize+1e-9 < rows[0].RelSize-0.25 {
		t.Fatalf("K=6 size %.3f far below K=2 size %.3f", rows[2].RelSize, rows[0].RelSize)
	}
	var buf bytes.Buffer
	PrintFig6(&buf, rows, 6, Scale{Combos: 1})
	if !strings.Contains(buf.String(), "Figure 6") {
		t.Fatal("printer missing header")
	}
}

func TestRunEnergyTiny(t *testing.T) {
	fx := tinyFixture(t)
	rows, err := RunEnergy(fx, Scale{Combos: 1, Seed: 1}, []int{2, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.RelEnergy <= 0 || r.RelEnergy > 1 {
			t.Fatalf("relative energy %v out of range", r.RelEnergy)
		}
	}
	var buf bytes.Buffer
	PrintTable1(&buf, rows, Scale{Combos: 1})
	if !strings.Contains(buf.String(), "DRAM") {
		t.Fatal("printer missing component rows")
	}
}

func TestRunStackedTiny(t *testing.T) {
	fx := tinyFixture(t)
	rows, err := RunStacked(fx, Scale{Combos: 1, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 { // 2 baselines × K∈{2..5}
		t.Fatalf("%d rows, want 8", len(rows))
	}
	for _, r := range rows {
		if r.SizeWithout <= 0 || r.SizeWithout > 1 {
			t.Fatalf("baseline size %v out of range", r.SizeWithout)
		}
		if r.SizeWith > r.SizeWithout+1e-9 {
			t.Fatalf("stacking grew the model: %v vs %v", r.SizeWith, r.SizeWithout)
		}
	}
	var buf bytes.Buffer
	PrintTable2(&buf, rows, Scale{Combos: 1})
	if !strings.Contains(buf.String(), "Table II") {
		t.Fatal("printer missing header")
	}
}

func TestRunCaptorTiny(t *testing.T) {
	fx := tinyFixture(t)
	rows, err := RunCaptor(fx, Scale{Combos: 1, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("%d rows, want 10", len(rows))
	}
	for _, r := range rows {
		if r.CapnnRel <= 0 || r.CapnnRel > 1+1e-9 || r.CaptorRel <= 0 || r.CaptorRel > 1+1e-9 {
			t.Fatalf("energies out of range: %+v", r)
		}
	}
	// CAP'NN's advantage is most pronounced at small class fractions
	// (the paper's takeaway): at 10-20% CAP'NN should be at least as
	// frugal as CAPTOR.
	if rows[0].CapnnRel > rows[0].CaptorRel+0.05 {
		t.Errorf("at 10%% classes CAP'NN %.2f worse than CAPTOR %.2f", rows[0].CapnnRel, rows[0].CaptorRel)
	}
	var buf bytes.Buffer
	PrintTable3(&buf, rows, Scale{Combos: 1})
	if !strings.Contains(buf.String(), "CAPTOR") {
		t.Fatal("printer missing rows")
	}
}

func TestRunMemoryTiny(t *testing.T) {
	fx := tinyFixture(t)
	rep, err := RunMemory(fx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bits != 3 || len(rep.PerLayer) != 5 {
		t.Fatalf("report %+v", rep)
	}
	if rep.Overhead.RateBytes <= 0 || rep.Overhead.Ratio <= 0 {
		t.Fatalf("overhead %+v", rep.Overhead)
	}
	var buf bytes.Buffer
	PrintMemory(&buf, rep)
	if !strings.Contains(buf.String(), "overhead") {
		t.Fatal("printer missing summary")
	}
}

// Claim 8 on the real fixture: the §V-C byte counts the memory table and
// the checklist print.
func TestRunMemoryImageNet20(t *testing.T) {
	fx, err := Load(ImageNet20Config(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunMemory(fx)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for _, r := range rep.PerLayer {
		got = append(got, r.Stage, r.Bytes)
	}
	if want := []int{10, 240, 11, 240, 12, 240, 13, 960, 14, 960}; !slices.Equal(got, want) {
		t.Fatalf("stage, bytes = %v, want %v", got, want)
	}
	if rep.Overhead.RateBytes != 2640 || rep.Overhead.ModelBytes != 114792 {
		t.Fatalf("overhead %+v, want 2640 rate bytes against 114792 bytes of 16-bit weights", rep.Overhead)
	}
}

func TestMain(m *testing.M) {
	code := m.Run()
	// Tiny-fixture cache files are deliberately kept: they make repeat
	// test runs fast. Nothing else to clean up.
	os.Exit(code)
}

func TestRunEpsilonAblationTiny(t *testing.T) {
	fx := tinyFixture(t)
	rows, err := RunEpsilonAblation(fx, Scale{Combos: 1, Seed: 1}, []float64{0.05, 0.3}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	// ε→size is NOT strictly monotone: a looser ε commits larger
	// early-stage prune sets, which can consume later stages' budget
	// (greedy layer-by-layer commitment). Allow generous slack; what must
	// hold is that both land in a sane pruning range.
	if rows[1].RelSize > rows[0].RelSize+0.15 {
		t.Fatalf("looser ε gave drastically bigger model: %.3f vs %.3f", rows[1].RelSize, rows[0].RelSize)
	}
	var buf bytes.Buffer
	PrintEpsilonAblation(&buf, rows, 2, Scale{Combos: 1})
	if !strings.Contains(buf.String(), "epsilon") {
		t.Fatal("printer missing header")
	}
}

func TestRunQuantAblationTiny(t *testing.T) {
	fx := tinyFixture(t)
	rows, err := RunQuantAblation(fx, Scale{Combos: 1, Seed: 1}, []int{1, 3, 8}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.MaskAgreement < 0 || r.MaskAgreement > 1 {
			t.Fatalf("agreement %v out of range", r.MaskAgreement)
		}
	}
	// 8-bit codes should agree with full precision at least as well as
	// 1-bit codes.
	if rows[2].MaskAgreement+1e-9 < rows[0].MaskAgreement-0.2 {
		t.Fatalf("8-bit agreement %.2f far below 1-bit %.2f", rows[2].MaskAgreement, rows[0].MaskAgreement)
	}
	var buf bytes.Buffer
	PrintQuantAblation(&buf, rows, 2)
	if !strings.Contains(buf.String(), "bits") {
		t.Fatal("printer missing header")
	}
}

// TestCheckClaimsTiny judges the claims on the tiny fixture's own
// runner rows, without Table III.
func TestCheckClaimsTiny(t *testing.T) {
	fx := tinyFixture(t)
	scale := Scale{Combos: 1, Seed: 1}
	res := Results{Epsilon: fx.Sys.Params.Epsilon}
	var err error
	check := func() {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	res.Fig4, err = RunComparison(fx, scale, nil)
	check()
	res.Fig6, err = RunTradeoff(fx, scale, []int{2, fx.Config.Synth.Classes}, nil)
	check()
	res.Table1, err = RunEnergy(fx, scale, []int{2, 5}, nil)
	check()
	res.Table2, err = RunStacked(fx, scale, nil)
	check()
	res.Memory, err = RunMemory(fx)
	check()
	claims := CheckClaims(res)
	if len(claims) != 8 {
		t.Fatalf("%d claims, want 8", len(claims))
	}
	// Claim 1 (the ε guarantee) must always hold — it is the algorithm's
	// invariant, independent of model scale.
	if !claims[0].Pass {
		t.Fatalf("ε-guarantee claim failed: %s", claims[0].Detail)
	}
	if claims[6].status() != "SKIP" {
		t.Fatalf("claim 7 should be skipped without Table III: %+v", claims[6])
	}
	var buf bytes.Buffer
	PrintClaims(&buf, claims)
	if !strings.Contains(buf.String(), "claim 1") || !strings.Contains(buf.String(), "[SKIP] claim 7") {
		t.Fatalf("printer output wrong:\n%s", buf.String())
	}
}

// passingResults are hand-built rows on which every claim passes.
func passingResults() Results {
	var r Results
	r.Epsilon = 0.12
	for k := 2; k <= 5; k++ {
		for range PaperUsageDists(k) {
			r.Fig4 = append(r.Fig4, ComparisonRow{K: k, RelSizeB: 0.95, RelSizeW: 0.5, RelSizeM: 0.45,
				Top1Orig: 0.8, Top1M: 0.9, Top5Orig: 0.99, Top5M: 1, ValDrop: 0.05})
		}
	}
	r.Fig6 = []TradeoffRow{{K: 2, RelSize: 0.45}, {K: 10, RelSize: 0.6}, {K: 20, RelSize: 0.75}}
	r.Table1 = []EnergyRow{{K: 2, RelEnergy: 0.6}, {K: 10, RelEnergy: 0.8}}
	r.Table2 = []StackedRow{{K: 2, SizeWithout: 0.9, SizeWith: 0.3}, {K: 5, SizeWithout: 0.86, SizeWith: 0.5}}
	r.Table3 = []CaptorRow{{Percent: 10, CapnnRel: 0.58, CaptorRel: 0.85}, {Percent: 100, CapnnRel: 0.79, CaptorRel: 0.91}}
	r.Memory.Overhead.Ratio = 0.023
	return r
}

// TestCheckClaimsVerdicts flips each claim's verdict with one edit to
// otherwise passing rows and checks that no other verdict moves.
func TestCheckClaimsVerdicts(t *testing.T) {
	for _, tc := range []struct {
		name   string
		edit   func(*Results)
		id     int
		status string
	}{
		{"all pass", func(*Results) {}, 1, "PASS"},
		// One of a cell's two combinations over ε, the cell's mean drop
		// still under it, every other cell clean.
		{"one combination over ε", func(r *Results) { r.Fig4[7].OverEpsilon, r.Fig4[7].ValDrop = 0.5, 0.09 }, 1, "FAIL"},
		{"M no smaller than B", func(r *Results) {
			for i := range r.Fig4 {
				r.Fig4[i].RelSizeM = 0.92
			}
		}, 2, "FAIL"},
		{"M below the unpruned model at K=2", func(r *Results) {
			for i := range r.Fig4[:3] {
				r.Fig4[i].Top1M = 0.79
			}
		}, 3, "FAIL"},
		{"size flat as K → C", func(r *Results) { r.Fig6[2].RelSize = 0.5 }, 4, "FAIL"},
		{"no energy saving at small K", func(r *Results) { r.Table1[0].RelEnergy = 0.9 }, 5, "FAIL"},
		{"energy falls as K grows", func(r *Results) { r.Table1[0].RelEnergy = 0.86 }, 5, "FAIL"},
		{"a stacked cell does not shrink", func(r *Results) { r.Table2[1].SizeWith = 0.86 }, 6, "FAIL"},
		{"CAPTOR cheaper at 10%", func(r *Results) { r.Table3[0].CapnnRel = 0.91 }, 7, "FAIL"},
		{"no Table III", func(r *Results) { r.Table3 = nil }, 7, "SKIP"},
		{"rates as large as the model", func(r *Results) { r.Memory.Overhead.Ratio = 0.15 }, 8, "FAIL"},
	} {
		r := passingResults()
		tc.edit(&r)
		claims := CheckClaims(r)
		if len(claims) != 8 {
			t.Fatalf("%s: %d claims, want 8", tc.name, len(claims))
		}
		for i, c := range claims {
			want := "PASS"
			if c.ID == tc.id {
				want = tc.status
			}
			if c.ID != i+1 || c.status() != want {
				t.Errorf("%s: claim %d (at %d) reads %s, want %s: %s", tc.name, c.ID, i, c.status(), want, c.Detail)
			}
		}
	}
}

func TestRunLstartAblationTiny(t *testing.T) {
	fx := tinyFixture(t)
	rows, err := RunLstartAblation(fx, Scale{Combos: 1, Seed: 1}, []int{2, 5, 99}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// The 99 request is clamped to numUnitLayers-1 = 15.
	if rows[2].PrunableStages != 15 {
		t.Fatalf("clamp failed: %d", rows[2].PrunableStages)
	}
	// A wider prunable window can only shrink (or tie) the model; allow
	// slack for threshold-descent interactions.
	if rows[1].RelSize > rows[0].RelSize+0.05 {
		t.Fatalf("5 stages gave bigger model than 2: %.3f vs %.3f", rows[1].RelSize, rows[0].RelSize)
	}
	var buf bytes.Buffer
	PrintLstartAblation(&buf, rows, 2, Scale{Combos: 1})
	if !strings.Contains(buf.String(), "prunable stages") {
		t.Fatal("printer missing header")
	}
	if _, err := RunLstartAblation(fx, Scale{Combos: 1, Seed: 1}, []int{0}, 2, nil); err == nil {
		t.Fatal("stage count 0 accepted")
	}
}
