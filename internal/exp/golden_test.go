package exp

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"capnn/internal/core"
	"capnn/internal/workload"
)

// maskHash is FNV-1a over the stage indices (ascending) and every mask
// bit, so two mask sets hash equal only when they prune the same units.
func maskHash(masks map[int][]bool) string {
	stages := make([]int, 0, len(masks))
	for l := range masks {
		stages = append(stages, l)
	}
	sort.Ints(stages)
	var sb strings.Builder
	for _, l := range stages {
		fmt.Fprintf(&sb, "%d:", l)
		for _, p := range masks[l] {
			if p {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
		sb.WriteByte(';')
	}
	return fnv(sb.String())
}

// goldenMasks is one recorded personalisation: the preferences as
// prefsLabel prints them, and maskHash of Prune(VariantW) and
// Prune(VariantM).
type goldenMasks struct{ prefs, w, m string }

func prefsLabel(p core.Preferences) string {
	return fmt.Sprintf("%v %.4f", p.Classes, p.Weights)
}

// benchmarkPrefs are the preferences the serving benchmark personalises
// for on the cifar10 fixture: the distinct keys of its hot population's
// first 8000 events, then its three newUsers sets.
func benchmarkPrefs(t *testing.T, fx *Fixture) []core.Preferences {
	t.Helper()
	model, err := workload.NewModel(workload.Config{
		Users: 8, Classes: fx.Config.Synth.Classes, Groups: fx.Config.Synth.ClassGroups(),
		ZipfS: 1.2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []core.Preferences
	seen := map[string]bool{}
	for i := uint64(0); i < 8000; i++ {
		p := model.At(i).Prefs
		if k := p.Key(); !seen[k] {
			seen[k] = true
			out = append(out, p)
		}
	}
	return append(out,
		core.Preferences{Classes: []int{0, 3}, Weights: []float64{0.62, 0.38}},
		core.Preferences{Classes: []int{5, 7, 8}, Weights: []float64{0.5, 0.3, 0.2}},
		core.Preferences{Classes: []int{1, 2, 3, 4}, Weights: []float64{0.4, 0.3, 0.2, 0.1}},
	)
}

// The hashes below were recorded at the commit before the suffix
// evaluator learned to replay only the user's classes and only the
// undecided layers: any change to them means personalisation now
// returns different masks, which no evaluator optimisation may do.
var (
	goldenCIFAR10 = []goldenMasks{
		{"[6 7] [0.3033 0.6967]", "57152a63d7513d44", "1bb2b93256c2449b"},
		{"[0 2 4] [0.5872 0.1571 0.2556]", "1bb0b98ccb0ac6fc", "e3840c5ec46d718c"},
		{"[0 1 2 3] [0.2300 0.5285 0.1001 0.1414]", "95bd5caa19a19100", "63a87b3b0c5459e0"},
		{"[1 4] [0.6967 0.3033]", "8f092f13d69c691d", "4d3e7561d612d2a6"},
		{"[0 2 3 4] [0.5285 0.1001 0.2300 0.1414]", "592210b2d41cfc61", "b7bd70ea802dc85a"},
		{"[6 7 9] [0.5872 0.2556 0.1571]", "45e4c2811d0d9dc6", "0ac98018bcc4cb8e"},
		{"[6 7 8] [0.2556 0.1571 0.5872]", "d9707ce0e6078c9f", "b2f12448ecad57a8"},
		{"[0 3] [0.6200 0.3800]", "a5041ffb8cd5774f", "4d845a78e22bb910"},
		{"[5 7 8] [0.5000 0.3000 0.2000]", "29e410d5cf205ace", "e345eb548691505c"},
		{"[1 2 3 4] [0.4000 0.3000 0.2000 0.1000]", "8c8330dcdc62f82f", "0c10ebab2ead066d"},
	}
	imageNet20Prefs = []core.Preferences{
		core.Uniform([]int{0, 3, 7, 11}),
		{Classes: []int{2, 5, 9}, Weights: []float64{0.6, 0.3, 0.1}},
	}
	goldenImageNet20 = []goldenMasks{
		{"[0 3 7 11] [0.2500 0.2500 0.2500 0.2500]", "2bec7e86e812dd54", "1fa3acbdfffde6bd"},
		{"[2 5 9] [0.6000 0.3000 0.1000]", "669fa195f8125939", "4ab7378168f832c3"},
	}
)

func checkGoldenMasks(t *testing.T, fx *Fixture, prefs []core.Preferences, golden []goldenMasks) {
	t.Helper()
	if len(prefs) != len(golden) {
		t.Fatalf("%s: %d preferences but %d golden rows", fx.Config.Name, len(prefs), len(golden))
	}
	if _, err := fx.EnsureB(nil); err != nil {
		t.Fatal(err)
	}
	for i, p := range prefs {
		name, g := prefsLabel(p), golden[i]
		if name != g.prefs {
			t.Fatalf("%s: preference %d is %s, golden row is for %s", fx.Config.Name, i, name, g.prefs)
		}
		w, err := fx.Sys.Prune(core.VariantW, p)
		if err != nil {
			t.Fatalf("%s: W: %v", name, err)
		}
		m, err := fx.Sys.Prune(core.VariantM, p)
		if err != nil {
			t.Fatalf("%s: M: %v", name, err)
		}
		if gw, gm := maskHash(w), maskHash(m); gw != g.w || gm != g.m {
			t.Errorf("%s: masks changed: W %s (golden %s), M %s (golden %s)", name, gw, g.w, gm, g.m)
		}
		// DESIGN invariant 3: with equal weights W flags a superset of
		// B's online intersection for the same classes.
		b, err := fx.Sys.Prune(core.VariantB, p)
		if err != nil {
			t.Fatalf("%s: B: %v", name, err)
		}
		u, err := fx.Sys.Prune(core.VariantW, core.Uniform(p.Classes))
		if err != nil {
			t.Fatalf("%s: uniform W: %v", name, err)
		}
		for l, mask := range b {
			for n, pruned := range mask {
				if pruned && !u[l][n] {
					t.Errorf("%s: stage %d unit %d pruned by B but not by uniform W", name, l, n)
				}
			}
		}
	}
}

// TestPruneMasksGolden pins "same masks" as a tier-1 fact: the W and M
// masks for the benchmark's preferences on the cifar10 fixture and for
// two preferences on imagenet20 must hash to the recorded values, and
// Algorithm 1 recomputed on cifar10 must equal the checked-in .bmat.
func TestPruneMasksGolden(t *testing.T) {
	c10, err := Load(CIFAR10Config(), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkGoldenMasks(t, c10, benchmarkPrefs(t, c10), goldenCIFAR10)

	in20, err := Load(ImageNet20Config(), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkGoldenMasks(t, in20, imageNet20Prefs, goldenImageNet20)

	if testing.Short() {
		t.Skip("skipping the Algorithm 1 recomputation on cifar10")
	}
	cached, err := c10.EnsureB(nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := core.ComputeB(c10.Sys.Eval, c10.Sys.Rates, c10.Sys.Params)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.P, cached.P) {
		t.Error("recomputed B matrices differ from the checked-in ones")
	}
}
