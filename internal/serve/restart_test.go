package serve

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"capnn/internal/core"
	"capnn/internal/nn"
)

// A restarted server refills cold and identically (DESIGN invariant 14):
// masks are a pure function of (model, variant, preferences), so a fresh
// server over a freshly loaded and profiled copy of the same model
// personalizes each key exactly once, ends up holding the first server's
// masks, and answers every request with its logits, bit for bit.
func TestRestartRefillsIdentically(t *testing.T) {
	f := getFixture(t)
	calls := []struct {
		v     core.Variant
		prefs core.Preferences
	}{
		{core.VariantB, core.Uniform([]int{0, 1})},
		{core.VariantW, core.Uniform([]int{1, 3})},
		{core.VariantW, mustWeighted(t, []int{0, 2, 3}, []float64{0.5, 0.25, 0.25})},
		{core.VariantM, core.Uniform([]int{2, 3})},
		{core.VariantM, mustWeighted(t, []int{0, 1, 3}, []float64{0.25, 0.25, 0.5})},
	}
	// run answers every call twice, a fill and then a hit, and counts the
	// personalizations per preference key (each call's is distinct).
	run := func(sys *core.System) (*Server, [][]float64, map[string]int) {
		srv := NewServerWith(sys, Config{})
		t.Cleanup(func() { _ = srv.Close() })
		fills := map[string]int{}
		srv.hookPersonalize = func(p core.Preferences) { fills[p.Key()]++ }
		var logits [][]float64
		for round := 0; round < 2; round++ {
			for i, c := range calls {
				res, err := srv.InferVariant(c.v, c.prefs, f.sample(t, i))
				if err != nil {
					t.Fatalf("round %d, call %d: %v", round, i, err)
				}
				logits = append(logits, res.Logits)
			}
		}
		return srv, logits, fills
	}

	first, want, _ := run(f.sys)

	var model bytes.Buffer
	if err := nn.Save(&model, f.sys.Net); err != nil {
		t.Fatal(err)
	}
	net, err := nn.Load(&model)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(net, f.sets.Val, f.sets.Profile, nil, f.sys.Params)
	if err != nil {
		t.Fatal(err)
	}
	restarted, got, fills := run(sys)

	for _, c := range calls {
		if n := fills[c.prefs.Key()]; n != 1 {
			t.Errorf("%s %v: %d personalizations after the restart, want 1", c.v, c.prefs.Classes, n)
		}
	}
	if st := restarted.Stats(); st.PersonalizeRuns != uint64(len(calls)) || st.CacheHits != uint64(len(calls)) {
		t.Errorf("restarted: personalize-runs=%d hits=%d, want %d/%d", st.PersonalizeRuns, st.CacheHits, len(calls), len(calls))
	}
	if !reflect.DeepEqual(restarted.ExportMasks(), first.ExportMasks()) {
		t.Error("the restarted server's masks differ from the first server's")
	}
	for i := range want {
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("request %d, logit %d: %v after the restart, %v before", i, j, got[i][j], want[i][j])
			}
		}
	}
}
