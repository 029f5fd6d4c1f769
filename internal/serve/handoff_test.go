package serve

import (
	"math"
	"testing"

	"capnn/internal/core"
)

// TestHandoffExportImportRoundTrip: a warm cache exported from one
// server and imported into a fresh one serves the same requests with
// zero personalizations — identical logits, all hits — and resident
// entries win over a re-import.
func TestHandoffExportImportRoundTrip(t *testing.T) {
	f := getFixture(t)
	src := NewServerWith(f.sys, Config{Variant: core.VariantM})
	defer src.Close()

	prefs := []core.Preferences{
		core.Uniform([]int{0, 1}),
		core.Uniform([]int{1, 3}),
		mustWeighted(t, []int{0, 2, 3}, []float64{0.5, 0.25, 0.25}),
	}
	want := make([][]float64, len(prefs))
	for i, p := range prefs {
		res, err := src.Infer(p, f.sample(t, i))
		if err != nil {
			t.Fatalf("warm %d: %v", i, err)
		}
		want[i] = res.Logits
	}

	cms := src.ExportMasks()
	if len(cms) != len(prefs) {
		t.Fatalf("exported %d entries, want %d", len(cms), len(prefs))
	}
	if st := src.Stats(); st.HandoffExported != uint64(len(prefs)) {
		t.Fatalf("HandoffExported = %d, want %d", st.HandoffExported, len(prefs))
	}

	dst := NewServerWith(f.sys, Config{Variant: core.VariantM})
	defer dst.Close()
	n, err := dst.ImportMasks(cms)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(prefs) {
		t.Fatalf("imported %d entries, want %d", n, len(prefs))
	}
	for i, p := range prefs {
		res, err := dst.Infer(p, f.sample(t, i))
		if err != nil {
			t.Fatalf("imported serve %d: %v", i, err)
		}
		for j, l := range res.Logits {
			if math.Abs(l-want[i][j]) > 1e-12 {
				t.Fatalf("prefs %d logit %d: imported %v, source %v", i, j, l, want[i][j])
			}
		}
	}
	st := dst.Stats()
	if st.CacheMisses != 0 || st.PersonalizeRuns != 0 {
		t.Fatalf("imported cache: misses=%d personalize-runs=%d, want 0/0 (handoff should pre-warm)",
			st.CacheMisses, st.PersonalizeRuns)
	}
	if st.CacheHits != uint64(len(prefs)) {
		t.Fatalf("imported cache: hits=%d, want %d", st.CacheHits, len(prefs))
	}
	if st.HandoffImported != uint64(len(prefs)) {
		t.Fatalf("HandoffImported = %d, want %d", st.HandoffImported, len(prefs))
	}

	// Re-import: every key is resident, nothing installs — the local
	// (possibly healed) entry outranks the mover's copy.
	n, err = dst.ImportMasks(cms)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("re-import installed %d entries, want 0 (resident entries win)", n)
	}
}

func mustWeighted(t *testing.T, classes []int, weights []float64) core.Preferences {
	t.Helper()
	p, err := core.Weighted(classes, weights)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
