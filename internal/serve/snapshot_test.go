package serve

import (
	"errors"
	"slices"
	"sync/atomic"
	"testing"

	"capnn/internal/cloud"
	"capnn/internal/core"
)

// TestHandoffExportImportRoundTrip: a warm cache snapshotted with
// ExportMasks and restored into a fresh server serves the same requests
// with zero personalizations — identical logits, all hits — under
// guards built exactly as a fill builds them, and the restored cache
// keeps the snapshot's recency order.
func TestHandoffExportImportRoundTrip(t *testing.T) {
	f := getFixture(t)
	cfg := Config{Variant: core.VariantM, GuardSampleEvery: 3, GuardWindow: 40}
	src := NewServerWith(f.sys, cfg)
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

	dst := NewServerWith(f.sys, cfg)
	defer dst.Close()
	var personalizes atomic.Int64
	dst.hookPersonalize = func(core.Preferences) { personalizes.Add(1) }
	n, err := dst.RestoreState(checkpointOf(t, cms))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(prefs) {
		t.Fatalf("restored %d entries, want %d", n, len(prefs))
	}
	keys := func(cms []CachedMask) []string {
		out := make([]string, len(cms))
		for i, cm := range cms {
			out[i] = cm.Key
		}
		return out
	}
	if got, want := keys(dst.ExportMasks()), keys(cms); !slices.Equal(got, want) {
		t.Fatalf("restored recency order %v, snapshot's %v", got, want)
	}

	filled := map[string]*entryGuard{}
	for _, e := range src.cache.snapshot() {
		filled[e.key] = e.guard
	}
	for _, e := range dst.cache.snapshot() {
		got, want := e.guard, filled[e.key]
		if got == nil || want == nil || got.every != want.every || got.win.Window() != want.win.Window() ||
			got.predicted != want.predicted || got.profileN != want.profileN || !slices.Equal(got.inClass, want.inClass) {
			t.Fatalf("entry %s: restored guard %+v differs from the fill's %+v", e.key, got, want)
		}
		if got.every != 3 || got.win.Window() != 40 || got.win.Total() != 0 {
			t.Fatalf("entry %s: restored guard samples every %d over %d with %d observations, want 3 / 40 / a fresh window",
				e.key, got.every, got.win.Window(), got.win.Total())
		}
	}
	for i, p := range prefs {
		res, err := dst.Infer(p, f.sample(t, i))
		if err != nil {
			t.Fatalf("restored serve %d: %v", i, err)
		}
		if !slices.Equal(res.Logits, want[i]) {
			t.Fatalf("prefs %d: restored logits %v, source %v", i, res.Logits, want[i])
		}
	}
	st := dst.Stats()
	if st.CacheMisses != 0 || st.PersonalizeRuns != 0 || personalizes.Load() != 0 {
		t.Fatalf("restored cache: misses=%d personalize-runs=%d hook=%d, want 0/0/0",
			st.CacheMisses, st.PersonalizeRuns, personalizes.Load())
	}
	if st.CacheHits != uint64(len(prefs)) {
		t.Fatalf("restored cache: hits=%d, want %d", st.CacheHits, len(prefs))
	}
}

// A snapshot entry naming a class the model does not have (another
// -model's checkpoint, a corrupt artifact) is refused with a typed
// error — it used to index past the guard's class table and panic — and
// the valid entry before it stays installed.
func TestImportRejectsOutOfRangeClasses(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{Variant: core.VariantM})
	defer srv.Close()
	good := CachedMask{Key: "good", Variant: "M", Classes: []int{0, 1}, Weights: []float64{0.5, 0.5}}
	for _, class := range []int{9999, -1} {
		bad := CachedMask{Key: "bad", Variant: "M", Classes: []int{class}, Weights: []float64{1}}
		n, err := srv.RestoreState(checkpointOf(t, []CachedMask{good, bad}))
		var se *Error
		if n != 1 || !errors.As(err, &se) || se.Code != cloud.CodeBadRequest {
			t.Fatalf("class %d: restored %d, err %v; want 1 (the good entry) and a bad-request *Error", class, n, err)
		}
	}
	if got := srv.Stats().CacheEntries; got != 1 {
		t.Fatalf("cache holds %d entries, want only the valid one", got)
	}
}
