package serve

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"slices"
	"testing"

	"capnn/internal/cloud"
	"capnn/internal/core"
)

// TestHandoffExportImportRoundTrip: a warm cache exported from one
// server and imported into a fresh one serves the same requests with
// zero personalizations — identical logits, all hits — under guards
// built exactly as a fill builds them, and resident entries win over a
// re-import.
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
	if st := src.Stats(); st.HandoffExported != uint64(len(prefs)) {
		t.Fatalf("HandoffExported = %d, want %d", st.HandoffExported, len(prefs))
	}

	dst := NewServerWith(f.sys, cfg)
	defer dst.Close()
	n, err := dst.ImportMasks(cms)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(prefs) {
		t.Fatalf("imported %d entries, want %d", n, len(prefs))
	}
	filled := map[string]*entryGuard{}
	for _, e := range src.cache.snapshot() {
		filled[e.key] = e.guard
	}
	for _, e := range dst.cache.snapshot() {
		got, want := e.guard, filled[e.key]
		if got == nil || got.every != want.every || got.win.Window() != want.win.Window() ||
			got.predicted != want.predicted || got.profileN != want.profileN || !slices.Equal(got.inClass, want.inClass) {
			t.Fatalf("entry %s: imported guard %+v differs from the fill's %+v", e.key, got, want)
		}
		if got.every != 3 || got.win.Window() != 40 || got.win.Total() != 0 {
			t.Fatalf("entry %s: imported guard samples every %d over %d with %d observations, want 3 / 40 / a fresh window",
				e.key, got.every, got.win.Window(), got.win.Total())
		}
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

// An imported entry naming a class the model does not have (a peer
// serving another -model, a corrupt payload) is refused with a typed
// error, in process and over the wire — it used to index past the guard's
// class table and panic.
func TestImportRejectsOutOfRangeClasses(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{Variant: core.VariantM})
	defer srv.Close()
	good := CachedMask{Key: "good", Variant: "M", Classes: []int{0, 1}, Weights: []float64{0.5, 0.5}}
	for _, class := range []int{9999, -1} {
		bad := CachedMask{Key: "bad", Variant: "M", Classes: []int{class}, Weights: []float64{1}}
		n, err := srv.ImportMasks([]CachedMask{bad})
		var se *Error
		if n != 0 || !errors.As(err, &se) || se.Code != cloud.CodeBadRequest {
			t.Fatalf("class %d: imported %d, err %v; want 0 and a bad-request *Error", class, n, err)
		}
		resp := srv.Handle(WireRequest{Version: cloud.ProtocolVersion, Op: OpCacheImport,
			Payload: encodeMasks(t, []CachedMask{good, bad})})
		if resp.Code == cloud.CodeOK || resp.Batch > 1 {
			t.Fatalf("class %d over the wire: code %s batch %d, want a refusal after at most the good entry", class, resp.Code, resp.Batch)
		}
	}
	if got := srv.Stats().CacheEntries; got != 1 {
		t.Fatalf("cache holds %d entries, want only the valid one", got)
	}
}

func encodeMasks(t *testing.T, cms []CachedMask) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cms); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func mustWeighted(t *testing.T, classes []int, weights []float64) core.Preferences {
	t.Helper()
	p, err := core.Weighted(classes, weights)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
