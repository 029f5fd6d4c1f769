package serve

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"capnn/internal/cloud"
	"capnn/internal/core"
	"capnn/internal/store"
	"capnn/internal/tensor"
)

// driftSample returns test images drawn only from the given classes, in
// round-robin order — a synthetic drift workload against an entry whose
// preferences name different classes.
func driftSampler(t *testing.T, f *fixture, classes ...int) func(i int) *tensor.Tensor {
	t.Helper()
	byClass := f.sets.Test.ByClass()
	var idx []int
	for _, c := range classes {
		idx = append(idx, byClass[c]...)
	}
	if len(idx) == 0 {
		t.Fatal("no samples for drift classes")
	}
	return func(i int) *tensor.Tensor { return f.sample(t, idx[i%len(idx)]) }
}

// guardConfig is the fast-tripping config the self-healing tests share:
// shadow-sample every other request, judge over a 16-deep window after
// 8 observations.
func guardConfig() Config {
	return Config{
		Variant: core.VariantW, GuardSampleEvery: 2, GuardWindow: 16, GuardMinObs: 8, GuardSlack: 0.05,
		BreakerCooldown: 60 * time.Millisecond, HealBackoff: 10 * time.Millisecond,
	}
}

// The tentpole acceptance test: skew the served class mix away from the
// profiled preferences. The ε-guard must trip within one monitor
// window, serve the affected user through the unpruned network, and
// repersonalize through the breaker — without dropping any request.
func TestDriftTripsGuardAndHeals(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, guardConfig())
	defer srv.Close()

	healed := make(chan core.Preferences, 1)
	srv.hookHealed = func(key string, prefs core.Preferences) {
		select {
		case healed <- prefs:
		default:
		}
	}

	// The user claimed classes {0,1}; every request actually carries
	// classes {2,3}.
	prefs := core.Uniform([]int{0, 1})
	next := driftSampler(t, f, 2, 3)

	sawFallback := false
	tripAt := -1
	for i := 0; i < 120; i++ {
		res, err := srv.Infer(prefs, next(i))
		if err != nil {
			t.Fatalf("request %d dropped during drift: %v", i, err)
		}
		if res.Fallback {
			sawFallback = true
		}
		if tripAt < 0 && srv.Stats().GuardTrips > 0 {
			tripAt = i
		}
		if sawFallback && tripAt >= 0 {
			break
		}
	}
	if tripAt < 0 {
		t.Fatalf("guard never tripped under pure off-preference traffic; stats: %s", srv.Stats())
	}
	// SampleEvery=2 and MinObs=8 mean the trip needs ~16 requests; "one
	// monitor window" of slack on top keeps the bound honest but loose.
	if tripAt > 2*16+8 {
		t.Fatalf("guard tripped only at request %d, want within ~one window", tripAt)
	}
	if !sawFallback {
		t.Fatal("no request reported fallback serving after the trip")
	}

	// The heal must publish a repersonalization derived from the
	// *observed* classes.
	var healedPrefs core.Preferences
	select {
	case healedPrefs = <-healed:
	case <-time.After(5 * time.Second):
		t.Fatalf("heal never published; stats: %s", srv.Stats())
	}
	observed := map[int]bool{}
	for _, c := range healedPrefs.Classes {
		observed[c] = true
	}
	if !observed[2] && !observed[3] {
		t.Fatalf("healed preferences %v contain neither drift class 2 nor 3", healedPrefs.Classes)
	}

	// The healed entry serves the same request key from the cache,
	// pruned again (fresh guard, no fallback).
	res, err := srv.Infer(prefs, next(0))
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("post-heal request missed the cache; healed entry was not installed under the original key")
	}
	if res.Fallback {
		t.Fatal("post-heal request still served as fallback")
	}

	st := srv.Stats()
	if st.GuardTrips < 1 || st.FallbackServed < 1 || st.Heals < 1 {
		t.Fatalf("stats missing self-healing counters: %s", st)
	}
	if st.Shed != 0 {
		t.Fatalf("%d requests shed during drift; healing must not drop traffic", st.Shed)
	}
}

// When repersonalization itself keeps failing, the breaker must open
// (bounding the prune churn), traffic keeps flowing on the fallback
// path, and once the fault clears a half-open probe heals the entry.
func TestHealRetriesThroughBreaker(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, guardConfig())
	defer srv.Close()

	var failing atomic.Bool
	srv.hookPersonalize = func(core.Preferences) {
		if failing.Load() {
			panic("induced personalize fault")
		}
	}
	healed := make(chan struct{}, 1)
	srv.hookHealed = func(string, core.Preferences) {
		select {
		case healed <- struct{}{}:
		default:
		}
	}

	prefs := core.Uniform([]int{0, 1})
	next := driftSampler(t, f, 2, 3)
	if _, err := srv.Infer(prefs, next(0)); err != nil { // warm the entry while healthy
		t.Fatal(err)
	}
	failing.Store(true)

	// Drift until the guard trips and the heal starts failing into the
	// breaker. Traffic must keep flowing the whole time. The heal attempts
	// are asynchronous, so the loop is bounded by a deadline, not a count.
	stop := time.Now().Add(10 * time.Second)
	for i := 1; time.Now().Before(stop); i++ {
		if _, err := srv.Infer(prefs, next(i)); err != nil {
			t.Fatalf("request %d dropped while breaker busy: %v", i, err)
		}
		st := srv.Stats()
		if st.BreakerOpens >= 1 && st.HealFailures >= 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	st := srv.Stats()
	if st.BreakerOpens < 1 {
		t.Fatalf("breaker never opened under persistent personalize failure; stats: %s", st)
	}
	if st.Heals != 0 {
		t.Fatalf("heal reported success while personalization was failing: %s", st)
	}

	// Clear the fault: the next half-open probe (after cooldown) heals.
	failing.Store(false)
	select {
	case <-healed:
	case <-time.After(5 * time.Second):
		t.Fatalf("no heal after fault cleared; stats: %s", srv.Stats())
	}
	st = srv.Stats()
	if st.BreakerCloses < 1 || st.BreakerHalfOpens < 1 || st.Heals < 1 {
		t.Fatalf("breaker did not recover through half-open: %s", st)
	}
}

// A checkpoint taken by a wider model (capnn-serve restarted with the
// other -model over the same -state: 20 classes restored into 10) is
// refused with an error at start-up, not a panic.
func TestRestoreRefusesCheckpointFromWiderModel(t *testing.T) {
	f := getFixture(t)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	txn, err := st.Begin()
	if err != nil {
		t.Fatal(err)
	}
	wider := []CachedMask{{Key: "wide", Variant: "W", Classes: []int{2, 17}, Weights: []float64{0.5, 0.5}}}
	if err := txn.PutGob(store.ArtifactMaskCache, wider); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	gen, err := st.Latest()
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerWith(f.sys, Config{Variant: core.VariantW})
	defer srv.Close()
	restored, err := srv.RestoreState(gen)
	var se *Error
	if restored != 0 || !errors.As(err, &se) || se.Code != cloud.CodeBadRequest {
		t.Fatalf("restored %d, err %v; want 0 and a bad-request *Error", restored, err)
	}
}

// Graceful drain: Shutdown stops admission with a typed busy error,
// wakes a parked heal goroutine, answers everything already admitted,
// and leaves no goroutines behind (run with -race).
func TestShutdownDrainsWithoutLeaks(t *testing.T) {
	before := runtime.NumGoroutine()

	f := getFixture(t)
	cfg := guardConfig()
	cfg.HealBackoff = time.Hour // park the failing heal in its backoff sleep
	srv := NewServerWith(f.sys, cfg)

	var failing atomic.Bool
	srv.hookPersonalize = func(core.Preferences) {
		if failing.Load() {
			panic("induced personalize fault")
		}
	}
	prefs := core.Uniform([]int{0, 1})
	next := driftSampler(t, f, 2, 3)
	if _, err := srv.Infer(prefs, next(0)); err != nil {
		t.Fatal(err)
	}
	failing.Store(true)
	completed := 0
	stop := time.Now().Add(10 * time.Second) // the heal attempt is asynchronous
	for i := 1; srv.Stats().HealFailures == 0 && time.Now().Before(stop); i++ {
		if _, err := srv.Infer(prefs, next(i)); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		completed++
		time.Sleep(time.Millisecond)
	}
	if srv.Stats().HealFailures == 0 {
		t.Fatalf("heal never attempted; stats: %s", srv.Stats())
	}

	// The heal goroutine is now parked in a 1-hour backoff; Shutdown
	// must wake it via the drain channel and return promptly.
	start := time.Now()
	if err := srv.Shutdown(10 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("shutdown took %v; drain did not wake the parked heal", d)
	}

	// Draining server sheds with the typed busy code.
	_, err := srv.Infer(prefs, next(0))
	var te *Error
	if !errors.As(err, &te) || te.Code != cloud.CodeBusy {
		t.Fatalf("post-shutdown request got %v, want typed busy", err)
	}

	// Everything admitted before the drain was answered.
	st := srv.Stats()
	if st.Completed < uint64(completed) {
		t.Fatalf("completed %d < admitted %d; drain dropped requests", st.Completed, completed)
	}

	waitFor(t, 5*time.Second, func() bool { return runtime.NumGoroutine() <= before },
		"goroutines to return to baseline after drain")
}

// Checkpoint round trip: SaveState → store commit → RestoreState on a
// fresh server reproduces the mask cache bit-identically, and the first
// request after restart is a warm cache hit (no personalization).
func TestCheckpointRestoreWarmCache(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{Variant: core.VariantW})
	defer srv.Close()

	prefsA := core.Uniform([]int{0, 1})
	prefsB := core.Uniform([]int{2, 3})
	resA, err := srv.Infer(prefsA, f.sample(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Infer(prefsB, f.sample(t, 1)); err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	txn, err := st.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.SaveState(txn); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	srv.NoteCheckpoint(txn.Generation())
	if s := srv.Stats(); s.CheckpointGeneration != txn.Generation() {
		t.Fatalf("checkpoint generation %d, want %d", s.CheckpointGeneration, txn.Generation())
	}

	gen, err := st.Latest()
	if err != nil {
		t.Fatal(err)
	}
	// The model artifact must round-trip: same weights, same logits.
	if _, err := gen.Network(store.ArtifactModel); err != nil {
		t.Fatalf("checkpointed model does not decode: %v", err)
	}
	if _, err := gen.Rates(); err != nil {
		t.Fatalf("checkpointed rates do not decode: %v", err)
	}

	srv2 := NewServerWith(f.sys, Config{Variant: core.VariantW})
	defer srv2.Close()
	var personalizes atomic.Int64
	srv2.hookPersonalize = func(core.Preferences) { personalizes.Add(1) }
	restored, err := srv2.RestoreState(gen)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 2 {
		t.Fatalf("restored %d entries, want 2", restored)
	}

	// Bit-identical masks across the round trip.
	want := map[string]map[int][]bool{}
	for _, e := range srv.cache.snapshot() {
		want[e.key] = e.masks
	}
	for _, e := range srv2.cache.snapshot() {
		ref, ok := want[e.key]
		if !ok {
			t.Fatalf("restored unknown key %q", e.key)
		}
		if len(e.masks) != len(ref) {
			t.Fatalf("key %q: %d mask stages, want %d", e.key, len(e.masks), len(ref))
		}
		for stage, m := range ref {
			got := e.masks[stage]
			if len(got) != len(m) {
				t.Fatalf("key %q stage %d: mask length %d, want %d", e.key, stage, len(got), len(m))
			}
			for i := range m {
				if got[i] != m[i] {
					t.Fatalf("key %q stage %d unit %d: mask bit differs after restore", e.key, stage, i)
				}
			}
		}
	}

	res2, err := srv2.Infer(prefsA, f.sample(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !res2.CacheHit {
		t.Fatal("first request after restore was not a cache hit")
	}
	if personalizes.Load() != 0 {
		t.Fatalf("restore ran %d personalizations, want 0", personalizes.Load())
	}
	if len(res2.Logits) != len(resA.Logits) {
		t.Fatalf("logit count changed across restore")
	}
	for i := range resA.Logits {
		if resA.Logits[i] != res2.Logits[i] {
			t.Fatalf("logit %d differs after restore: %v vs %v", i, resA.Logits[i], res2.Logits[i])
		}
	}
	if s := srv2.Stats(); s.CheckpointGeneration != gen.Number {
		t.Fatalf("restored server reports generation %d, want %d", s.CheckpointGeneration, gen.Number)
	}
}
