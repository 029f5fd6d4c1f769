package serve

import (
	"errors"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"capnn/internal/cloud"
	"capnn/internal/core"
	"capnn/internal/exp"
	"capnn/internal/tensor"
	"capnn/internal/workload"
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
// shadow-sample every other request, judge over a 16-deep window.
func guardConfig() Config {
	return Config{
		Variant: core.VariantW, GuardSampleEvery: 2, GuardWindow: 16,
		BreakerCooldown: 60 * time.Millisecond, HealBackoff: 10 * time.Millisecond,
	}
}

// The guard's one judgement as a pure function of (window counts,
// predicted share, profile n). The noisy rows are the cifar10 fixture's
// key {1,4}: 22 % of its profiled predictions and up to 28 % of its test
// images' fall outside the key with no drift at all.
func TestDriftTest(t *testing.T) {
	// firstTrip slides the guard's window over a stream in which
	// offPer100 of every 100 observations, evenly spread, fall outside
	// the preference set (class 1; class 0 is inside), and returns the
	// observation the judgement first trips at.
	firstTrip := func(offPer100 int, predicted, profileN float64, upTo int) int {
		win, err := core.NewSlidingMonitor(2, 256)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < upTo; i++ {
			pred := 0
			if (i+1)*offPer100/100 != i*offPer100/100 {
				pred = 1
			}
			if err := win.Observe(pred); err != nil {
				t.Fatal(err)
			}
			if _, trip := driftTest(win.Counts()[1], win.Total(), predicted, profileN); trip {
				return i + 1
			}
		}
		return -1
	}
	cases := []struct {
		name                string
		offPer100           int
		predicted, profileN float64
		upTo                int
		tripBy              int // -1: must never trip
	}{
		{"noisy key, stationary: 28% observed against 22% predicted", 28, 0.22, 80, 4 * 256, -1},
		{"head key, stationary: 5% observed against 3.3% predicted", 5, 0.033, 120, 4 * 256, -1},
		{"nothing predicted, 2% observed", 2, 0, 160, 4 * 256, -1},
		{"12% observed where 120 profile images said 3.3%: inside the rows' own error", 12, 0.033, 120, 4 * 256, -1},
		{"full flip on the head key", 100, 0.033, 120, 256, 8},
		{"full flip on the noisy key", 100, 0.22, 80, 256, 8},
		{"40% steady drift on the head key (0.4 + 0.6·0.05 observed)", 43, 0.05, 80, 256, 256},
		{"40% steady drift on the noisy key (0.4 + 0.6·0.22 observed)", 53, 0.22, 80, 256, 256},
	}
	for _, c := range cases {
		got := firstTrip(c.offPer100, c.predicted, c.profileN, c.upTo)
		if c.tripBy < 0 && got >= 0 {
			t.Errorf("%s: tripped at observation %d, want never", c.name, got)
		}
		if c.tripBy >= 0 && (got < 0 || got > c.tripBy) {
			t.Errorf("%s: first trip at observation %d, want within %d", c.name, got, c.tripBy)
		}
	}

	// Below guardMinObs nothing trips, whatever the counts.
	if _, trip := driftTest(guardMinObs-1, guardMinObs-1, 0, 160); trip {
		t.Errorf("tripped on %d observations, below guardMinObs", guardMinObs-1)
	}
	// Monotone in the evidence: once a window of n trips, more off-K
	// observations in it never un-trip, and the report carries the bounds
	// the verdict was taken on.
	for _, n := range []int{8, 64, 256} {
		tripped := false
		for off := 0; off <= n; off++ {
			r, trip := driftTest(off, n, 0.22, 80)
			if tripped && !trip {
				t.Fatalf("n=%d: %d off-K observations trip but %d do not", n, off-1, off)
			}
			if trip != (r.ObservedLow > r.PredictedHigh) || r.ObservedLow > r.Observed || r.PredictedHigh < r.Predicted {
				t.Fatalf("n=%d off=%d: verdict %v disagrees with its report %+v", n, off, trip, r)
			}
			tripped = trip
		}
		if !tripped {
			t.Fatalf("n=%d: a window entirely off-K does not trip", n)
		}
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
	// SampleEvery=2 and guardMinObs=8 mean the trip needs ~16 requests; "one
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

func mustWeighted(t *testing.T, classes []int, weights []float64) core.Preferences {
	t.Helper()
	p, err := core.Weighted(classes, weights)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// A sudden flip on a warm entry: the user claimed {0,1} and sent exactly
// that until the window was full, then sends only {2,3}. The guard must
// trip, every request must be answered throughout — fallback answers
// being the unpruned network's, bit for bit — the heal must carry a drift
// class, and the healed key must serve pruned again. Run with -race in CI.
func TestSkewFlipTripsServesFallbackAndHeals(t *testing.T) {
	f := getFixture(t)
	cfg := guardConfig()
	cfg.GuardWindow = 32
	srv := NewServerWith(f.sys, cfg)
	defer srv.Close()

	healed := make(chan core.Preferences, 1)
	srv.hookHealed = func(key string, prefs core.Preferences) {
		select {
		case healed <- prefs:
		default:
		}
	}

	prefs := core.Uniform([]int{0, 1})
	claimed := driftSampler(t, f, 0, 1)
	for i := 0; i < 2*cfg.GuardWindow; i++ {
		if _, err := srv.Infer(prefs, claimed(i)); err != nil {
			t.Fatalf("request %d before the flip: %v", i, err)
		}
	}
	if st := srv.Stats(); st.GuardTrips != 0 || st.PersonalizeRuns != 1 {
		t.Fatalf("on-preference traffic tripped or repersonalized: %s", st)
	}

	// Bounded by a deadline, not a request count: the heal is a goroutine
	// running a Prune, and a warm request takes microseconds.
	flipped := driftSampler(t, f, 2, 3)
	var healedPrefs core.Preferences
	fallbacks := 0
	done := false
	stop := time.Now().Add(10 * time.Second)
	for i := 0; !done && time.Now().Before(stop); i++ {
		x := flipped(i)
		res, err := srv.Infer(prefs, x)
		if err != nil {
			t.Fatalf("request %d dropped during the flip: %v", i, err)
		}
		if res.Fallback {
			fallbacks++
			sameBits(t, f, "fallback answer", res.Logits, x, nil)
		}
		select {
		case healedPrefs = <-healed:
			done = true
		default:
		}
	}
	if !done {
		t.Fatalf("heal never published; stats: %s", srv.Stats())
	}
	st := srv.Stats()
	if st.GuardTrips != 1 || st.Heals != 1 || fallbacks == 0 || st.FallbackServed != uint64(fallbacks) {
		t.Fatalf("flip: %d fallback answers seen; stats: %s", fallbacks, st)
	}
	if st.Shed != 0 {
		t.Fatalf("%d requests shed during the flip", st.Shed)
	}
	seen := map[int]bool{}
	for _, c := range healedPrefs.Classes {
		seen[c] = true
	}
	if !seen[2] && !seen[3] {
		t.Fatalf("healed preferences %v contain neither drift class", healedPrefs.Classes)
	}

	res, err := srv.Infer(prefs, flipped(0))
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit || res.Fallback {
		t.Fatalf("post-heal request: hit=%v fallback=%v, want warm pruned serving", res.CacheHit, res.Fallback)
	}
}

// Invariant 15's second half on the small fixture: in-preference traffic
// runs exactly one personalization (the cache fill) — no trip, no heal.
func TestStationaryWorkloadNoProactiveChurn(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, guardConfig())
	defer srv.Close()

	// Claimed {0,2} (one class per confusion group), traffic drawn from
	// exactly those classes.
	prefs := core.Uniform([]int{0, 2})
	next := driftSampler(t, f, 0, 2)
	for i := 0; i < 150; i++ {
		if _, err := srv.Infer(prefs, next(i)); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if st := srv.Stats(); st.PersonalizeRuns != 1 || st.Heals != 0 || st.GuardTrips != 0 || st.FallbackServed != 0 {
		t.Fatalf("stationary workload triggered reactions: %s", st)
	}
}

// Invariant 15 where the benchmark measures it: one seed's window of the
// benchmark's hot trace (benchmark/workloads.go: 8 zipf users, events
// [seed<<32, +8000), images from the cifar10 fixture's test split)
// through a server at default Config. A stationary trace personalizes
// each key once and never trips: the base model's own off-preference
// predictions — up to 28 % on key {1,4} — are not drift.
func TestStationaryHotTraceDefaultConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 8000 requests on the cifar10 fixture")
	}
	fx, err := exp.Load(exp.CIFAR10Config(), io.Discard)
	if err != nil {
		t.Fatalf("fixture: %v", err)
	}
	model, err := workload.NewModel(workload.Config{Users: 8, Classes: fx.Config.Synth.Classes,
		Groups: fx.Config.Synth.ClassGroups(), ZipfS: 1.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerWith(fx.Sys, Config{})
	defer srv.Close()

	const seed, window = 1, 8000
	pools := fx.Sets.Test.ByClass()
	keys := map[string]bool{}
	for i := uint64(0); i < window; i++ {
		ev := model.At(seed<<32 + i)
		pool := pools[ev.Class]
		x, _ := fx.Sets.Test.Batch([]int{pool[int(ev.Index%uint64(len(pool)))]})
		if _, err := srv.Infer(ev.Prefs, x.MustReshape(x.Shape()[1:]...)); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		keys[ev.Prefs.Key()] = true
	}
	st := srv.Stats()
	if st.PersonalizeRuns != uint64(len(keys)) || st.GuardTrips != 0 || st.Heals != 0 || st.FallbackServed != 0 {
		t.Fatalf("stationary trace over %d keys: personalize-runs=%d; stats: %s", len(keys), st.PersonalizeRuns, st)
	}
}

// A trip whose window describes exactly the preferences the entry was
// pruned for is a false alarm: the heal clears it and empties the window
// without a Prune, and the entry goes back to its own masks.
func TestHealOfUnchangedPreferencesIsFree(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, guardConfig())
	defer srv.Close()

	prefs := core.Uniform([]int{0, 1})
	if _, err := srv.Infer(prefs, f.sample(t, 0)); err != nil {
		t.Fatal(err)
	}
	entry := srv.cache.snapshot()[0]
	entry.guard.clear()
	for i := 0; i < 8; i++ {
		entry.guard.observe(i % 2) // the claimed mix, to the count
	}
	forceTrip(t, entry.guard)
	srv.scheduleHeal(entry)
	waitFor(t, 5*time.Second, func() bool { _, tripped := entry.guard.report(); return !tripped },
		"the false alarm to clear")

	res, err := srv.Infer(prefs, f.sample(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit || res.Fallback {
		t.Fatalf("after a cleared false alarm: hit=%v fallback=%v, want the entry's own masks", res.CacheHit, res.Fallback)
	}
	if got := srv.cache.snapshot()[0]; got != entry {
		t.Fatal("the false alarm replaced the cache entry")
	}
	if entry.guard.win.Total() > 1 {
		t.Fatalf("window holds %d observations after the clear, want it emptied", entry.guard.win.Total())
	}
	if st := srv.Stats(); st.PersonalizeRuns != 1 || st.Heals != 0 || st.HealFailures != 0 {
		t.Fatalf("a false alarm cost a personalization: %s", st)
	}
}

// observedPrefs under adversarial windows: every heal personalizes
// against what this returns, so its edge cases must be exact.
func TestObservedPrefsAdversarialWindows(t *testing.T) {
	const classes = 4
	newGuard := func() *entryGuard {
		win, err := core.NewSlidingMonitor(classes, 16)
		if err != nil {
			t.Fatal(err)
		}
		return &entryGuard{every: 2, profileN: 20, win: win, inClass: []bool{true, true, false, false}}
	}

	t.Run("empty window", func(t *testing.T) {
		g := newGuard()
		if _, err := g.observedPrefs(2); err == nil {
			t.Fatal("observedPrefs on an empty window must error, not fabricate preferences")
		}
	})

	t.Run("single observed class", func(t *testing.T) {
		g := newGuard()
		for i := 0; i < 5; i++ {
			g.observe(3)
		}
		p, err := g.observedPrefs(2)
		if err != nil {
			t.Fatalf("observedPrefs: %v", err)
		}
		if len(p.Classes) != 1 || p.Classes[0] != 3 || p.Weights[0] != 1 {
			t.Fatalf("single-class window gave %v/%v, want class 3 at weight 1", p.Classes, p.Weights)
		}
		if err := p.Validate(classes); err != nil {
			t.Fatalf("derived prefs invalid: %v", err)
		}
	})

	t.Run("empty window after reset", func(t *testing.T) {
		g := newGuard()
		for i := 0; i < 5; i++ {
			g.observe(2)
		}
		g.clear()
		if _, err := g.observedPrefs(2); err == nil {
			t.Fatal("observedPrefs after a reset must error like a never-filled window")
		}
	})

	t.Run("all classes uniform", func(t *testing.T) {
		g := newGuard()
		for rep := 0; rep < 3; rep++ {
			for c := 0; c < classes; c++ {
				g.observe(c)
			}
		}
		p, err := g.observedPrefs(classes)
		if err != nil {
			t.Fatalf("observedPrefs: %v", err)
		}
		if len(p.Classes) != classes {
			t.Fatalf("uniform window kept %d classes, want all %d", len(p.Classes), classes)
		}
		if err := p.Validate(classes); err != nil {
			t.Fatalf("derived prefs invalid: %v", err)
		}
		for i, w := range p.Weights {
			if w != 0.25 {
				t.Fatalf("uniform window gave weight %v for class %d, want 0.25", w, p.Classes[i])
			}
		}
		// Truncation to a smaller breadth still yields valid prefs.
		p2, err := g.observedPrefs(2)
		if err != nil {
			t.Fatalf("observedPrefs(2): %v", err)
		}
		if len(p2.Classes) != 2 {
			t.Fatalf("breadth-2 request kept %d classes", len(p2.Classes))
		}
		if err := p2.Validate(classes); err != nil {
			t.Fatalf("truncated prefs invalid: %v", err)
		}
	})
}
