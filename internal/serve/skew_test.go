package serve

import (
	"testing"
	"time"

	"capnn/internal/core"
)

// skewConfig is the fast proactive-detection config these tests share:
// the skew verdict needs 6 observations while the accuracy trip needs
// 16, so under a sudden flip the detector must win the race.
func skewConfig() Config {
	return Config{
		Variant: core.VariantW, GuardSampleEvery: 2, GuardWindow: 32, GuardMinObs: 16, GuardSlack: 0.05,
		SkewThreshold: 0.3, SkewMinObs: 6, ProactiveInterval: time.Millisecond,
		BreakerCooldown: 60 * time.Millisecond, HealBackoff: 10 * time.Millisecond,
	}
}

// The acceptance race: under a sudden skew flip (claimed {0,1}, traffic
// all {2,3}) the proactive detector must repersonalize the entry
// *before* the ε-guard trips — zero trips, zero fallback-served, and a
// heal attributed to reason "skew". Run with -race in CI.
func TestSkewFlipProactiveBeatsGuardTrip(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, skewConfig())
	defer srv.Close()

	healed := make(chan core.Preferences, 1)
	srv.hookHealed = func(key string, prefs core.Preferences) {
		select {
		case healed <- prefs:
		default:
		}
	}

	prefs := core.Uniform([]int{0, 1})
	next := driftSampler(t, f, 2, 3)

	// Bounded by a deadline, not a request count: the heal is a goroutine
	// running a Prune, and a warm request takes microseconds.
	var healedPrefs core.Preferences
	done := false
	stop := time.Now().Add(10 * time.Second)
	for i := 0; !done && time.Now().Before(stop); i++ {
		res, err := srv.Infer(prefs, next(i))
		if err != nil {
			t.Fatalf("request %d dropped during flip: %v", i, err)
		}
		if res.Fallback {
			t.Fatalf("request %d served as fallback; the proactive path must keep the entry off the trip line", i)
		}
		select {
		case healedPrefs = <-healed:
			done = true
		default:
		}
	}
	if !done {
		t.Fatalf("proactive heal never published; stats: %s", srv.Stats())
	}

	st := srv.Stats()
	if st.GuardTrips != 0 || st.FallbackServed != 0 {
		t.Fatalf("guard tripped (%d trips, %d fallback) before the proactive heal landed: %s",
			st.GuardTrips, st.FallbackServed, st)
	}
	if st.SkewDetected < 1 || st.RepersonalizeSkew < 1 {
		t.Fatalf("heal not attributed to the skew detector: %s", st)
	}
	if st.Heals != st.RepersonalizeSkew+st.RepersonalizeGuardTrip {
		t.Fatalf("reason-labeled repersonalizations do not sum to heals: %s", st)
	}
	seen := map[int]bool{}
	for _, c := range healedPrefs.Classes {
		seen[c] = true
	}
	if !seen[2] && !seen[3] {
		t.Fatalf("proactively healed preferences %v contain neither drift class", healedPrefs.Classes)
	}

	// The healed entry serves the original key from the cache, pruned
	// for the observed mix — no fallback at any point.
	res, err := srv.Infer(prefs, next(0))
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit || res.Fallback {
		t.Fatalf("post-heal request: hit=%v fallback=%v, want warm pruned serving", res.CacheHit, res.Fallback)
	}
}

// The DESIGN invariant: proactive repersonalization never increases
// personalize calls for a stationary workload. In-preference traffic
// must run exactly one personalization (the cache fill) with zero skew
// detections and zero heals.
func TestStationaryWorkloadNoProactiveChurn(t *testing.T) {
	f := getFixture(t)
	cfg := skewConfig()
	// The default-shaped threshold must absorb base-model error; slack
	// likewise, so neither detector reacts to misclassification noise.
	cfg.SkewThreshold = 0.4
	cfg.GuardSlack = 0.3
	srv := NewServerWith(f.sys, cfg)
	defer srv.Close()

	personalizes := 0
	srv.hookPersonalize = func(core.Preferences) { personalizes++ }

	// Claimed {0,2} (one class per confusion group), traffic drawn from
	// exactly those classes.
	prefs := core.Uniform([]int{0, 2})
	next := driftSampler(t, f, 0, 2)
	for i := 0; i < 150; i++ {
		if _, err := srv.Infer(prefs, next(i)); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	st := srv.Stats()
	if personalizes != 1 {
		t.Fatalf("stationary workload ran %d personalizations, want exactly 1 (stats: %s)", personalizes, st)
	}
	if st.SkewDetected != 0 || st.Heals != 0 || st.GuardTrips != 0 {
		t.Fatalf("stationary workload triggered reactions: %s", st)
	}
}

// With proactive repersonalization disabled, the same flip must still be
// caught — by the reactive trip path, with no skew accounting.
func TestProactiveDisabledFallsBackToTrip(t *testing.T) {
	f := getFixture(t)
	cfg := skewConfig()
	cfg.DisableProactive = true
	srv := NewServerWith(f.sys, cfg)
	defer srv.Close()

	prefs := core.Uniform([]int{0, 1})
	next := driftSampler(t, f, 2, 3)
	for i := 0; i < 200 && srv.Stats().GuardTrips == 0; i++ {
		if _, err := srv.Infer(prefs, next(i)); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st := srv.Stats()
	if st.GuardTrips == 0 {
		t.Fatalf("guard never tripped with proactive disabled: %s", st)
	}
	if st.SkewDetected != 0 || st.ProactiveSuppressed != 0 || st.RepersonalizeSkew != 0 {
		t.Fatalf("proactive accounting moved while disabled: %s", st)
	}
}

// The gate's hysteresis under a fake clock: one token per interval,
// judged on the injected time only.
func TestProactiveGateHysteresis(t *testing.T) {
	gate := newProactiveGate(time.Second)
	now := time.Unix(1000, 0)
	gate.now = func() time.Time { return now }

	if !gate.allow() {
		t.Fatal("first token must always be granted")
	}
	if gate.allow() {
		t.Fatal("second token granted without time passing")
	}
	now = now.Add(999 * time.Millisecond)
	if gate.allow() {
		t.Fatal("token granted 1ms before the interval elapsed")
	}
	now = now.Add(time.Millisecond)
	if !gate.allow() {
		t.Fatal("token denied after the interval elapsed")
	}
	if gate.allow() {
		t.Fatal("interval did not re-arm after the second grant")
	}

	var disabled *proactiveGate
	if disabled.allow() {
		t.Fatal("nil gate (proactive disabled) granted a token")
	}
}

// observedPrefs under adversarial windows: the skew detector leans on
// this path for every proactive heal, so its edge cases must be exact.
func TestObservedPrefsAdversarialWindows(t *testing.T) {
	const classes = 4
	newGuard := func() *entryGuard {
		g, err := newEntryGuard(core.Uniform([]int{0, 1}), classes, 0.1, 0.05, 16, 8, 2, 0.3, 4)
		if err != nil {
			t.Fatalf("newEntryGuard: %v", err)
		}
		return g
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
		g.win.Reset()
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
