package workload

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"capnn/internal/data"
)

func testConfig() Config {
	return Config{
		Users:   50_000,
		Classes: 10,
		Groups:  data.DefaultSynthConfig(10).ClassGroups(),
		Seed:    7,
		Drift: DriftConfig{
			FlipEvery:     400,
			Lag:           100,
			DiurnalPeriod: 1000,
			BurstLen:      64,
		},
	}
}

func mustModel(t *testing.T, cfg Config) *Model {
	t.Helper()
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	return m
}

// traceHash fingerprints the first n events of a model: every field of
// every event feeds one FNV-1a stream.
func traceHash(m *Model, n uint64) uint64 {
	h := fnv.New64a()
	for i := uint64(0); i < n; i++ {
		ev := m.At(i)
		fmt.Fprintf(h, "%d|%d|%d|%v|%v|%d|%v\n",
			ev.Index, ev.User, ev.Class, ev.Prefs.Classes, ev.Prefs.Weights, boolInt(ev.Drifted), ev.Prefs.Key())
	}
	return h.Sum64()
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestDeterministicAcrossModelsAndAccessOrder(t *testing.T) {
	m1 := mustModel(t, testConfig())
	m2 := mustModel(t, testConfig())
	const n = 500
	// Random-order access on a fresh model must reproduce sequential
	// streaming on another: events are pure functions of the index.
	st := m1.Stream(0)
	seq := make([]Event, n)
	for i := range seq {
		seq[i] = st.Next()
	}
	for i := n - 1; i >= 0; i-- {
		ev := m2.At(uint64(i))
		if fmt.Sprint(ev) != fmt.Sprint(seq[i]) {
			t.Fatalf("event %d differs across models/orders:\n %v\n %v", i, ev, seq[i])
		}
	}
}

// Goroutines calling At at once share the pooled streams and the memo
// table; each event must still be the one a serial walk produces (run
// under -race, this is also the table's publication test).
func TestAtConcurrentMatchesSerial(t *testing.T) {
	const n, workers = 2000, 4
	serial := make([]string, n)
	for i := range serial {
		serial[i] = fmt.Sprint(mustModel(t, testConfig()).At(uint64(i)))
	}
	m := mustModel(t, testConfig())
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < n; k++ {
				i := (k*7 + w*n/workers) % n // every worker walks the whole trace from its own offset
				if got := fmt.Sprint(m.At(uint64(i))); got != serial[i] {
					errs <- fmt.Sprintf("worker %d, event %d:\n %s\nwant\n %s", w, i, got, serial[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// hotConfig is the population the serving benchmark replays: eight
// stationary users.
func hotConfig() Config {
	cfg := testConfig()
	cfg.Users, cfg.Drift = 8, DriftConfig{}
	return cfg
}

// At on a warm model allocates only the event's own preference vector
// and drift weights: the random streams are pooled and user bases
// memoised.
func TestAtAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts")
	}
	m := mustModel(t, hotConfig())
	i := uint64(0)
	for ; i < 1000; i++ {
		m.At(i)
	}
	if got := testing.AllocsPerRun(500, func() { m.At(i); i++ }); got > 6 {
		t.Fatalf("Model.At makes %.1f allocations per event, want ≤ 6", got)
	}
}

func BenchmarkModelAt(b *testing.B) {
	for name, cfg := range map[string]Config{"hot": hotConfig(), "drifting-50k-users": testConfig()} {
		b.Run(name, func(b *testing.B) {
			m, err := NewModel(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.At(uint64(i))
			}
		})
	}
}

func TestSeedChangesTrace(t *testing.T) {
	cfg := testConfig()
	a := traceHash(mustModel(t, cfg), 200)
	cfg.Seed = 8
	b := traceHash(mustModel(t, cfg), 200)
	if a == b {
		t.Fatalf("seeds 7 and 8 produced identical traces (hash %x)", a)
	}
}

// TestGoldenTracePrefix pins the exact trace for a fixed seed. If this
// fails, the workload generator changed behavior: published scorecards
// are no longer comparable across versions, and the trace format version
// should be called out in the changelog.
func TestGoldenTracePrefix(t *testing.T) {
	const want = uint64(0xdf52bd7576539e69)
	if got := traceHash(mustModel(t, testConfig()), 256); got != want {
		t.Fatalf("golden trace hash = %#x, want %#x", got, want)
	}
}

func TestZipfHeadHeavy(t *testing.T) {
	m := mustModel(t, testConfig())
	const n = 4000
	counts := map[uint64]int{}
	for i := uint64(0); i < n; i++ {
		counts[m.At(i).User]++
	}
	if head := float64(counts[0]) / n; head < 0.15 {
		t.Fatalf("hottest user got %.0f%% of traffic, want ≥15%% under zipf s=1.2", head*100)
	}
	if len(counts) < 20 {
		t.Fatalf("only %d distinct users in %d events", len(counts), n)
	}
}

func TestEventsAlwaysValid(t *testing.T) {
	cfg := testConfig()
	cfg.Drift.BurstProb = 0.5 // exercise the burst path hard
	m := mustModel(t, cfg)
	for i := uint64(0); i < 2000; i++ {
		ev := m.At(i)
		if err := ev.Prefs.Validate(cfg.Classes); err != nil {
			t.Fatalf("event %d: invalid prefs: %v", i, err)
		}
		if ev.Class < 0 || ev.Class >= cfg.Classes {
			t.Fatalf("event %d: class %d outside [0,%d)", i, ev.Class, cfg.Classes)
		}
	}
}

func TestStationaryWorkloadKeepsKeys(t *testing.T) {
	cfg := testConfig()
	cfg.Users = 20
	cfg.Drift = DriftConfig{}
	m := mustModel(t, cfg)
	keys := map[uint64]string{}
	for i := uint64(0); i < 3000; i++ {
		ev := m.At(i)
		if ev.Drifted {
			t.Fatalf("event %d drifted in a stationary workload", i)
		}
		k := ev.Prefs.Key()
		if prev, ok := keys[ev.User]; ok && prev != k {
			t.Fatalf("user %d changed preference key %s → %s without drift", ev.User, prev, k)
		}
		keys[ev.User] = k
	}
	if len(keys) < 5 {
		t.Fatalf("expected ≥5 distinct users, got %d", len(keys))
	}
}

func TestFlipsProduceDriftWindows(t *testing.T) {
	cfg := testConfig()
	cfg.Users = 4
	cfg.Drift = DriftConfig{FlipEvery: 200, Lag: 80}
	m := mustModel(t, cfg)
	drifted, offClaim := 0, 0
	for i := uint64(0); i < 3000; i++ {
		ev := m.At(i)
		if !ev.Drifted {
			continue
		}
		drifted++
		if ev.Prefs.Weight(ev.Class) == 0 {
			offClaim++
		}
	}
	if drifted == 0 {
		t.Fatal("flip drift produced no lag-window events")
	}
	// During lag windows the drawn class comes from the next epoch's
	// preference set; most of those draws should miss the claimed set.
	if frac := float64(offClaim) / float64(drifted); frac < 0.3 {
		t.Fatalf("only %.0f%% of lag-window events were off-claim, want ≥30%%", frac*100)
	}
}

func TestGroupCorrelation(t *testing.T) {
	cfg := testConfig()
	groups := cfg.Groups
	m := mustModel(t, cfg)
	sameGroup, pairs := 0, 0
	for i := uint64(0); i < 500; i++ {
		ev := m.At(i)
		for a := 0; a < len(ev.Prefs.Classes); a++ {
			for b := a + 1; b < len(ev.Prefs.Classes); b++ {
				pairs++
				if groups[ev.Prefs.Classes[a]] == groups[ev.Prefs.Classes[b]] {
					sameGroup++
				}
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no multi-class preference sets generated")
	}
	// Random pairs over 10 classes in 2 groups would co-group ~44% of
	// the time; home-group concentration should push well past that.
	if frac := float64(sameGroup) / float64(pairs); frac < 0.7 {
		t.Fatalf("only %.0f%% of preference class pairs share a group, want ≥70%%", frac*100)
	}
}

func TestDiurnalModulatesMix(t *testing.T) {
	cfg := testConfig()
	cfg.Users = 1
	cfg.Drift = DriftConfig{DiurnalPeriod: 512, DiurnalAmp: 0.8}
	m := mustModel(t, cfg)
	base := m.userBase(0, 0)
	if len(base.classes) < 2 {
		t.Skip("breadth-1 user; no mix to modulate")
	}
	minW, maxW := math.Inf(1), math.Inf(-1)
	for t8 := uint64(0); t8 < 512; t8 += 8 {
		w := m.driftedWeights(0, t8, base)
		if w[0] < minW {
			minW = w[0]
		}
		if w[0] > maxW {
			maxW = w[0]
		}
	}
	if maxW-minW < 0.1 {
		t.Fatalf("diurnal modulation moved lead weight only %.3f across a period", maxW-minW)
	}
}

func TestParseDrift(t *testing.T) {
	d, err := ParseDrift("flip=2000,lag=500,diurnal=5000,amp=0.4,burst-len=200,burst-prob=0.1,burst-weight=0.9")
	if err != nil {
		t.Fatalf("ParseDrift: %v", err)
	}
	want := DriftConfig{FlipEvery: 2000, Lag: 500, DiurnalPeriod: 5000, DiurnalAmp: 0.4,
		BurstLen: 200, BurstProb: 0.1, BurstWeight: 0.9}
	if d != want {
		t.Fatalf("ParseDrift = %+v, want %+v", d, want)
	}
	for _, spec := range []string{"", "off"} {
		d, err := ParseDrift(spec)
		if err != nil || !d.Stationary() {
			t.Fatalf("ParseDrift(%q) = %+v, %v; want stationary", spec, d, err)
		}
	}
	for _, bad := range []string{"flip", "flip=x", "amp=2", "nope=1", "burst-weight=1"} {
		if _, err := ParseDrift(bad); err == nil {
			t.Fatalf("ParseDrift(%q) accepted invalid spec", bad)
		}
	}
}
