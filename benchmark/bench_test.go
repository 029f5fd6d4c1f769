package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"capnn/internal/cluster"
	"capnn/internal/exp"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in metrics.go and workloads.go")

var (
	fixtureOnce sync.Once
	fixture     *exp.Fixture
	fixtureErr  error
)

func testFixture(t *testing.T) *exp.Fixture {
	t.Helper()
	fixtureOnce.Do(func() { fixture, fixtureErr = exp.Load(exp.CIFAR10Config(), io.Discard) })
	if fixtureErr != nil {
		t.Fatalf("fixture: %v", fixtureErr)
	}
	return fixture
}

func testGenerator(t *testing.T, name string, seed int64) *generator {
	t.Helper()
	sp, ok := specByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	g, err := newGenerator(sp, seed, testFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2}} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("p%v of 1..10 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

// A run reports its best chunk: the lowest cost, the highest throughput.
func TestQuietestIsTheBestChunk(t *testing.T) {
	series := []float64{4.2, 3.6, 9.9, 3.9}
	for _, d := range allEndToEnd {
		want := 3.6
		if d.better == "higher" {
			want = 9.9
		}
		if got := quietest(d, series); got != want {
			t.Errorf("%s (%s is better): best of %v = %v, want %v", d.name, d.better, series, got, want)
		}
		if got := quietest(d, nil); got != 0 {
			t.Errorf("%s: best of no chunks = %v, want 0", d.name, got)
		}
	}
}

// The highest percentile a sample may speak about leaves ten samples
// beyond it: p90 needs 100 samples, p99 needs 1000, the median needs 20.
func TestPercentileSupport(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{100, 90, true}, {99, 90, false}, {1000, 99, true}, {999, 99, false}, {20, 50, true}, {19, 50, false}, {0, 50, false}, {23, 90, false}} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, p%v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

// traceHash folds the first n generated requests — preferences, input
// image and true class — into one FNV hash.
func traceHash(g *generator, n int) uint64 {
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		r := g.at(g.sp.clients[0], i)
		fmt.Fprintf(h, "%s|%d|%d|", r.prefs.Key(), r.class, r.user)
		for _, v := range r.wire.Input[:8] {
			fmt.Fprintf(h, "%x,", math.Float64bits(v))
		}
	}
	return h.Sum64()
}

func TestSeedDeterminesTrace(t *testing.T) {
	for _, sp := range workloads {
		a := traceHash(testGenerator(t, sp.name, 1), 500)
		b := traceHash(testGenerator(t, sp.name, 1), 500)
		c := traceHash(testGenerator(t, sp.name, 2), 500)
		if a != b {
			t.Errorf("%s: seed 1 generated two different traces (%x, %x)", sp.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 generated the same trace (%x)", sp.name, a)
		}
	}
}

func TestColdKeysDistinct(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := testGenerator(t, "cold_users", seed)
		seen := map[string]int{}
		for i := 0; i < 500; i++ {
			r := g.at(cold, i)
			if j, dup := seen[r.prefs.Key()]; dup {
				t.Fatalf("seed %d: requests %d and %d share key %s", seed, j, i, r.prefs.Key())
			}
			seen[r.prefs.Key()] = i
			if k := len(r.prefs.Classes); k < 2 || k > 4 {
				t.Fatalf("seed %d: request %d has %d classes", seed, i, k)
			}
		}
		for _, p := range fixedPrefs() {
			if _, dup := seen[p.Key()]; dup {
				t.Fatalf("seed %d: a fixed preference vector shares its key with a new user", seed)
			}
			seen[p.Key()] = -1
		}
	}
}

// churn_zipf must churn without thrashing: replaying its two streams
// through an LRU per shard on the ring the gateway will build — one new
// key per 40 hot requests, about what the timed window sees — every new
// key misses and the hot keys they evict cost at most a few re-fills.
func TestChurnKeepsHotSetResident(t *testing.T) {
	sp, _ := specByName("churn_zipf")
	addrs := []string{"127.0.0.1:17871", "127.0.0.1:17872", "127.0.0.1:17873"}
	ring, err := cluster.NewRing(0, cluster.DefaultVirtualNodes, addrs)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		g := testGenerator(t, sp.name, seed)
		lru := map[string][]string{} // shard → keys, most recent last
		touch := func(r request) (miss bool) {
			key, err := cluster.RouteKey(r.wire)
			if err != nil {
				t.Fatal(err)
			}
			owner := ring.Owner(key)
			keys := lru[owner]
			miss = true
			for i, k := range keys {
				if k == key {
					keys, miss = append(keys[:i], keys[i+1:]...), false
					break
				}
			}
			keys = append(keys, key)
			if len(keys) > sp.cacheCap {
				keys = keys[1:]
			}
			lru[owner] = keys
			return miss
		}
		for _, r := range g.prewarmRequests() {
			if !touch(r) {
				t.Fatalf("seed %d: pre-warm repeated a key", seed)
			}
		}
		for shard, keys := range lru {
			t.Logf("seed %d: %s holds %d hot keys", seed, shard, len(keys))
		}
		const hotPerCold, colds = 40, 25
		refills := 0
		for j := 0; j < colds; j++ {
			for i := j * hotPerCold; i < (j+1)*hotPerCold; i++ {
				if touch(g.at(hot, i)) {
					refills++
				}
			}
			if !touch(g.at(cold, j)) {
				t.Errorf("seed %d: new key %d was already cached", seed, j)
			}
		}
		t.Logf("seed %d: %d hot re-fills beside %d new keys", seed, refills, colds)
		if refills > 5 {
			t.Errorf("seed %d: %d hot re-fills in %d hot requests: the hot set is thrashing", seed, refills, colds*hotPerCold)
		}
	}
}

// benchmarkJSON mirrors BENCHMARK.json's schema.
type benchmarkJSON struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []jsonNamed  `json:"workloads"`
	EndToEnd   []jsonMetric `json:"end_to_end"`
	PerLayer   []jsonMetric `json:"per_layer"`
}

type jsonNamed struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func wantBenchmarkJSON() benchmarkJSON {
	want := benchmarkJSON{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: 20}
	for _, sp := range workloads {
		if sp.gated {
			want.Workloads = append(want.Workloads, jsonNamed{Name: sp.name, Why: sp.why})
		}
	}
	for _, d := range endToEnd {
		bound := d.bound
		want.EndToEnd = append(want.EndToEnd, jsonMetric{Name: d.name, Unit: d.unit, Better: d.better, Bound: &bound})
	}
	for _, d := range perLayer {
		want.PerLayer = append(want.PerLayer, jsonMetric{Name: d.name, Unit: d.unit, Better: d.better})
	}
	return want
}

func TestBenchmarkJSONMatches(t *testing.T) {
	want, err := json.MarshalIndent(wantBenchmarkJSON(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	path := filepath.Join("..", "BENCHMARK.json")
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s is out of step with metrics.go / workloads.go; run go test -run TestBenchmarkJSONMatches -update", path)
	}
	// The run contract's limits that the tables could break.
	names := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if names[d.name] || len(d.name) > 64 || len(d.unit) > 16 {
			t.Errorf("metric %q: duplicate, or name/unit too long", d.name)
		}
		names[d.name] = true
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's 128 and 16", len(perLayer), len(endToEnd))
	}
	for _, sp := range workloads {
		if len(sp.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", sp.name, len(sp.why))
		}
	}
}

// One pass through every workload on real sockets with a short window,
// the last one traced. About 30 s: the hot workloads personalise their
// eight keys whatever the window.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs real clusters (≈ 30 s)")
	}
	const basePort = 18870
	for p := basePort; p < basePort+4; p++ {
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p))
		if err != nil {
			t.Skipf("port %d is busy: %v", p, err)
		}
		ln.Close()
	}
	for i, sp := range workloads {
		traced := i == len(workloads)-1
		res, err := runWorkload(sp, options{seed: 1, window: 300 * time.Millisecond, trace: traced, basePort: basePort, setups: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.WindowOK == 0 {
			t.Errorf("%s: correct=%v ok=%d violations=%v", sp.name, res.Correct, res.WindowOK, res.Violations)
		}
		for _, d := range endToEnd {
			if v := res.EndToEnd[d.name].Value; !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", sp.name, d.name, v)
			}
		}
		if traced {
			if len(res.PerLayer) != len(perLayer) {
				t.Errorf("%s: %d per-layer metrics, want %d", sp.name, len(res.PerLayer), len(perLayer))
			}
			if _, err := os.Stat(res.SpansFile); err != nil {
				t.Errorf("%s: spans file: %v", sp.name, err)
			}
		}
	}
}
