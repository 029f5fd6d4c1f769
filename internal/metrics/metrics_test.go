package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("capnn_test_requests_total", "requests")
	g := r.Gauge("capnn_test_queue_depth", "depth")
	c.Inc()
	c.Add(4)
	g.Set(7.5)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if g.Value() != 7.5 {
		t.Fatalf("gauge = %v, want 7.5", g.Value())
	}
}

func TestVecChildrenAndEach(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("capnn_test_shed_total", "sheds", "reason")
	v.With("queue-full").Add(3)
	v.With("expired").Inc()
	v.With("queue-full").Inc()
	got := map[string]uint64{}
	v.Each(func(values []string, value uint64) { got[values[0]] = value })
	if got["queue-full"] != 4 || got["expired"] != 1 {
		t.Fatalf("vec children = %v", got)
	}
}

func TestHistogramSumCountQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("capnn_test_latency_ns", "latency", LatencyBucketsNs())
	var want float64
	for i := 1; i <= 1000; i++ {
		v := float64(i) * 1e6 // 1ms..1000ms
		h.Observe(v)
		want += v
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != want {
		t.Fatalf("sum = %v, want %v (must be exact for integer ns)", h.Sum(), want)
	}
	// p50 should land near 500ms, p99 near 990ms — bucket interpolation
	// is coarse, so accept the owning bucket's range.
	p50 := h.Quantile(0.50)
	if p50 < 2.5e8 || p50 > 7.5e8 {
		t.Fatalf("p50 = %v, want ~5e8", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 5e8 || p99 > 1.2e9 {
		t.Fatalf("p99 = %v, want ~1e9", p99)
	}
	if q := h.Quantile(1); q <= 0 {
		t.Fatalf("p100 = %v", q)
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("capnn_test_empty_ns", "empty", []float64{1, 2})
	if q := h.Quantile(0.99); q != 0 {
		t.Fatalf("empty histogram p99 = %v, want 0", q)
	}
}

func TestFuncMetricsAndCollector(t *testing.T) {
	r := NewRegistry()
	n := uint64(41)
	r.CounterFunc("capnn_test_transitions_total", "transitions", func() uint64 { return n })
	r.GaugeFunc("capnn_test_entries", "entries", func() float64 { return 3 })
	r.Collector(func(emit Emit) {
		emit("capnn_test_node_requests_total", "per node", KindCounter, Labels{{Name: "node", Value: "a"}}, 7)
		emit("capnn_test_node_requests_total", "per node", KindCounter, Labels{{Name: "node", Value: "b"}}, 9)
	})
	n = 42
	fams := r.Gather()
	byName := map[string]Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	if v := byName["capnn_test_transitions_total"].Samples[0].Value; v != 42 {
		t.Fatalf("counter func = %v", v)
	}
	if v := byName["capnn_test_entries"].Samples[0].Value; v != 3 {
		t.Fatalf("gauge func = %v", v)
	}
	nodes := byName["capnn_test_node_requests_total"]
	if len(nodes.Samples) != 2 {
		t.Fatalf("collector family has %d samples", len(nodes.Samples))
	}
}

// The metric-naming lint: the registry must reject anything outside the
// repo convention at registration time, so a bad name can never reach a
// /metrics scrape.
func TestNamingLint(t *testing.T) {
	valid := []string{"capnn_serve_requests_total", "a", "x9_y", "capnn_gateway_node_state"}
	for _, n := range valid {
		if !ValidName(n) {
			t.Errorf("ValidName(%q) = false, want true", n)
		}
	}
	invalid := []string{"", "Capnn_total", "9lead", "_lead", "has-dash", "has space", "UPPER", "ünïcode"}
	for _, n := range invalid {
		if ValidName(n) {
			t.Errorf("ValidName(%q) = true, want false", n)
		}
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	mustPanic("invalid name", func() { r.Counter("Bad-Name_total", "") })
	mustPanic("counter without _total", func() { r.Counter("capnn_test_requests", "") })
	r.Gauge("capnn_test_ok", "")
	mustPanic("duplicate", func() { r.Gauge("capnn_test_ok", "") })
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("capnn_test_requests_total", "Total requests.")
	c.Add(3)
	v := r.CounterVec("capnn_test_shed_total", "Sheds by reason.", "reason")
	v.With("queue-full").Add(2)
	h := r.Histogram("capnn_test_wait_ns", "Wait.", []float64{100, 200})
	h.Observe(50)
	h.Observe(150)
	h.Observe(1000)
	g := r.Gauge("capnn_test_depth", "Depth.")
	g.Set(1.5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE capnn_test_requests_total counter",
		"capnn_test_requests_total 3",
		`capnn_test_shed_total{reason="queue-full"} 2`,
		"# TYPE capnn_test_wait_ns histogram",
		`capnn_test_wait_ns_bucket{le="100"} 1`,
		`capnn_test_wait_ns_bucket{le="200"} 2`,
		`capnn_test_wait_ns_bucket{le="+Inf"} 3`,
		"capnn_test_wait_ns_sum 1200",
		"capnn_test_wait_ns_count 3",
		"capnn_test_depth 1.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestWriteSummaryRendersDurations(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("capnn_test_forward_latency_ns", "fwd", LatencyBucketsNs())
	h.Observe(float64(5 * time.Millisecond))
	r.Counter("capnn_test_requests_total", "req").Add(9)
	var b strings.Builder
	if err := r.WriteSummary(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "capnn_test_requests_total: value=9") {
		t.Errorf("summary missing counter line:\n%s", out)
	}
	if !strings.Contains(out, "count=1") || !strings.Contains(out, "ms") {
		t.Errorf("summary histogram line should render durations:\n%s", out)
	}
}

// Concurrent writers and scrapers: every gather must observe monotone
// counters, and histogram sums must equal the running total of
// observations once writers stop — the registry half of the
// Stats()/registry consistency invariant.
func TestConcurrentWritersAndScrapes(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("capnn_test_requests_total", "")
	v := r.CounterVec("capnn_test_shed_total", "", "reason")
	h := r.Histogram("capnn_test_wait_ns", "", LatencyBucketsNs())

	const writers = 8
	const perWriter = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Scrapers assert monotonicity while writes are in flight.
	var scrapeWG sync.WaitGroup
	for i := 0; i < 2; i++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			var lastC, lastH uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := h.Snapshot()
				cv := c.Value()
				if cv < lastC {
					t.Errorf("counter went backwards: %d -> %d", lastC, cv)
					return
				}
				if snap.Count < lastH {
					t.Errorf("histogram count went backwards: %d -> %d", lastH, snap.Count)
					return
				}
				var bucketTotal uint64
				for _, n := range snap.Counts {
					bucketTotal += n
				}
				if bucketTotal != snap.Count {
					t.Errorf("bucket total %d != count %d", bucketTotal, snap.Count)
					return
				}
				lastC, lastH = cv, snap.Count
				var sink strings.Builder
				_ = r.WritePrometheus(&sink)
			}
		}()
	}

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Inc()
				v.With([]string{"queue-full", "expired", "over-quota"}[i%3]).Inc()
				h.Observe(float64((i%100 + 1) * 1000))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	scrapeWG.Wait()

	if c.Value() != writers*perWriter {
		t.Fatalf("counter = %d, want %d", c.Value(), writers*perWriter)
	}
	if h.Count() != writers*perWriter {
		t.Fatalf("histogram count = %d, want %d", h.Count(), writers*perWriter)
	}
	var shed uint64
	v.Each(func(_ []string, n uint64) { shed += n })
	if shed != writers*perWriter {
		t.Fatalf("shed vec total = %d, want %d", shed, writers*perWriter)
	}
	// Sum must be the exact integer total (float64 exactness for ns).
	var want float64
	for i := 0; i < perWriter; i++ {
		want += float64((i%100 + 1) * 1000)
	}
	want *= writers
	if h.Sum() != want {
		t.Fatalf("histogram sum = %v, want %v", h.Sum(), want)
	}
	if math.IsNaN(h.Quantile(0.99)) {
		t.Fatal("p99 is NaN")
	}
}
