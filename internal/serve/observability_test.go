package serve

import (
	"strings"
	"sync"
	"testing"
	"time"

	"capnn/internal/core"
	"capnn/internal/metrics"
)

// Every metric the serving layer registers must pass the repo-wide
// naming lint: lowercase snake_case, counters ending in _total, and the
// capnn_serve_ prefix on all serve-owned families.
func TestServeMetricNamingLint(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{})
	defer srv.Close()
	fams := srv.Metrics().Gather()
	if len(fams) == 0 {
		t.Fatal("no metric families registered")
	}
	for _, fam := range fams {
		if !metrics.ValidName(fam.Name) {
			t.Errorf("metric %q fails the naming lint", fam.Name)
		}
		if fam.Kind == metrics.KindCounter && !strings.HasSuffix(fam.Name, "_total") {
			t.Errorf("counter %q must end in _total", fam.Name)
		}
		if !strings.HasPrefix(fam.Name, "capnn_serve_") {
			t.Errorf("serve metric %q missing capnn_serve_ prefix", fam.Name)
		}
	}
}

// Stats() and the registry are two views of the same instruments: under
// concurrent load and concurrent scrapes, counters must be monotone,
// completed must never lead requests, the shed total must equal the sum
// of its reasons, and once the load quiesces the snapshot must agree
// exactly with the exposed series.
func TestStatsRegistryConsistencyUnderLoad(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{})
	defer srv.Close()

	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		var last Stats
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := srv.Stats()
			if s.Requests < last.Requests || s.Completed < last.Completed || s.Shed < last.Shed ||
				s.ForwardFlushes < last.ForwardFlushes || s.GuardTrips < last.GuardTrips || s.Heals < last.Heals {
				t.Errorf("counters went backwards: %+v -> %+v", last, s)
				return
			}
			if s.Completed > s.Requests {
				t.Errorf("completed %d > requests %d: a request was answered before it was counted admitted", s.Completed, s.Requests)
				return
			}
			if s.Shed != s.ShedQueueFull+s.ShedOverQuota+s.ShedExpired {
				t.Errorf("shed total %d != sum of reasons %d+%d+%d",
					s.Shed, s.ShedQueueFull, s.ShedOverQuota, s.ShedExpired)
				return
			}
			var sink strings.Builder
			_ = srv.Metrics().WritePrometheus(&sink)
			last = s
		}
	}()

	combos := [][]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				prefs := core.Uniform(combos[(g+i)%len(combos)])
				if _, err := srv.Infer(prefs, f.sample(t, (g+i)%8)); err != nil {
					t.Errorf("infer: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	scrapeWG.Wait()

	s := srv.Stats()
	if s.Requests != 100 || s.Completed != 100 {
		t.Fatalf("requests=%d completed=%d, want 100/100", s.Requests, s.Completed)
	}

	// Quiesced: every Stats field must match its registry series exactly.
	byName := map[string]metrics.Family{}
	for _, fam := range srv.Metrics().Gather() {
		byName[fam.Name] = fam
	}
	counter := func(name string) uint64 {
		fam, ok := byName[name]
		if !ok || len(fam.Samples) == 0 {
			t.Fatalf("missing family %q", name)
		}
		return uint64(fam.Samples[0].Value)
	}
	hist := func(name string) *metrics.HistSnapshot {
		fam, ok := byName[name]
		if !ok || len(fam.Samples) == 0 || fam.Samples[0].Hist == nil {
			t.Fatalf("missing histogram %q", name)
		}
		return fam.Samples[0].Hist
	}
	if got := counter("capnn_serve_requests_total"); got != s.Requests {
		t.Errorf("requests: registry=%d stats=%d", got, s.Requests)
	}
	if got := counter("capnn_serve_completed_total"); got != s.Completed {
		t.Errorf("completed: registry=%d stats=%d", got, s.Completed)
	}
	if got := counter("capnn_serve_cache_hits_total"); got != s.CacheHits {
		t.Errorf("cache hits: registry=%d stats=%d", got, s.CacheHits)
	}
	fwd := hist("capnn_serve_forward_latency_ns")
	if fwd.Count != s.ForwardFlushes || int64(fwd.Sum) != s.ForwardNs {
		t.Errorf("forward: registry count=%d sum=%v, stats flushes=%d ns=%d",
			fwd.Count, fwd.Sum, s.ForwardFlushes, s.ForwardNs)
	}
	wait := hist("capnn_serve_queue_wait_ns")
	if wait.Count != s.QueueWaitObs {
		t.Errorf("queue-wait observations: registry=%d stats=%d", wait.Count, s.QueueWaitObs)
	}
	// Each completed request waited in a queue exactly once.
	if s.QueueWaitObs != s.Completed {
		t.Errorf("queue-wait obs %d != completed %d", s.QueueWaitObs, s.Completed)
	}
	// The shed-reason series were pre-seeded: present even with no sheds.
	shedFam, ok := byName["capnn_serve_shed_total"]
	if !ok || len(shedFam.Samples) != 3 {
		t.Fatalf("shed family should hold 3 pre-seeded reasons, got %+v", shedFam.Samples)
	}
	// Derived percentiles come from the same histogram the scrape shows.
	if s.ForwardP99 < s.ForwardP50 {
		t.Errorf("p99 %v < p50 %v", s.ForwardP99, s.ForwardP50)
	}
	if s.ForwardFlushes > 0 && s.ForwardP99 <= 0 {
		t.Errorf("forward p99 = %v with %d flushes", s.ForwardP99, s.ForwardFlushes)
	}
}

// Shedding must leave an attributable trail: the reason's counter series
// and a structured event with the same cause.
func TestShedsAreAttributable(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{})
	defer srv.Close()
	prefs := core.Uniform([]int{0, 1})
	_, err := srv.InferQoS(srv.cfg.Variant, prefs, f.sample(t, 0),
		QoS{Deadline: time.Now().Add(-time.Second)})
	if err == nil {
		t.Fatal("expired-at-admission request succeeded")
	}
	s := srv.Stats()
	if s.ShedExpired != 1 || s.Shed != 1 {
		t.Fatalf("shed expired=%d total=%d, want 1/1", s.ShedExpired, s.Shed)
	}
	events := srv.Events().Snapshot(0)
	found := false
	for _, e := range events {
		if e.Type == "shed" && e.Cause == "expired" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no shed/expired event recorded; events = %+v", events)
	}
}
