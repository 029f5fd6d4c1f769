package capnn

import (
	"fmt"
	"hash/fnv"
	"sync"
	"testing"

	"capnn/internal/data"
	"capnn/internal/workload"
)

// The workload engine extends the determinism contract pinned by
// determinism_test.go to trace generation: event i is a pure function
// of (config, i), so a seeded trace is bit-identical whether it is
// generated serially by one cursor or sharded across goroutines each
// holding their own model — exactly how capnn-loadgen's workers split
// a run. A golden hash pins the stream against accidental generator
// changes: evolving the workload model is a breaking change for
// recorded scorecards and must be deliberate.

func workloadDeterminismConfig(t testing.TB) workload.Config {
	t.Helper()
	drift, err := workload.ParseDrift("flip=500,lag=125,diurnal=2000,burst-len=64")
	if err != nil {
		t.Fatal(err)
	}
	return workload.Config{
		// A million users proves the population never materializes: the
		// model is O(1) in Users, only the drawn events exist.
		Users:   1_000_000,
		Classes: 10,
		Groups:  data.DefaultSynthConfig(10).ClassGroups(),
		Seed:    11,
		Drift:   drift,
	}
}

// workloadEventHash folds one event into h in a canonical textual form
// (mirrors the hash in internal/workload's golden test).
func workloadEventHash(h interface{ Write([]byte) (int, error) }, ev workload.Event) {
	fmt.Fprintf(h, "%d|%d|%s|%d|%t\n", ev.Index, ev.User, ev.Prefs.Key(), ev.Class, ev.Drifted)
}

func TestWorkloadTraceBitIdenticalAcrossShardings(t *testing.T) {
	const n = 512
	cfg := workloadDeterminismConfig(t)

	serialModel, err := workload.NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serial := make([]workload.Event, n)
	for i := range serial {
		serial[i] = serialModel.At(uint64(i))
	}

	// Shard the same index space across 7 goroutines in contiguous
	// blocks (the loadgen worker split), each with its own model built
	// from the same config.
	const workers = 7
	sharded := make([]workload.Event, n)
	var wg sync.WaitGroup
	next := 0
	for w := 0; w < workers; w++ {
		share := n / workers
		if w < n%workers {
			share++
		}
		base := next
		next += share
		wg.Add(1)
		go func(base, share int) {
			defer wg.Done()
			m, err := workload.NewModel(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			for i := base; i < base+share; i++ {
				sharded[i] = m.At(uint64(i))
			}
		}(base, share)
	}
	wg.Wait()

	for i := range serial {
		a, b := serial[i], sharded[i]
		if a.Index != b.Index || a.User != b.User || a.Class != b.Class ||
			a.Drifted != b.Drifted || a.Prefs.Key() != b.Prefs.Key() {
			t.Fatalf("event %d differs between serial and sharded generation:\n serial: %+v\nsharded: %+v", i, a, b)
		}
	}
}

func TestWorkloadGoldenTraceHash(t *testing.T) {
	const n = 512
	m, err := workload.NewModel(workloadDeterminismConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		workloadEventHash(h, m.At(uint64(i)))
	}
	const want = uint64(0xbe7940b427aa8178)
	if got := h.Sum64(); got != want {
		t.Fatalf("golden trace hash = %#x, want %#x — the workload generator's output changed; "+
			"if deliberate, re-pin (recorded scorecards are no longer comparable)", got, want)
	}
}

// A fresh model that starts mid-trace agrees with one that walked there
// from event 0 — a resumed replay (loadgen restarting mid-trace)
// continues the exact same trace, whatever the first model memoised.
func TestWorkloadStreamResumesMidTrace(t *testing.T) {
	cfg := workloadDeterminismConfig(t)
	walked, err := workload.NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := workload.NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const start, n = 300, 64
	for i := 0; i < start; i++ {
		walked.At(uint64(i))
	}
	for i := 0; i < n; i++ {
		got := m.At(uint64(start + i))
		want := walked.At(uint64(start + i))
		if got.Index != want.Index || got.User != want.User || got.Class != want.Class ||
			got.Prefs.Key() != want.Prefs.Key() {
			t.Fatalf("resumed stream event %d = %+v, want %+v", start+i, got, want)
		}
	}
}
