package serve

import (
	"time"

	"capnn/internal/core"
	"capnn/internal/nn"
)

// The compiled plan is the only thing the serving tier runs. Every cache
// entry owns one nn.Compiled built from its masks (probe-verified
// bit-identical to masked inference by nn.Compile itself) before the fill
// publishes it; the server owns one more, compiled from no masks, for the
// ε-guard's unpruned traffic. CacheCap is the memory bound: plans × one
// model's plan size, both fixed per server.

// newEntry builds the cache entry a fill publishes for masks: its guard
// and its compiled plan, both in place before anyone can read the entry.
// Masks nn.Compile rejects pin the entry to the unpruned plan: a degraded
// answer, counted and logged, never a client-visible error.
func (s *Server) newEntry(v core.Variant, prefs core.Preferences, key string, masks map[int][]bool) (*maskEntry, error) {
	guard, err := s.newGuard(prefs)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	plan, err := nn.Compile(s.sys.Net, masks)
	s.st.compiled(time.Since(start), err)
	if err != nil {
		s.events.Record("compile-failed", key, err.Error(), nil)
		plan = s.unpruned
	}
	return &maskEntry{key: key, variant: v, prefs: prefs, masks: masks, guard: guard, plan: plan}, nil
}

// residentPlans sums the plans cache entries hold resident memory for:
// an entry pinned to the shared unpruned plan holds none.
func (s *Server) residentPlans() (bytes int64, entries int) {
	for _, e := range s.cache.snapshot() {
		if e.plan != s.unpruned {
			bytes += e.plan.Bytes()
			entries++
		}
	}
	return bytes, entries
}
