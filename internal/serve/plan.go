package serve

import (
	"time"

	"capnn/internal/core"
)

// The compiled plan is the only thing the serving tier runs. The server
// lowers the base network's layers before the first prunable stage once,
// as an nn.Prefix: CAP'NN never prunes them, so they are the same for
// every key. Every cache entry owns one nn.Compiled of the layers after
// it, built from its masks (probe-verified bit-identical to masked
// inference by the compile itself) before the fill publishes it; the
// server owns one more, compiled from no masks, for the ε-guard's
// unpruned traffic. All of them run the one prefix plan first. CacheCap
// is the memory bound: the prefix plus plans × one suffix's size, all
// fixed per server.

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
	plan, err := s.prefix.Compile(masks)
	s.st.compiled(time.Since(start), err)
	if err != nil {
		s.events.Record("compile-failed", key, err.Error())
		plan = s.unpruned
	}
	return &maskEntry{key: key, variant: v, prefs: prefs, masks: masks, guard: guard, plan: plan}, nil
}

// residentPlans sums the plans cache entries hold resident memory for:
// each entry's suffix, and the prefix they share once when any entry has
// a plan of its own. An entry pinned to the shared unpruned plan holds
// none.
func (s *Server) residentPlans() (bytes int64, entries int) {
	for _, e := range s.cache.snapshot() {
		if e.plan != s.unpruned {
			bytes += e.plan.Bytes()
			entries++
		}
	}
	if entries > 0 {
		bytes += s.prefix.Bytes()
	}
	return bytes, entries
}
