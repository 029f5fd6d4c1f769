package serve

import (
	"time"

	"capnn/internal/nn"
)

// The compiled plan is the only thing the serving tier runs. Every cache
// entry owns at most one nn.Compiled built from its masks (probe-verified
// bit-identical to masked inference by nn.Compile itself); the server owns
// one more, compiled from no masks, for the ε-guard's unpruned traffic.
// An entry's plan is either present or absent: absent entries (restored,
// imported, or trimmed by the byte budget) are compiled by the request
// that next needs them.

// planFor returns the plan requests under e run on, compiling it on the
// calling goroutine when the entry has none. Concurrent callers may both
// compile, but only one plan is ever published. An entry whose masks
// nn.Compile rejects is pinned to the unpruned plan: a degraded answer,
// never a client-visible error.
func (s *Server) planFor(e *maskEntry) *nn.Compiled {
	if p := e.plan.Load(); p != nil {
		return p
	}
	start := time.Now()
	p, err := nn.Compile(s.sys.Net, e.masks)
	s.st.compiled(time.Since(start), err)
	if err != nil {
		s.events.Record("compile-failed", e.key, err.Error(), nil)
		p = s.unpruned
	}
	if e.plan.CompareAndSwap(nil, p) {
		s.trimPlans(e)
	}
	return p // a racer that lost the publish serves its own identical plan once
}

// ownPlan is the plan e holds resident memory for: nil when it has none
// or is pinned to the shared unpruned plan.
func (s *Server) ownPlan(e *maskEntry) *nn.Compiled {
	if p := e.plan.Load(); p != s.unpruned {
		return p
	}
	return nil
}

// residentPlans sums the cache's entry-owned plans.
func (s *Server) residentPlans() (bytes int64, entries int) {
	for _, e := range s.cache.snapshot() {
		if p := s.ownPlan(e); p != nil {
			bytes += p.Bytes()
			entries++
		}
	}
	return bytes, entries
}

// trimPlans enforces the byte budget after keep published a plan: plans
// are dropped in cache-LRU order (coldest first, masks stay cached) until
// the resident total fits. keep is spared — and uncounted while its fill
// has not inserted it yet — so the bound is budget plus one plan and a
// budget below one plan cannot thrash.
func (s *Server) trimPlans(keep *maskEntry) {
	budget := s.cfg.CompiledBudgetBytes
	if budget <= 0 {
		return
	}
	total, _ := s.residentPlans()
	for _, victim := range s.cache.snapshot() {
		if total <= budget {
			return
		}
		p := s.ownPlan(victim)
		if p == nil || victim == keep || !victim.plan.CompareAndSwap(p, nil) {
			continue
		}
		total -= p.Bytes()
		s.st.compiledEvicted()
		s.events.Record("compiled-evicted", victim.key, "compiled-bytes budget", nil)
	}
}
