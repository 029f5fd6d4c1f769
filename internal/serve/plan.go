package serve

import (
	"time"

	"capnn/internal/nn"
)

// The compiled plan is the only thing the serving tier runs. Every cache
// entry owns at most one nn.Compiled built from its masks (probe-verified
// bit-identical to masked inference by nn.Compile itself); the server owns
// one more, compiled from no masks, for the ε-guard's unpruned traffic.
// An entry's plan is either present or absent: absent entries (restored
// or imported) are compiled by the request that next needs them. CacheCap
// is the memory bound: plans × one model's plan size, both fixed per
// server.

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
	e.plan.CompareAndSwap(nil, p)
	return p // a racer that lost the publish serves its own identical plan once
}

// residentPlans sums the plans cache entries hold resident memory for:
// an entry with no plan yet, or pinned to the shared unpruned plan, holds
// none.
func (s *Server) residentPlans() (bytes int64, entries int) {
	for _, e := range s.cache.snapshot() {
		if p := e.plan.Load(); p != nil && p != s.unpruned {
			bytes += p.Bytes()
			entries++
		}
	}
	return bytes, entries
}
