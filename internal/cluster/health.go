package cluster

import (
	"sync"
	"time"

	"capnn/internal/breaker"
)

// nodeHealth is one shard's breaker plus the route/probe gauges Stats
// reports beside it. Outcomes come from both active health probes
// (OpHealth every ProbeEvery) and live routed traffic. Closed: the node
// is routable; FailThreshold consecutive failures open it. Open: routing
// skips it (failover goes to the key's next replica) until Cooldown
// elapses, when the next attempt — probe or routed request — claims the
// half-open trial, so live traffic as well as the prober can rediscover
// a recovered node.
type nodeHealth struct {
	*breaker.Breaker

	mu                     sync.Mutex
	requests, nodeFailures uint64
	probes, probeFailures  uint64
	probeLatNs             int64 // cumulative successful-probe RTT
	probeSamples           uint64
	lastProbe              time.Duration // last successful probe RTT
}

func newNodeHealth(threshold int, cooldown time.Duration) *nodeHealth {
	return &nodeHealth{Breaker: breaker.New(threshold, cooldown)}
}

// routed counts one routed attempt and feeds its outcome to the breaker.
func (h *nodeHealth) routed(ok bool) {
	h.mu.Lock()
	h.requests++
	if !ok {
		h.nodeFailures++
	}
	h.mu.Unlock()
	h.Record(ok)
}

// probed counts one health probe with its round-trip time and feeds its
// outcome to the breaker.
func (h *nodeHealth) probed(ok bool, rtt time.Duration) {
	h.mu.Lock()
	h.probes++
	if ok {
		h.lastProbe = rtt
		h.probeLatNs += int64(rtt)
		h.probeSamples++
	} else {
		h.probeFailures++
		h.nodeFailures++
	}
	h.mu.Unlock()
	h.Record(ok)
}

// snapshot fills one NodeStats.
func (h *nodeHealth) snapshot() NodeStats {
	b := h.Snapshot()
	h.mu.Lock()
	defer h.mu.Unlock()
	return NodeStats{
		State:         b.State,
		Requests:      h.requests,
		Failures:      h.nodeFailures,
		Probes:        h.probes,
		ProbeFailures: h.probeFailures,
		LastProbe:     h.lastProbe,
		ProbeLatNs:    h.probeLatNs,
		ProbeSamples:  h.probeSamples,
		Opens:         b.Opens,
		Closes:        b.Closes,
		HalfOpens:     b.HalfOpens,
	}
}
