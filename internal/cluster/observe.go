package cluster

import (
	"fmt"
	"math"
	"sync"
	"time"

	"capnn/internal/cloud"
	"capnn/internal/metrics"
	"capnn/internal/metrics/anomaly"
	"capnn/internal/serve"
)

// observer is the gateway's shard-telemetry collector: on a fixed
// cadence it scrapes each member shard's Stats over the same pooled
// connections traffic uses, turns consecutive cumulative snapshots into
// interval signals (QPS, mean forward latency, cache hit ratio,
// guard-trip rate), and feeds them to the anomaly detector. A flagged
// shard surfaces three ways at once — the capnn_gateway_shard_anomaly
// gauge, a structured event, and /debug/cluster — before hard failures
// would open the shard's health breaker.
//
// Scrape failures only skip the sample; they never feed the health
// breaker (the prober owns liveness — a slow stats endpoint must not
// fail a shard out of the ring).
type observer struct {
	g     *Gateway
	det   *anomaly.Detector
	gauge *metrics.GaugeVec

	// now and scrape are injectable so tests can drive collection with
	// a fake clock against canned shard snapshots.
	now    func() time.Time
	scrape func(ns *nodeState, deadline time.Time) (serve.Stats, error)

	mu   sync.Mutex
	prev map[string]shardSample
}

// shardSample is one shard's last cumulative snapshot with its scrape
// time — the baseline the next interval's deltas are computed against.
type shardSample struct {
	at time.Time
	st serve.Stats
}

func newObserver(g *Gateway, cfg anomaly.Config, gauge *metrics.GaugeVec) *observer {
	o := &observer{
		g:     g,
		det:   anomaly.New(cfg),
		gauge: gauge,
		now:   time.Now,
		prev:  map[string]shardSample{},
	}
	o.scrape = o.scrapeShard
	return o
}

// scrapeShard fetches one shard's Stats over a kept connection.
func (o *observer) scrapeShard(ns *nodeState, deadline time.Time) (serve.Stats, error) {
	req := &serve.WireRequest{Version: cloud.ProtocolVersion, Op: serve.OpStats}
	resp, err := ns.wire.Do(req, deadline)
	if err != nil {
		return serve.Stats{}, err
	}
	if resp.Code != cloud.CodeOK || resp.Stats == nil {
		return serve.Stats{}, fmt.Errorf("stats scrape: [%s] %s", resp.Code, resp.Err)
	}
	return *resp.Stats, nil
}

// collectOnce runs one collection round over the current membership.
func (o *observer) collectOnce() {
	o.g.nodesMu.RLock()
	states := make([]*nodeState, 0, len(o.g.nodes))
	for _, ns := range o.g.nodes {
		states = append(states, ns)
	}
	o.g.nodesMu.RUnlock()

	deadline := o.now().Add(o.g.cfg.ProbeTimeout)
	for _, ns := range states {
		st, err := o.scrape(ns, deadline)
		if err != nil {
			continue // skipped sample; liveness is the prober's call
		}
		o.observe(ns.addr, o.now(), st)
	}

	// Drop state for departed shards so a re-joining node starts fresh.
	current := map[string]bool{}
	for _, ns := range states {
		current[ns.addr] = true
	}
	o.mu.Lock()
	var gone []string
	for addr := range o.prev {
		if !current[addr] {
			gone = append(gone, addr)
			delete(o.prev, addr)
		}
	}
	o.mu.Unlock()
	for _, addr := range gone {
		o.det.Forget(addr)
		o.gauge.Delete(addr)
	}
}

// observe folds one cumulative snapshot into the shard's interval
// series and judges it.
func (o *observer) observe(addr string, at time.Time, st serve.Stats) {
	o.mu.Lock()
	last, ok := o.prev[addr]
	o.prev[addr] = shardSample{at: at, st: st}
	o.mu.Unlock()
	if !ok {
		return // first scrape: no interval yet
	}
	dt := at.Sub(last.at).Seconds()
	if dt <= 0 {
		return
	}
	sample := intervalSample(last.st, st, dt)
	v := o.det.Observe(addr, sample)
	if v.Flagged {
		o.gauge.With(addr).Set(1)
	} else {
		o.gauge.With(addr).Set(0)
	}
	switch v.Transition {
	case anomaly.TransitionFlagged:
		o.g.events.Record("shard-anomaly", addr, v.String(), nil)
	case anomaly.TransitionCleared:
		o.g.events.Record("shard-anomaly-cleared", addr, v.String(), nil)
	}
}

// intervalSample converts two cumulative shard snapshots dt seconds
// apart into the detector's interval signals.
func intervalSample(prev, cur serve.Stats, dt float64) anomaly.Sample {
	s := anomaly.Sample{
		QPS:        delta(cur.Completed, prev.Completed) / dt,
		GuardTrips: delta(cur.GuardTrips, prev.GuardTrips) / dt,
		HitRatio:   math.NaN(),
	}
	if flushes := cur.ForwardFlushes - prev.ForwardFlushes; cur.ForwardFlushes > prev.ForwardFlushes {
		s.Latency = time.Duration((cur.ForwardNs - prev.ForwardNs) / int64(flushes))
	}
	lookups := delta(cur.CacheHits+cur.CacheMisses+cur.SingleflightShared,
		prev.CacheHits+prev.CacheMisses+prev.SingleflightShared)
	if lookups > 0 {
		s.HitRatio = delta(cur.CacheHits, prev.CacheHits) / lookups
	}
	return s
}

// delta is a counter difference guarded against restarts (a shard that
// restarted reports smaller cumulative counts; the interval is junk, so
// clamp to zero rather than underflow).
func delta(cur, prev uint64) float64 {
	if cur < prev {
		return 0
	}
	return float64(cur - prev)
}

// Status returns the latest per-shard verdicts.
func (o *observer) status() map[string]anomaly.Verdict { return o.det.Status() }

// ClusterView is the gateway's /debug/cluster document: membership,
// per-node health, and the anomaly detector's current verdicts.
type ClusterView struct {
	RingVersion uint64   `json:"ring_version"`
	Epoch       uint64   `json:"epoch"`
	Members     []string `json:"members"`

	// Rebalancing totals (across join/leave): keys whose owner changed,
	// warm entries installed by handoff, handoffs abandoned to cold
	// refill.
	KeysMoved       uint64 `json:"keys_moved"`
	HandoffEntries  uint64 `json:"handoff_entries"`
	HandoffFailures uint64 `json:"handoff_failures"`

	Nodes     map[string]NodeView        `json:"nodes"`
	Anomalies map[string]anomaly.Verdict `json:"anomalies,omitempty"`
}

// NodeView is one node's health as JSON.
type NodeView struct {
	State         string  `json:"state"`
	Requests      uint64  `json:"requests"`
	Failures      uint64  `json:"failures"`
	Probes        uint64  `json:"probes"`
	ProbeFailures uint64  `json:"probe_failures"`
	LastProbeMs   float64 `json:"last_probe_ms"`
	MeanProbeMs   float64 `json:"mean_probe_ms"`
	Opens         uint64  `json:"opens"`
}

// ClusterView snapshots the cluster as the gateway sees it.
func (g *Gateway) ClusterView() ClusterView {
	st := g.Stats()
	view := ClusterView{
		RingVersion:     st.RingVersion,
		Epoch:           st.RingVersion,
		Members:         st.Members,
		KeysMoved:       st.KeysMoved,
		HandoffEntries:  st.HandoffEntries,
		HandoffFailures: st.HandoffFailures,
		Nodes:           make(map[string]NodeView, len(st.Nodes)),
	}
	for addr, ns := range st.Nodes {
		view.Nodes[addr] = NodeView{
			State:         string(ns.State),
			Requests:      ns.Requests,
			Failures:      ns.Failures,
			Probes:        ns.Probes,
			ProbeFailures: ns.ProbeFailures,
			LastProbeMs:   float64(ns.LastProbe) / float64(time.Millisecond),
			MeanProbeMs:   float64(ns.MeanProbe()) / float64(time.Millisecond),
			Opens:         ns.Opens,
		}
	}
	if g.obs != nil {
		if anomalies := g.obs.status(); len(anomalies) > 0 {
			view.Anomalies = anomalies
		}
	}
	return view
}
