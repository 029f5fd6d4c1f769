package serve

import (
	"time"

	"capnn/internal/breaker"
	"capnn/internal/metrics"
)

// Stats is a point-in-time snapshot of a Server's serving metrics, read
// off the registry's instruments; capnn-serve's /debug/stats serves it as
// JSON. All counters are cumulative since the server started; QueueDepth
// and CacheEntries are instantaneous.
type Stats struct {
	// Requests counts admitted inference requests; Completed counts the
	// subset that produced a response (success or per-request failure);
	// Shed counts requests rejected with a typed shedding code, broken
	// down by reason: ShedQueueFull (CodeBusy, queue bound reached),
	// ShedOverQuota (CodeOverQuota, bulk lane yielding under pressure),
	// ShedExpired (CodeExpired, deadline passed at admission or while
	// queued — the expire-in-queue path that keeps dead requests away
	// from forwards).
	Requests, Completed, Shed                 uint64
	ShedQueueFull, ShedOverQuota, ShedExpired uint64

	// CacheHits/CacheMisses classify mask-cache lookups; a miss runs a
	// personalization. SingleflightShared counts lookups that joined an
	// in-flight personalization instead of starting their own.
	// CacheEvictions counts LRU evictions; CacheEntries is the current
	// resident count.
	CacheHits, CacheMisses, SingleflightShared, CacheEvictions uint64
	CacheEntries                                               int

	// Deprecated: there is no batcher — every forward carries one request,
	// so Batches == ForwardFlushes and BatchHistogram == {1: Batches}. The
	// fields stay only because the frozen benchmark's ledger reads them.
	Batches        uint64
	BatchHistogram map[int]uint64

	// QueueDepth is the number of admitted requests not yet completed.
	QueueDepth int

	// Per-stage cumulative latencies with their sample counts:
	// Personalize covers System.Prune runs (cache misses only),
	// QueueWait covers admission→forward slot and Forward the compiled-plan
	// forward, one observation each per forwarded request (ForwardFlushes
	// is that count). The totals are derived from the
	// registry's per-stage histograms (integer nanoseconds accumulate
	// exactly in a float64 sum), so this snapshot and a /metrics scrape
	// report the same numbers.
	PersonalizeNs, QueueWaitNs, ForwardNs         int64
	PersonalizeRuns, QueueWaitObs, ForwardFlushes uint64

	// Estimated per-stage tail latencies, interpolated from the same
	// histograms a /metrics scrape exposes (zero when the stage never
	// ran).
	PersonalizeP99                     time.Duration
	QueueWaitP99                       time.Duration
	ForwardP50, ForwardP95, ForwardP99 time.Duration

	// Compiled inference: Compiles counts finished per-entry compile
	// attempts and CompileErrors the failed subset (those entries run the
	// unpruned plan); CompiledDispatched counts requests answered on their
	// entry's own plan (unpruned guard traffic is not counted).
	// CompiledBytes / CompiledEntries are the instantaneous resident
	// compiled-weight bytes and the entries with a plan of their own: each
	// such entry's suffix, plus the prefix they share once.
	Compiles, CompileErrors uint64
	CompiledDispatched      uint64
	CompileNs               int64
	CompiledBytes           int64
	CompiledEntries         int
	// Deprecated: always 0 — the masked dispatch path is gone. The field
	// stays only because the frozen benchmark's ledger reads it.
	MaskedFallback uint64

	// Self-healing: GuardTrips counts ε-guard trips (one per tripped
	// entry); FallbackServed counts requests served through the
	// unpruned network because their entry had tripped; Heals counts
	// repersonalizations published by the heal path and HealFailures its
	// failed attempts (breaker-recorded).
	GuardTrips, FallbackServed, Heals, HealFailures uint64

	// Tripped lists the resident entries serving fallback right now,
	// each with the evidence its guard is judging (a trip's evidence at
	// the moment it fired is in the event log).
	Tripped []TripReport

	// Circuit breaker: instantaneous state plus cumulative transition
	// counts into each state.
	BreakerState                                  breaker.State
	BreakerOpens, BreakerCloses, BreakerHalfOpens uint64
}

// Shed reason labels, shared by the counter family, shed events, and
// the gateway's per-tenant accounting.
const (
	shedReasonQueueFull = "queue-full"
	shedReasonOverQuota = "over-quota"
	shedReasonExpired   = "expired"
)

// stats is the live accumulator behind Stats snapshots. It publishes
// straight into metrics instruments — the same series /metrics exposes —
// so a Stats snapshot, a SIGINT dump, and a Prometheus scrape can never
// disagree.
type stats struct {
	events *metrics.EventLog

	reqC, compC                  *metrics.Counter
	shedVec                      *metrics.CounterVec
	hitC, missC, sharedC, evictC *metrics.Counter
	persH, waitH, fwdH           *metrics.Histogram
	guardC, fallbackC            *metrics.Counter
	healC, healFailC             *metrics.Counter
	compileC, compileErrC        *metrics.Counter
	compileH                     *metrics.Histogram
	compDispC                    *metrics.Counter
}

// newStatsOn builds the accumulator's instruments on the given registry
// and routes its events to the given log.
func newStatsOn(reg *metrics.Registry, events *metrics.EventLog) *stats {
	st := &stats{
		events: events,

		reqC:    reg.Counter("capnn_serve_requests_total", "Admitted inference requests."),
		compC:   reg.Counter("capnn_serve_completed_total", "Requests that produced a response."),
		shedVec: reg.CounterVec("capnn_serve_shed_total", "Requests shed with a typed code, by reason.", "reason"),
		hitC:    reg.Counter("capnn_serve_cache_hits_total", "Mask-cache hits."),
		missC:   reg.Counter("capnn_serve_cache_misses_total", "Mask-cache misses (each runs a personalization)."),
		sharedC: reg.Counter("capnn_serve_singleflight_shared_total", "Lookups that joined an in-flight personalization."),
		evictC:  reg.Counter("capnn_serve_cache_evictions_total", "Mask-cache LRU evictions."),
		persH:   reg.Histogram("capnn_serve_personalize_latency_ns", "System.Prune latency per cache fill.", metrics.LatencyBucketsNs()),
		waitH:   reg.Histogram("capnn_serve_queue_wait_ns", "Per-request wait from admission to a forward slot.", metrics.LatencyBucketsNs()),
		fwdH:    reg.Histogram("capnn_serve_forward_latency_ns", "Compiled-plan forward latency per request.", metrics.LatencyBucketsNs()),

		guardC:    reg.Counter("capnn_serve_guard_trips_total", "Epsilon-guard trips (one per tripped entry)."),
		fallbackC: reg.Counter("capnn_serve_fallback_served_total", "Requests served through the unpruned network after a trip."),
		healC:     reg.Counter("capnn_serve_heals_total", "Repersonalizations published by the heal path."),
		healFailC: reg.Counter("capnn_serve_heal_failures_total", "Failed heal attempts (breaker-recorded)."),

		compileC:    reg.Counter("capnn_serve_compile_total", "Finished mask-entry compile attempts."),
		compileErrC: reg.Counter("capnn_serve_compile_errors_total", "Compile attempts that failed (entry runs the unpruned plan)."),
		compileH:    reg.Histogram("capnn_serve_compile_latency_ns", "nn.Compile latency per mask entry.", metrics.LatencyBucketsNs()),
		compDispC:   reg.Counter("capnn_serve_compiled_dispatch_total", "Requests answered on their entry's own compiled plan."),
	}
	// Pre-seed every shed reason so the series exist in a scrape before
	// the first shed (the cluster smoke test greps for them mid-load).
	for _, reason := range []string{shedReasonQueueFull, shedReasonOverQuota, shedReasonExpired} {
		st.shedVec.With(reason)
	}
	return st
}

func (st *stats) snapshot(cacheEntries, queueDepth int) Stats {
	pers := st.persH.Snapshot()
	wait := st.waitH.Snapshot()
	fwd := st.fwdH.Snapshot()
	// Completed is read before Requests: admission is counted before the
	// request can complete, so in this order no snapshot taken mid-load
	// shows Completed > Requests.
	completed := st.compC.Value()
	out := Stats{
		Requests:  st.reqC.Value(),
		Completed: completed,

		ShedQueueFull: st.shedVec.With(shedReasonQueueFull).Value(),
		ShedOverQuota: st.shedVec.With(shedReasonOverQuota).Value(),
		ShedExpired:   st.shedVec.With(shedReasonExpired).Value(),

		CacheHits:          st.hitC.Value(),
		CacheMisses:        st.missC.Value(),
		SingleflightShared: st.sharedC.Value(),
		CacheEvictions:     st.evictC.Value(),
		CacheEntries:       cacheEntries,

		Batches:        fwd.Count,
		BatchHistogram: map[int]uint64{1: fwd.Count},
		QueueDepth:     queueDepth,

		PersonalizeNs: int64(pers.Sum), PersonalizeRuns: pers.Count,
		QueueWaitNs: int64(wait.Sum), QueueWaitObs: wait.Count,
		ForwardNs: int64(fwd.Sum), ForwardFlushes: fwd.Count,

		PersonalizeP99: time.Duration(pers.Quantile(0.99)),
		QueueWaitP99:   time.Duration(wait.Quantile(0.99)),
		ForwardP50:     time.Duration(fwd.Quantile(0.50)),
		ForwardP95:     time.Duration(fwd.Quantile(0.95)),
		ForwardP99:     time.Duration(fwd.Quantile(0.99)),

		Compiles:           st.compileC.Value(),
		CompileErrors:      st.compileErrC.Value(),
		CompileNs:          int64(st.compileH.Sum()),
		CompiledDispatched: st.compDispC.Value(),

		GuardTrips:     st.guardC.Value(),
		FallbackServed: st.fallbackC.Value(),
		Heals:          st.healC.Value(),
		HealFailures:   st.healFailC.Value(),
	}
	// The shed total is derived as the sum of its reasons, so the
	// invariant Shed == queue-full + over-quota + expired holds by
	// construction in every snapshot and every scrape.
	out.Shed = out.ShedQueueFull + out.ShedOverQuota + out.ShedExpired
	return out
}

func (st *stats) admitted()  { st.reqC.Inc() }
func (st *stats) completed() { st.compC.Inc() }

// The shed counters: each shed bumps its reason's series (the total is
// derived) and leaves a structured event naming the cause.
func (st *stats) shedQueueFull() { st.shedBy(shedReasonQueueFull) }
func (st *stats) shedOverQuota() { st.shedBy(shedReasonOverQuota) }
func (st *stats) shedExpired()   { st.shedBy(shedReasonExpired) }

func (st *stats) shedBy(reason string) {
	st.shedVec.With(reason).Inc()
	st.events.Record("shed", "", reason, nil)
}

func (st *stats) cacheHit()     { st.hitC.Inc() }
func (st *stats) cacheMiss()    { st.missC.Inc() }
func (st *stats) flightShared() { st.sharedC.Inc() }
func (st *stats) evicted()      { st.evictC.Inc() }

func (st *stats) personalized(d time.Duration) { st.persH.Observe(float64(d)) }

// forwarded records one forwarded request: its queue wait and its
// forward latency.
func (st *stats) forwarded(queueWait, forward time.Duration) {
	st.waitH.Observe(float64(queueWait))
	st.fwdH.Observe(float64(forward))
}

// compiled records one finished compile attempt and its latency.
func (st *stats) compiled(d time.Duration, err error) {
	st.compileC.Inc()
	st.compileH.Observe(float64(d))
	if err != nil {
		st.compileErrC.Inc()
	}
}

func (st *stats) compiledDispatched() { st.compDispC.Inc() }

func (st *stats) guardTripped()   { st.guardC.Inc() }
func (st *stats) fallbackServed() { st.fallbackC.Inc() }
func (st *stats) healed()         { st.healC.Inc() }
func (st *stats) healFailed()     { st.healFailC.Inc() }
