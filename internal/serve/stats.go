package serve

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"capnn/internal/breaker"
	"capnn/internal/metrics"
)

// BreakerState names the repersonalization breaker's state in Stats;
// the states themselves live in internal/breaker.
type BreakerState = breaker.State

// The breaker states, re-exported for Stats readers.
const (
	BreakerClosed   = breaker.Closed
	BreakerOpen     = breaker.Open
	BreakerHalfOpen = breaker.HalfOpen
)

// Stats is a point-in-time snapshot of a Server's serving metrics — the
// seed of the observability layer. All counters are cumulative since the
// server started; QueueDepth and CacheEntries are instantaneous.
type Stats struct {
	// Requests counts admitted inference requests; Completed counts the
	// subset that produced a response (success or per-request failure);
	// Shed counts requests rejected with a typed shedding code, broken
	// down by reason: ShedQueueFull (CodeBusy, queue bound reached),
	// ShedOverQuota (CodeOverQuota, bulk lane yielding under pressure),
	// ShedExpired (CodeExpired, deadline passed at admission or while
	// queued — the expire-in-queue path that keeps dead requests away
	// from workers).
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
	// QueueWait covers submit→dequeue and Forward the compiled-plan
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
	// compiled-weight bytes and entry count.
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
	BreakerState                                  BreakerState
	BreakerOpens, BreakerCloses, BreakerHalfOpens uint64

	// Checkpointing: the last committed generation (0 = never) and its
	// age at snapshot time. CheckpointErrors counts failed checkpoint
	// attempts and LastCheckpointError describes the most recent one
	// (cleared by the next successful commit) — a checkpoint that
	// silently stops committing is a durability outage, so the failure
	// is surfaced here, not only in the server log.
	CheckpointGeneration int
	CheckpointAge        time.Duration
	CheckpointErrors     uint64
	LastCheckpointError  string
}

// HitRatio is the mask-cache hit fraction over all completed lookups
// (0 when the cache was never consulted). Scraped remotely via OpStats,
// it is the first-order signal for sizing CacheCap and for judging how
// well a gateway's consistent-hash routing preserves cache locality.
func (s Stats) HitRatio() float64 {
	total := s.CacheHits + s.CacheMisses + s.SingleflightShared
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// MeanPersonalize / MeanQueueWait / MeanForward are the per-stage mean
// latencies (zero when the stage never ran).
func (s Stats) MeanPersonalize() time.Duration { return meanNs(s.PersonalizeNs, s.PersonalizeRuns) }
func (s Stats) MeanQueueWait() time.Duration   { return meanNs(s.QueueWaitNs, s.QueueWaitObs) }
func (s Stats) MeanForward() time.Duration     { return meanNs(s.ForwardNs, s.ForwardFlushes) }

func meanNs(total int64, n uint64) time.Duration {
	if n == 0 {
		return 0
	}
	return time.Duration(total / int64(n))
}

// String renders the snapshot as a compact one-report block for logs and
// the capnn-serve stats dump.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests=%d completed=%d shed=%d queue=%d\n", s.Requests, s.Completed, s.Shed, s.QueueDepth)
	fmt.Fprintf(&b, "shed: queue-full=%d over-quota=%d expired=%d\n", s.ShedQueueFull, s.ShedOverQuota, s.ShedExpired)
	fmt.Fprintf(&b, "cache: hits=%d misses=%d shared=%d evictions=%d entries=%d hit-ratio=%.3f\n",
		s.CacheHits, s.CacheMisses, s.SingleflightShared, s.CacheEvictions, s.CacheEntries, s.HitRatio())
	fmt.Fprintf(&b, "latency: personalize=%v queue-wait=%v forward=%v forward-p99=%v\n",
		s.MeanPersonalize(), s.MeanQueueWait(), s.MeanForward(), s.ForwardP99.Round(time.Microsecond))
	fmt.Fprintf(&b, "compile: runs=%d errors=%d dispatched=%d resident=%dB/%d entries\n",
		s.Compiles, s.CompileErrors, s.CompiledDispatched, s.CompiledBytes, s.CompiledEntries)
	fmt.Fprintf(&b, "guard: trips=%d fallback-served=%d heals=%d heal-failures=%d\n",
		s.GuardTrips, s.FallbackServed, s.Heals, s.HealFailures)
	for _, r := range s.Tripped {
		fmt.Fprintf(&b, "guard: %s tripped: %s\n", r.Key, r)
	}
	fmt.Fprintf(&b, "breaker: state=%s opens=%d closes=%d half-opens=%d\n",
		s.BreakerState, s.BreakerOpens, s.BreakerCloses, s.BreakerHalfOpens)
	if s.CheckpointGeneration > 0 {
		fmt.Fprintf(&b, "checkpoint: generation=%d age=%v errors=%d", s.CheckpointGeneration, s.CheckpointAge.Round(time.Millisecond), s.CheckpointErrors)
	} else {
		fmt.Fprintf(&b, "checkpoint: none (errors=%d)", s.CheckpointErrors)
	}
	if s.LastCheckpointError != "" {
		fmt.Fprintf(&b, " last-error=%q", s.LastCheckpointError)
	}
	return b.String()
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
// disagree. Only state with no instrument shape (checkpoint identity)
// stays under the local mutex.
type stats struct {
	reg    *metrics.Registry
	events *metrics.EventLog

	reqC, compC                  *metrics.Counter
	shedVec                      *metrics.CounterVec
	hitC, missC, sharedC, evictC *metrics.Counter
	persH, waitH, fwdH           *metrics.Histogram
	guardC, fallbackC            *metrics.Counter
	healC, healFailC             *metrics.Counter
	ckptErrC                     *metrics.Counter
	compileC, compileErrC        *metrics.Counter
	compileH                     *metrics.Histogram
	compDispC                    *metrics.Counter

	mu                sync.Mutex
	checkpointGen     int
	checkpointAt      time.Time // commit time of the last checkpoint
	lastCheckpointErr string
}

// newStats builds an accumulator on a private registry — unit tests and
// embedded uses that never scrape.
func newStats() *stats {
	return newStatsOn(metrics.NewRegistry(), metrics.NewEventLog(0))
}

// newStatsOn builds the accumulator's instruments on the given registry
// and routes its events to the given log.
func newStatsOn(reg *metrics.Registry, events *metrics.EventLog) *stats {
	st := &stats{
		reg:    reg,
		events: events,

		reqC:    reg.Counter("capnn_serve_requests_total", "Admitted inference requests."),
		compC:   reg.Counter("capnn_serve_completed_total", "Requests that produced a response."),
		shedVec: reg.CounterVec("capnn_serve_shed_total", "Requests shed with a typed code, by reason.", "reason"),
		hitC:    reg.Counter("capnn_serve_cache_hits_total", "Mask-cache hits."),
		missC:   reg.Counter("capnn_serve_cache_misses_total", "Mask-cache misses (each runs a personalization)."),
		sharedC: reg.Counter("capnn_serve_singleflight_shared_total", "Lookups that joined an in-flight personalization."),
		evictC:  reg.Counter("capnn_serve_cache_evictions_total", "Mask-cache LRU evictions."),
		persH:   reg.Histogram("capnn_serve_personalize_latency_ns", "System.Prune latency per cache fill.", metrics.LatencyBucketsNs()),
		waitH:   reg.Histogram("capnn_serve_queue_wait_ns", "Per-request submit-to-dequeue queue wait.", metrics.LatencyBucketsNs()),
		fwdH:    reg.Histogram("capnn_serve_forward_latency_ns", "Compiled-plan forward latency per request.", metrics.LatencyBucketsNs()),

		guardC:    reg.Counter("capnn_serve_guard_trips_total", "Epsilon-guard trips (one per tripped entry)."),
		fallbackC: reg.Counter("capnn_serve_fallback_served_total", "Requests served through the unpruned network after a trip."),
		healC:     reg.Counter("capnn_serve_heals_total", "Repersonalizations published by the heal path."),
		healFailC: reg.Counter("capnn_serve_heal_failures_total", "Failed heal attempts (breaker-recorded)."),
		ckptErrC:  reg.Counter("capnn_serve_checkpoint_errors_total", "Failed checkpoint attempts."),

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
	reg.GaugeFunc("capnn_serve_checkpoint_generation", "Last committed checkpoint generation (0 = never).", func() float64 {
		st.mu.Lock()
		defer st.mu.Unlock()
		return float64(st.checkpointGen)
	})
	reg.GaugeFunc("capnn_serve_checkpoint_age_seconds", "Age of the last committed checkpoint.", func() float64 {
		st.mu.Lock()
		defer st.mu.Unlock()
		if st.checkpointAt.IsZero() {
			return 0
		}
		return time.Since(st.checkpointAt).Seconds()
	})
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

		CheckpointErrors: st.ckptErrC.Value(),
	}
	// The shed total is derived as the sum of its reasons, so the
	// invariant Shed == queue-full + over-quota + expired holds by
	// construction in every snapshot and every scrape.
	out.Shed = out.ShedQueueFull + out.ShedOverQuota + out.ShedExpired

	st.mu.Lock()
	out.CheckpointGeneration = st.checkpointGen
	out.LastCheckpointError = st.lastCheckpointErr
	if !st.checkpointAt.IsZero() {
		out.CheckpointAge = time.Since(st.checkpointAt)
	}
	st.mu.Unlock()
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

// noteCheckpoint records a committed checkpoint generation; a success
// clears the sticky last-error so the gauge reflects current health.
func (st *stats) noteCheckpoint(gen int) {
	st.mu.Lock()
	st.checkpointGen = gen
	st.lastCheckpointErr = ""
	st.checkpointAt = time.Now()
	st.mu.Unlock()
	st.events.Record("checkpoint", "", fmt.Sprintf("committed generation %d", gen), nil)
}

// noteCheckpointError records a failed checkpoint attempt.
func (st *stats) noteCheckpointError(err error) {
	st.ckptErrC.Inc()
	st.mu.Lock()
	st.lastCheckpointErr = err.Error()
	st.mu.Unlock()
	st.events.Record("checkpoint-error", "", err.Error(), nil)
}
