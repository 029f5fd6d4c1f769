// Package serve is CAP'NN's multi-user inference serving layer: the
// piece that turns a personalization system into something that answers
// "heavy traffic from millions of users" (ROADMAP north star). The key
// observation — shared with SECS-style class-skew stream processing —
// is that users with identical class preferences share one pruned
// variant of the base model, so serving-time work deduplicates:
//
//   - a mask cache keyed by core.Preferences.Key() makes each distinct
//     preference vector pay for personalization once (singleflight: N
//     concurrent first-requests run one System.Prune), and
//   - every user of one mask key forwards on that entry's one compiled
//     plan (nn.Compiled: the masks applied physically, built inside the
//     cache fill and verified bit-identical to masked inference).
//
// An admitted request goes straight to a worker — one request, one
// forward, interactive lane before bulk; nothing is held back to batch.
//
// The base network is read-only from the moment core.NewSystem returns:
// System.Prune judges its candidate masks as values and every plan owns
// its own compacted weights, so fills of different keys personalize
// concurrently, and no lock orders a fill against serving, a heal or a
// checkpoint.
//
// Admission control follows internal/cloud: bounded in-flight work,
// typed busy shedding (cloud.Code), read/write deadlines on the wire,
// and panic recovery in the workers.
package serve

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"capnn/internal/breaker"
	"capnn/internal/cloud"
	"capnn/internal/core"
	"capnn/internal/metrics"
	"capnn/internal/nn"
	"capnn/internal/qos"
	"capnn/internal/rpc"
	"capnn/internal/tensor"
)

// Config tunes the serving layer. Zero fields take DefaultConfig values.
type Config struct {
	// Variant is the pruning scheme used when a request does not name
	// one ("B", "W" or "M" on the wire). Default CAP'NN-M.
	Variant core.Variant
	// Workers sizes the forward worker pool. Default GOMAXPROCS(0).
	Workers int
	// CacheCap bounds the mask cache (LRU entries). Default 256.
	CacheCap int
	// MaxQueue bounds admitted-but-uncompleted requests; excess is shed
	// with CodeBusy, never queued unboundedly. Default 1024.
	MaxQueue int
	// RequestTimeout bounds one request's total time in the server
	// (personalize + queue + forward); expiry returns CodeBusy so
	// clients back off. A request that propagates its own deadline
	// budget is bounded by min(budget, RequestTimeout) and expires with
	// CodeExpired instead. Default 30s.
	RequestTimeout time.Duration
	// BulkQueueFraction is the share of MaxQueue the bulk lane may
	// occupy before bulk requests are shed with CodeOverQuota, leaving
	// the remaining headroom to interactive traffic. Default 0.5;
	// values are clamped to (0, 1].
	BulkQueueFraction float64
	// ReadTimeout / WriteTimeout / MaxRequestBytes are the TCP framing
	// limits, with the same semantics as cloud.Config. Defaults 30s /
	// 30s / 1MiB.
	ReadTimeout, WriteTimeout time.Duration
	MaxRequestBytes           int64

	// DisableGuard turns the runtime ε-guard off entirely (no shadow
	// sampling, no fallback, no heals).
	DisableGuard bool
	// GuardSampleEvery shadow-serves every Nth request per mask entry
	// through the unpruned network and observes its prediction; the
	// pruned model's own outputs would hide drift (they collapse into
	// the preference set). Default 8.
	GuardSampleEvery int
	// GuardWindow is the sliding window (observations) the guard judges
	// drift over. Default 256.
	GuardWindow int

	// BreakerCooldown is how long the repersonalization breaker — open
	// after healFailThreshold consecutive failed heals — rejects attempts
	// before admitting a half-open probe. Default 5s.
	BreakerCooldown time.Duration
	// HealBackoff is how long a pending heal waits between attempts when
	// the breaker rejects it or personalization fails. Default 250ms.
	HealBackoff time.Duration
}

// DefaultConfig returns the production defaults.
func DefaultConfig() Config {
	return Config{
		Variant:           core.DefaultVariant,
		Workers:           runtime.GOMAXPROCS(0),
		CacheCap:          256,
		MaxQueue:          1024,
		RequestTimeout:    30 * time.Second,
		BulkQueueFraction: 0.5,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		MaxRequestBytes:   1 << 20,

		GuardSampleEvery: 8,
		GuardWindow:      256,

		BreakerCooldown: 5 * time.Second,
		HealBackoff:     250 * time.Millisecond,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Variant == "" {
		c.Variant = d.Variant
	}
	if c.Workers <= 0 {
		c.Workers = d.Workers
	}
	if c.CacheCap <= 0 {
		c.CacheCap = d.CacheCap
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = d.MaxQueue
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = d.RequestTimeout
	}
	if c.BulkQueueFraction <= 0 {
		c.BulkQueueFraction = d.BulkQueueFraction
	}
	if c.BulkQueueFraction > 1 {
		c.BulkQueueFraction = 1
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = d.ReadTimeout
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = d.WriteTimeout
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = d.MaxRequestBytes
	}
	if c.GuardSampleEvery <= 0 {
		c.GuardSampleEvery = d.GuardSampleEvery
	}
	if c.GuardWindow <= 0 {
		c.GuardWindow = d.GuardWindow
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = d.BreakerCooldown
	}
	if c.HealBackoff <= 0 {
		c.HealBackoff = d.HealBackoff
	}
	return c
}

// Error is the typed failure the serving layer returns; Code reuses the
// cloud protocol's classification so clients share one retry policy.
type Error struct {
	Code cloud.Code
	Err  error
}

func (e *Error) Error() string { return fmt.Sprintf("serve: [%s] %v", e.Code, e.Err) }

// Unwrap exposes the cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// Retryable defers to the code: busy and internal faults may clear.
func (e *Error) Retryable() bool { return e.Code.Retryable() }

// Result is one request's answer.
type Result struct {
	// Logits are the raw class scores; Class is their argmax.
	Logits []float64
	Class  int
	// CacheHit reports whether its masks came from the cache.
	CacheHit bool
	// Fallback reports that the request was served through the unpruned
	// network because its mask entry's ε-guard has tripped (the answer
	// is the reference model's — never worse than the pruned one).
	Fallback bool
}

// Server is the concurrent inference server. It owns a prepared
// core.System whose network supplies the weights every plan is compiled
// from; nothing writes that network while serving, so any number of
// requests forward — and any number of cache fills prune — concurrently.
type Server struct {
	sys    *core.System
	cfg    Config
	st     *stats
	reg    *metrics.Registry
	events *metrics.EventLog
	cache  *maskCache
	disp   *dispatcher

	// unpruned is the base network compiled under no masks: the plan the
	// ε-guard's fallback and shadow traffic runs, and the stand-in for an
	// entry whose masks do not compile.
	unpruned *nn.Compiled

	// breaker guards the repersonalization path taken by ε-guard heals.
	breaker *breaker.Breaker

	// ownerCheck, when installed, judges gateway-routed requests'
	// placement metadata (RouteKey, RingVersion) before serving them.
	// ringUpdate, when installed, receives membership views broadcast by
	// a gateway (OpRingUpdate) — typically the other half of the same
	// fence ownerCheck consults.
	ownerMu    sync.RWMutex
	ownerCheck func(routeKey string, ringVersion uint64) cloud.Code
	ringUpdate func(RingUpdate) error

	// hookPersonalize, when set by tests, observes every System.Prune
	// execution (not cache hits or singleflight joins). hookHealed
	// observes each heal publishing a repersonalized entry.
	hookPersonalize func(prefs core.Preferences)
	hookHealed      func(key string, prefs core.Preferences)

	// rpc is the wire: accept loop, kept connections, peer limits.
	rpc *rpc.Server[WireRequest, WireResponse]

	// drainMu guards draining; drainCh closes when draining starts so
	// sleeping heal loops wake and exit.
	drainMu  sync.Mutex
	draining bool
	drainCh  chan struct{}

	// healMu orders healWG.Add against Shutdown's healWG.Wait: once
	// drainingHeals is set no new heal goroutine may be spawned.
	healMu        sync.Mutex
	healWG        sync.WaitGroup
	drainingHeals bool
}

// NewServer wraps a prepared system with the default Config.
func NewServer(sys *core.System) *Server { return NewServerWith(sys, Config{}) }

// NewServerWith wraps a prepared system with explicit limits. It panics
// when the system's network has a layer nn.Compile cannot lower — a
// programming error no request could be served past.
func NewServerWith(sys *core.System, cfg Config) *Server {
	cfg = cfg.withDefaults()
	unpruned, err := nn.Compile(sys.Net, nil)
	if err != nil {
		panic(fmt.Sprintf("serve: base network does not compile: %v", err))
	}
	reg := metrics.NewRegistry()
	events := metrics.NewEventLog(0)
	st := newStatsOn(reg, events)
	bulkMax := int(float64(cfg.MaxQueue) * cfg.BulkQueueFraction)
	if bulkMax < 1 {
		bulkMax = 1
	}
	s := &Server{
		sys:      sys,
		cfg:      cfg,
		st:       st,
		reg:      reg,
		events:   events,
		cache:    newMaskCache(cfg.CacheCap, st),
		unpruned: unpruned,
		disp:     newDispatcher(sys.Net.InShape, cfg.MaxQueue, bulkMax, cfg.Workers, st),
		breaker:  breaker.New(healFailThreshold, cfg.BreakerCooldown),
		drainCh:  make(chan struct{}),
	}
	s.rpc = rpc.NewServer(
		rpc.Limits{ReadTimeout: cfg.ReadTimeout, WriteTimeout: cfg.WriteTimeout, MaxRequestBytes: cfg.MaxRequestBytes},
		s.handle, badRequest)
	reg.GaugeFunc("capnn_serve_compiled_bytes", "Approximate resident compiled-weight bytes.", func() float64 {
		bytes, _ := s.residentPlans()
		return float64(bytes)
	})
	reg.GaugeFunc("capnn_serve_compiled_entries", "Cache entries with a resident compiled network.", func() float64 {
		_, entries := s.residentPlans()
		return float64(entries)
	})
	// Breaker transitions become structured events; the counters come
	// from the breaker's own snapshot below — one source, two surfaces.
	s.breaker.OnTransition = func(from, to breaker.State) {
		events.Record("breaker", "repersonalize", fmt.Sprintf("%s -> %s", from, to), nil)
	}
	// Instantaneous state that already lives in a component is exposed
	// func-backed at gather time rather than double-accounted.
	reg.GaugeFunc("capnn_serve_queue_depth", "Admitted requests not yet completed.", func() float64 {
		return float64(s.disp.depth())
	})
	reg.GaugeFunc("capnn_serve_cache_entries", "Resident mask-cache entries.", func() float64 {
		return float64(s.cache.len())
	})
	reg.GaugeFunc("capnn_serve_breaker_state", "Repersonalization breaker state (0 closed, 1 half-open, 2 open).", func() float64 {
		return s.breaker.Snapshot().State.Value()
	})
	reg.CounterFunc("capnn_serve_breaker_opens_total", "Breaker transitions into open.", func() uint64 {
		return s.breaker.Snapshot().Opens
	})
	reg.CounterFunc("capnn_serve_breaker_closes_total", "Breaker transitions into closed.", func() uint64 {
		return s.breaker.Snapshot().Closes
	})
	reg.CounterFunc("capnn_serve_breaker_half_opens_total", "Breaker transitions into half-open.", func() uint64 {
		return s.breaker.Snapshot().HalfOpens
	})
	reg.CounterFunc("capnn_serve_events_total", "Structured events ever recorded (ring may have dropped old ones).", events.Total)
	return s
}

// SetOwnerCheck installs (or, with nil, removes) the placement check a
// cluster supervisor uses to fence misrouted traffic: every wire
// request carrying a RouteKey is judged before serving, and a non-OK
// code (cloud.CodeWrongOwner when this node does not own the key,
// cloud.CodeRingChanged when the stamped ring version is stale) is
// returned to the gateway, which re-routes on its current ring.
// Requests without routing metadata — direct clients — are never
// fenced.
func (s *Server) SetOwnerCheck(check func(routeKey string, ringVersion uint64) cloud.Code) {
	s.ownerMu.Lock()
	s.ownerCheck = check
	s.ownerMu.Unlock()
}

func (s *Server) ownerCheckFn() func(string, uint64) cloud.Code {
	s.ownerMu.RLock()
	defer s.ownerMu.RUnlock()
	return s.ownerCheck
}

// SetRingUpdate installs (or, with nil, removes) the handler OpRingUpdate
// frames are delivered to: a gateway broadcasts its membership view after
// every epoch flip, and the handler (cluster.Fence.Apply in production
// wiring) rebuilds the local placement function the owner check fences
// with. A server without a handler acknowledges and ignores the op.
func (s *Server) SetRingUpdate(handler func(RingUpdate) error) {
	s.ownerMu.Lock()
	s.ringUpdate = handler
	s.ownerMu.Unlock()
}

func (s *Server) ringUpdateFn() func(RingUpdate) error {
	s.ownerMu.RLock()
	defer s.ownerMu.RUnlock()
	return s.ringUpdate
}

// Stats snapshots the serving metrics.
func (s *Server) Stats() Stats {
	out := s.st.snapshot(s.cache.len(), s.disp.depth())
	b := s.breaker.Snapshot()
	out.BreakerState, out.BreakerOpens, out.BreakerCloses, out.BreakerHalfOpens = b.State, b.Opens, b.Closes, b.HalfOpens
	out.CompiledBytes, out.CompiledEntries = s.residentPlans()
	for _, e := range s.cache.snapshot() {
		if r, tripped := e.guard.report(); tripped {
			r.Key = e.key
			out.Tripped = append(out.Tripped, r)
		}
	}
	return out
}

// Metrics is the server's telemetry registry — the source behind
// Stats(), the /metrics exposition, and the stats dumps. Callers may
// register additional instruments (the cmd layer adds process-level
// ones) but must not re-register serve names.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Events is the server's structured event log (sheds, guard trips,
// heals, breaker transitions, checkpoints), exposed over /debug/events.
func (s *Server) Events() *metrics.EventLog { return s.events }

// QoS is one request's quality-of-service envelope: the absolute
// deadline its caller needs the answer by (zero = none; the server's
// RequestTimeout still applies), the priority lane it rides, and the
// tenant it is accounted under. The zero value — no deadline,
// interactive lane, default tenant — reproduces pre-QoS behavior
// exactly.
type QoS struct {
	Deadline time.Time
	Lane     qos.Lane
	Tenant   string
}

// Infer serves one sample x (per-sample shape, no batch dimension) for
// a user with the given preferences under the server's default variant.
// It blocks until a worker has answered the request, or fails with a
// typed *Error.
func (s *Server) Infer(prefs core.Preferences, x *tensor.Tensor) (Result, error) {
	return s.infer(s.cfg.Variant, prefs, x.Data(), QoS{})
}

// InferVariant is Infer under an explicit pruning variant.
func (s *Server) InferVariant(v core.Variant, prefs core.Preferences, x *tensor.Tensor) (Result, error) {
	return s.infer(v, prefs, x.Data(), QoS{})
}

// InferQoS is InferVariant with an explicit QoS envelope: the request's
// queue timer is armed from its remaining deadline budget (capped by
// the server's RequestTimeout), and a bulk-lane request yields queue
// headroom and worker priority to interactive traffic.
func (s *Server) InferQoS(v core.Variant, prefs core.Preferences, x *tensor.Tensor, q QoS) (Result, error) {
	return s.infer(v, prefs, x.Data(), q)
}

func (s *Server) infer(v core.Variant, prefs core.Preferences, x []float64, q QoS) (Result, error) {
	switch v {
	case core.VariantB, core.VariantW, core.VariantM:
	default:
		return Result{}, &Error{Code: cloud.CodeBadRequest, Err: fmt.Errorf("unknown variant %q", v)}
	}
	if err := prefs.Validate(s.sys.Rates.Classes); err != nil {
		return Result{}, &Error{Code: cloud.CodeBadRequest, Err: err}
	}
	if len(x) != s.disp.sample {
		return Result{}, &Error{Code: cloud.CodeBadRequest,
			Err: fmt.Errorf("input has %d values, want %d for shape %v", len(x), s.disp.sample, s.disp.shape[1:])}
	}
	for i, xv := range x {
		if math.IsNaN(xv) || math.IsInf(xv, 0) {
			return Result{}, &Error{Code: cloud.CodeBadRequest,
				Err: fmt.Errorf("input[%d] is %v: every input value must be finite", i, xv)}
		}
	}
	if s.isDraining() {
		return Result{}, &Error{Code: cloud.CodeBusy, Err: fmt.Errorf("server draining")}
	}
	// The request's effective deadline is its own budget capped by the
	// server bound — so a 50ms client waits 50ms, not the 30s default
	// (and a malicious 10h budget cannot occupy a queue slot for 10h).
	now := time.Now()
	effDeadline := now.Add(s.cfg.RequestTimeout)
	clientBound := false
	if !q.Deadline.IsZero() && q.Deadline.Before(effDeadline) {
		effDeadline = q.Deadline
		clientBound = true
	}
	if !now.Before(effDeadline) {
		s.st.shedExpired()
		return Result{}, &Error{Code: cloud.CodeExpired,
			Err: fmt.Errorf("deadline already passed at admission (budget exhausted upstream)")}
	}
	// The cache key spans variant and canonical preferences: the same
	// classes pruned by W and M are different masks.
	key := prefs.KeyUnder(string(v))
	entry, hit, err := s.cache.get(key, func() (*maskEntry, error) {
		return s.personalize(v, prefs, key)
	})
	if err != nil {
		if te, ok := err.(*Error); ok {
			return Result{}, te
		}
		return Result{}, &Error{Code: cloud.CodeInternal, Err: err}
	}
	// The ε-guard may reroute this request through the unpruned plan:
	// always after a trip (fallback), and periodically as a shadow sample
	// whose prediction feeds the drift window.
	plan := s.unpruned
	unpruned, fallback := entry.guard.admit()
	if !unpruned {
		plan = s.planFor(entry)
	} else if fallback {
		s.st.fallbackServed()
	}
	req := newRequest(plan, x, effDeadline, q.Lane)
	if err := s.disp.submit(req); err != nil {
		req.release()
		return Result{}, err.(*Error)
	}
	select {
	case out := <-req.done:
		req.release()
		if out.err != nil {
			return Result{}, out.err
		}
		if plan != s.unpruned {
			s.st.compiledDispatched()
		}
		class := tensor.Argmax(out.logits)
		if unpruned && entry.guard != nil {
			if why, trip := entry.guard.observe(class); trip {
				s.st.guardTripped()
				s.events.Record("guard-trip", entry.key, why.String(), nil)
				s.scheduleHeal(entry)
			}
		}
		return Result{
			Logits:   out.logits,
			Class:    class,
			CacheHit: hit,
			Fallback: fallback,
		}, nil
	case <-req.timer.C:
		// Only this waiter gives up: req and x stay with the worker, which
		// will still answer into the buffered channel (or shed the request
		// as expired-in-queue). A client-propagated deadline expires
		// permanently; hitting the server's own cap stays a retryable busy
		// signal.
		if clientBound {
			return Result{}, &Error{Code: cloud.CodeExpired,
				Err: fmt.Errorf("deadline budget exhausted after %v in queue", effDeadline.Sub(now).Truncate(time.Microsecond))}
		}
		return Result{}, &Error{Code: cloud.CodeBusy,
			Err: fmt.Errorf("request deadline %v exceeded in queue", s.cfg.RequestTimeout)}
	}
}

// personalize is the cache fill: one System.Prune run and the compile
// of its masks, so singleflight joiners and every later hit find the
// plan in place. Fills of different keys run side by side: Prune only
// reads the base network. A panic inside the pruning algorithms is
// recovered into a typed internal error — and not cached.
func (s *Server) personalize(v core.Variant, prefs core.Preferences, key string) (entry *maskEntry, err error) {
	defer func() {
		if r := recover(); r != nil {
			entry, err = nil, &Error{Code: cloud.CodeInternal, Err: fmt.Errorf("personalize: %v", r)}
		}
	}()
	if s.hookPersonalize != nil {
		s.hookPersonalize(prefs)
	}
	start := time.Now()
	masks, perr := s.sys.Prune(v, prefs)
	if perr != nil {
		return nil, &Error{Code: cloud.CodeInternal, Err: perr}
	}
	s.st.personalized(time.Since(start))
	e := &maskEntry{key: key, variant: v, prefs: prefs, masks: masks}
	for _, m := range masks {
		for _, p := range m {
			e.totalUnits++
			if p {
				e.prunedUnits++
			}
		}
	}
	if e.guard, err = s.newGuard(prefs); err != nil {
		return nil, &Error{Code: cloud.CodeInternal, Err: err}
	}
	s.planFor(e)
	return e, nil
}

// CompileWait returns nil at once.
//
// Deprecated: plans are compiled inside the cache fill, so there is
// nothing left to wait for.
func (s *Server) CompileWait(time.Duration) error { return nil }

// newGuard builds the ε-guard every entry of this server gets, however
// it arrives — cache fill, heal, checkpoint restore — or
// nil when guarding is off.
func (s *Server) newGuard(prefs core.Preferences) (*entryGuard, error) {
	if s.cfg.DisableGuard {
		return nil, nil
	}
	predicted, profileN, err := s.sys.OffPreferenceShare(prefs)
	if err != nil {
		return nil, err
	}
	win, err := core.NewSlidingMonitor(s.sys.Rates.Classes, s.cfg.GuardWindow)
	if err != nil {
		return nil, err
	}
	g := &entryGuard{every: s.cfg.GuardSampleEvery, predicted: predicted, profileN: profileN,
		win: win, inClass: make([]bool, s.sys.Rates.Classes)}
	for _, c := range prefs.Classes {
		g.inClass[c] = true
	}
	return g, nil
}

// scheduleHeal spawns the repersonalization goroutine for an entry that
// just tripped (a trip is reported once, so at most one runs per entry),
// and none once draining has begun: healMu orders the Add against
// Shutdown's Wait.
func (s *Server) scheduleHeal(entry *maskEntry) {
	s.healMu.Lock()
	defer s.healMu.Unlock()
	if s.drainingHeals {
		return
	}
	s.healWG.Add(1)
	go s.heal(entry)
}

// healFailThreshold consecutive failed heals open the repersonalization
// breaker: a Prune that fails for an entry fails again, so tripped
// ε-guards must not become an unbounded stream of failing prune runs.
const healFailThreshold = 4

// heal repersonalizes a tripped entry against the class mix its guard
// actually observed, through the circuit breaker. The healed masks are
// published under the entry's original request key, so the affected users
// transparently move onto masks that match their real usage. Failures
// retry on a backoff until the breaker admits a successful attempt or
// the server drains. A window that describes the very preferences the
// entry was pruned for was a false alarm: it costs no Prune — the entry
// goes back to its own masks.
func (s *Server) heal(entry *maskEntry) {
	defer s.healWG.Done()
	for {
		prefs, err := entry.guard.observedPrefs(len(entry.prefs.Classes))
		if err == nil && prefs.Key() == entry.prefs.Key() {
			entry.guard.clear()
			s.events.Record("heal-noop", entry.key, "observed class mix is the personalized-for one; trip cleared", nil)
			return
		}
		if s.breaker.Allow() {
			if err == nil {
				var fresh *maskEntry
				fresh, err = s.personalize(entry.variant, prefs, entry.key)
				if err == nil {
					s.breaker.Record(true)
					s.cache.install(fresh)
					s.st.healed()
					s.events.Record("heal", entry.key, "repersonalized against observed class mix", nil)
					if s.hookHealed != nil {
						s.hookHealed(entry.key, prefs)
					}
					return
				}
			}
			s.breaker.Record(false)
			s.st.healFailed()
			s.events.Record("heal-failed", entry.key, err.Error(), nil)
		}
		select {
		case <-s.drainCh:
			return
		case <-time.After(s.cfg.HealBackoff):
		}
	}
}

func (s *Server) isDraining() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.draining
}

// Shutdown drains the server gracefully: the listener stops accepting,
// idle kept connections close at once, new requests are shed with
// CodeBusy, pending heals are woken and stopped, and requests in flight
// get up to timeout to be answered before the dispatcher is closed and
// drained. It returns an error when the deadline expired with work
// still in flight (that work is still completed by the drain — requests
// are answered, not dropped).
func (s *Server) Shutdown(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	s.drainMu.Lock()
	if !s.draining {
		s.draining = true
		close(s.drainCh)
	}
	s.drainMu.Unlock()
	s.healMu.Lock()
	s.drainingHeals = true
	s.healMu.Unlock()

	err := s.rpc.Shutdown(timeout) // connection handlers
	healed := make(chan struct{})
	go func() {
		s.healWG.Wait() // heal goroutines (woken by drainCh)
		close(healed)
	}()
	select {
	case <-healed:
	case <-time.After(time.Until(deadline)):
		err = fmt.Errorf("drain deadline %v exceeded with heals in flight", timeout)
	}
	// Drain whatever is still queued and stop the workers: admitted
	// requests are answered even on a blown deadline.
	s.disp.close()
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// Close stops the listener (if serving TCP), drains the dispatcher, and
// waits for in-flight work — Shutdown with a generous deadline.
func (s *Server) Close() error {
	return s.Shutdown(time.Minute)
}
