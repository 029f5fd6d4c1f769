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
// An admitted request runs its one forward in its own goroutine once it
// holds one of Config.Workers forward slots; a freed slot goes to a
// waiting interactive request before a bulk one, and nothing is held
// back to batch.
//
// The base network is read-only from the moment core.NewSystem returns:
// System.Prune judges its candidate masks as values and every plan owns
// its own compacted weights, so fills of different keys personalize
// concurrently, and no lock orders a fill against serving or a heal. A
// restarted server refills cold: masks are a pure function of (model,
// variant, preferences), so nothing about the cache is persisted.
//
// Admission control is bounded in-flight work, typed busy shedding
// (cloud.Code), read/write deadlines on the wire, and panic recovery
// around every forward and every fill.
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
	// Workers bounds concurrent forwards. Default GOMAXPROCS(0).
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
	// the remaining headroom to interactive traffic. Default 0.5 (also
	// for NaN); values are clamped to (0, 1].
	BulkQueueFraction float64
	// ReadTimeout / WriteTimeout / MaxRequestBytes are the TCP framing
	// limits (rpc.Limits): how long a peer may take to deliver a request
	// or read its answer, and the largest request body. Defaults 30s /
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
	if !(c.BulkQueueFraction > 0) {
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

// Error is the typed failure the serving layer returns; Code is the
// wire's one classification, so every client shares one retry policy.
type Error struct {
	Code cloud.Code
	Err  error
}

func (e *Error) Error() string { return fmt.Sprintf("serve: [%s] %v", e.Code, e.Err) }

// Unwrap exposes the cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

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
	gate   *gate

	// prefix is the base network's layers before the system's first
	// prunable stage, lowered once: every plan below is compiled on it.
	// unpruned is the base network compiled under no masks: the plan the
	// ε-guard's fallback and shadow traffic runs, and the stand-in for an
	// entry whose masks do not compile.
	prefix   *nn.Prefix
	unpruned *nn.Compiled
	// baseSum is BaseSum of the base network: the name every mask
	// payload this server sends gives the network its masks apply to.
	baseSum uint32

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
	// observes each heal publishing a repersonalized entry, and
	// hookInstall runs in the heal just before it publishes, so a test can
	// hold the fallback window open.
	hookPersonalize func(prefs core.Preferences)
	hookHealed      func(key string, prefs core.Preferences)
	hookInstall     func(key string)

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
	prefix, err := nn.NewPrefix(sys.Net, sys.Params.Stages[0])
	var unpruned *nn.Compiled
	if err == nil {
		unpruned, err = prefix.Compile(nil)
	}
	var baseSum uint32
	if err == nil {
		baseSum, err = BaseSum(sys.Net)
	}
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
		prefix:   prefix,
		unpruned: unpruned,
		baseSum:  baseSum,
		gate:     newGate(cfg.Workers, cfg.MaxQueue, bulkMax, st),
		breaker:  breaker.New(healFailThreshold, cfg.BreakerCooldown),
		drainCh:  make(chan struct{}),
	}
	s.rpc = rpc.NewServer(
		rpc.Limits{ReadTimeout: cfg.ReadTimeout, WriteTimeout: cfg.WriteTimeout, MaxRequestBytes: cfg.MaxRequestBytes},
		s.handle, badRequest)
	reg.GaugeFunc("capnn_serve_compiled_bytes", "Approximate resident compiled-weight bytes: the shared prefix once, and each entry's suffix.", func() float64 {
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
		return float64(s.gate.depth())
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
	out := s.st.snapshot(s.cache.len(), s.gate.depth())
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
// Stats(), the /metrics exposition, and the SIGINT summary dump. Callers may
// register additional instruments (the cmd layer adds process-level
// ones) but must not re-register serve names.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Events is the server's structured event log (sheds, guard trips,
// heals, breaker transitions, compile failures), exposed over
// /debug/events.
func (s *Server) Events() *metrics.EventLog { return s.events }

// QoS is one request's quality-of-service envelope: the absolute
// deadline its caller needs the answer by (zero = none; the server's
// RequestTimeout still applies) and the priority lane it rides. The zero
// value — no deadline, interactive lane — reproduces pre-QoS behavior
// exactly.
type QoS struct {
	Deadline time.Time
	Lane     qos.Lane
}

// InferVariant serves one sample x (per-sample shape, no batch
// dimension) for a user with the given preferences under variant v. It
// blocks until the request's forward has run, or fails with a typed
// *Error.
func (s *Server) InferVariant(v core.Variant, prefs core.Preferences, x *tensor.Tensor) (Result, error) {
	return s.infer(v, prefs, x.Data(), QoS{})
}

func (s *Server) infer(v core.Variant, prefs core.Preferences, x []float64, q QoS) (Result, error) {
	if len(x) != s.unpruned.InSize() {
		return Result{}, &Error{Code: cloud.CodeBadRequest,
			Err: fmt.Errorf("input has %d values, want %d for shape %v", len(x), s.unpruned.InSize(), s.sys.Net.InShape)}
	}
	for i, xv := range x {
		if math.IsNaN(xv) || math.IsInf(xv, 0) {
			return Result{}, &Error{Code: cloud.CodeBadRequest,
				Err: fmt.Errorf("input[%d] is %v: every input value must be finite", i, xv)}
		}
	}
	entry, hit, effDeadline, clientBound, err := s.entry(v, prefs, q)
	if err != nil {
		return Result{}, err
	}
	// The ε-guard may reroute this request through the unpruned plan:
	// always after a trip (fallback), and periodically as a shadow sample
	// whose prediction feeds the drift window.
	plan := s.unpruned
	unpruned, fallback := entry.guard.admit()
	if !unpruned {
		plan = entry.plan
	} else if fallback {
		s.st.fallbackServed()
	}
	logits, err := s.gate.forward(plan, x, q.Lane, effDeadline)
	if err != nil {
		te := err.(*Error)
		if te.Code == cloud.CodeExpired && !clientBound {
			// Only a client-propagated deadline expires permanently;
			// hitting the server's own cap stays a retryable busy signal.
			te = &Error{Code: cloud.CodeBusy, Err: fmt.Errorf("request deadline %v exceeded in queue", s.cfg.RequestTimeout)}
		}
		return Result{}, te
	}
	if plan != s.unpruned {
		s.st.compiledDispatched()
	}
	class := tensor.Argmax(logits)
	if unpruned && entry.guard != nil {
		if why, trip := entry.guard.observe(class); trip {
			s.st.guardTripped()
			s.events.Record("guard-trip", entry.key, why.String(), nil)
			s.scheduleHeal(entry)
		}
	}
	return Result{
		Logits:   logits,
		Class:    class,
		CacheHit: hit,
		Fallback: fallback,
	}, nil
}

// entry is the part of a request an inference and a personalization
// share: it validates the variant and preferences, refuses while draining
// or once the deadline has passed, and finds the key's cache entry,
// filling it on a miss. It reports the request's effective deadline and
// whether the client's own budget set it. err is always an *Error: a
// fill's are personalize's.
func (s *Server) entry(v core.Variant, prefs core.Preferences, q QoS) (e *maskEntry, hit bool, deadline time.Time, clientBound bool, err error) {
	switch v {
	case core.VariantB, core.VariantW, core.VariantM:
	default:
		return nil, false, deadline, false, &Error{Code: cloud.CodeBadRequest, Err: fmt.Errorf("unknown variant %q", v)}
	}
	if err := prefs.Validate(s.sys.Rates.Classes); err != nil {
		return nil, false, deadline, false, &Error{Code: cloud.CodeBadRequest, Err: err}
	}
	if s.isDraining() {
		return nil, false, deadline, false, &Error{Code: cloud.CodeBusy, Err: fmt.Errorf("server draining")}
	}
	// The request's effective deadline is its own budget capped by the
	// server bound — so a 50ms client waits 50ms, not the 30s default
	// (and a malicious 10h budget cannot occupy a queue slot for 10h).
	now := time.Now()
	deadline = now.Add(s.cfg.RequestTimeout)
	if !q.Deadline.IsZero() && q.Deadline.Before(deadline) {
		deadline = q.Deadline
		clientBound = true
	}
	if !now.Before(deadline) {
		s.st.shedExpired()
		return nil, false, deadline, clientBound, &Error{Code: cloud.CodeExpired,
			Err: fmt.Errorf("deadline already passed at admission (budget exhausted upstream)")}
	}
	// The cache key spans variant and canonical preferences: the same
	// classes pruned by W and M are different masks.
	key := prefs.KeyUnder(string(v))
	e, hit, err = s.cache.get(key, func() (*maskEntry, error) {
		return s.personalize(v, prefs, key)
	})
	return e, hit, deadline, clientBound, err
}

// masks answers OpPersonalize from the entry an inference of the same key
// would run on, without taking a forward slot or feeding the guard: the
// masks the key is served with. A key served unpruned — its guard has
// tripped, or its masks did not compile — is answered with the same
// stages and no unit pruned, and Fallback set as an inference reports it.
func (s *Server) masks(v core.Variant, prefs core.Preferences, q QoS) *WireResponse {
	e, hit, _, _, err := s.entry(v, prefs, q)
	if err != nil {
		te := err.(*Error)
		return Refuse(te.Code, "%s", te.Err.Error())
	}
	_, fallback := e.guard.report()
	p := MaskPayload{Base: s.baseSum, Masks: e.masks}
	if fallback || e.plan == s.unpruned {
		p.Masks = make(map[int][]bool, len(e.masks))
		for stage, m := range e.masks {
			p.Masks[stage] = make([]bool, len(m))
		}
	}
	return &WireResponse{Version: cloud.ProtocolVersion, Code: cloud.CodeOK,
		CacheHit: hit, Fallback: fallback, Payload: p.AppendWire(nil)}
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
	if entry, err = s.newEntry(v, prefs, key, masks); err != nil {
		return nil, &Error{Code: cloud.CodeInternal, Err: err}
	}
	return entry, nil
}

// CompileWait returns nil at once.
//
// Deprecated: plans are compiled inside the cache fill, so there is
// nothing left to wait for.
func (s *Server) CompileWait(time.Duration) error { return nil }

// newGuard builds the ε-guard every entry of this server gets, whether a
// cache fill or a heal built it, or nil when guarding is off.
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
					if s.hookInstall != nil {
						s.hookInstall(entry.key)
					}
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
// get up to timeout to be answered before the forward gate is closed. It
// returns an error when the deadline expired with work still in flight
// (that work is still completed by the drain — requests are answered,
// not dropped).
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
	// Stop admission and wait for every admitted caller: admitted
	// requests are answered even on a blown deadline.
	s.gate.close()
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// Close stops the listener (if serving TCP) and waits for in-flight
// work — Shutdown with a generous deadline.
func (s *Server) Close() error {
	return s.Shutdown(time.Minute)
}
