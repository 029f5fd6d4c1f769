package cluster

import (
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"capnn/internal/breaker"
	"capnn/internal/cloud"
	"capnn/internal/core"
	"capnn/internal/metrics"
	"capnn/internal/qos"
	"capnn/internal/rpc"
	"capnn/internal/serve"
	"capnn/internal/store"
)

// maxReplication bounds the owner buffer the router keeps on its stack
// so ring lookup stays allocation-free.
const maxReplication = 8

// maxIdlePerNode caps the connections the gateway keeps open to each
// serve node between requests, as serve's clientMaxIdle does for a
// Client.
const maxIdlePerNode = 4

// Config tunes the gateway. Zero fields take DefaultConfig values.
type Config struct {
	// Seed salts consistent-hash placement: gateways that must agree on
	// routing must share it. Default 0. The ring gives each serve node
	// DefaultVirtualNodes points.
	Seed int64
	// Replication is how many distinct serve nodes own each key: the
	// primary plus R−1 failover replicas. A single node death therefore
	// never makes a key unavailable when R ≥ 2. Default 2, max 8.
	Replication int

	// DialTimeout bounds establishing a backend connection;
	// RequestTimeout bounds one client request end to end across every
	// failover attempt; AttemptTimeout bounds a single node attempt so
	// a black-holed connection cannot eat the whole failover budget.
	// Defaults 5s / 30s / RequestTimeout/2.
	DialTimeout    time.Duration
	RequestTimeout time.Duration
	AttemptTimeout time.Duration

	// ProbeEvery is the active health-check period; ProbeTimeout bounds
	// one probe round trip. Defaults 2s / 1s.
	ProbeEvery   time.Duration
	ProbeTimeout time.Duration
	// FailThreshold consecutive failures (probe or routed) open a
	// node's breaker; Cooldown is how long an open node is skipped
	// before a half-open trial. Defaults 3 / 5s.
	FailThreshold int
	Cooldown      time.Duration

	// Admission is the multi-tenant token-bucket quota set enforced
	// before routing: a request whose (tenant, lane) bucket is empty is
	// shed with CodeOverQuota and never reaches a shard. The zero value
	// is unlimited everywhere — admission control off.
	Admission qos.LimiterConfig
}

// DefaultConfig returns the production defaults.
func DefaultConfig() Config {
	return Config{
		Replication:    2,
		DialTimeout:    5 * time.Second,
		RequestTimeout: 30 * time.Second,
		ProbeEvery:     2 * time.Second,
		ProbeTimeout:   time.Second,
		FailThreshold:  3,
		Cooldown:       5 * time.Second,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Replication <= 0 {
		c.Replication = d.Replication
	}
	if c.Replication > maxReplication {
		c.Replication = maxReplication
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = d.DialTimeout
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = d.RequestTimeout
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = c.RequestTimeout / 2
	}
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = d.ProbeEvery
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = d.ProbeTimeout
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = d.FailThreshold
	}
	if c.Cooldown <= 0 {
		c.Cooldown = d.Cooldown
	}
	return c
}

// nodeState is one serve node as managed by the gateway: its health
// breaker and the kept connections to it. It outlives ring swaps
// (membership changes reuse existing state for surviving nodes).
type nodeState struct {
	addr   string
	health *nodeHealth
	wire   *rpc.Client[serve.WireRequest, serve.WireResponse]
}

// Gateway accepts the serve wire protocol and routes each request to
// the serve node that owns its placement key on the consistent-hash
// ring, failing over to the key's next ring replica on transport
// error, busy shedding, or node-side misrouting rejection.
type Gateway struct {
	cfg     Config
	st      *gstats
	reg     *metrics.Registry
	events  *metrics.EventLog
	limiter *qos.Limiter

	// ring is the immutable routing snapshot; memberMu serializes
	// membership changes (ring swaps + nodes map edits).
	ring     atomic.Pointer[Ring]
	memberMu sync.Mutex

	nodesMu sync.RWMutex
	nodes   map[string]*nodeState

	// ringFile is where membership changes persist ("" = nowhere);
	// guarded by memberMu.
	ringFile string

	// srv is the client-facing wire: accept loop, kept connections,
	// peer limits.
	srv *rpc.Server[serve.WireRequest, serve.WireResponse]

	drainMu  sync.Mutex
	draining bool

	proberStop chan struct{}
	proberWG   sync.WaitGroup
}

// NewGateway builds a gateway over the given serve-node addresses and
// starts its health prober. Callers must Shutdown (or Close) the
// gateway to stop the prober.
func NewGateway(nodes []string, cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	ring, err := NewRing(cfg.Seed, DefaultVirtualNodes, nodes)
	if err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	events := metrics.NewEventLog(0)
	g := &Gateway{
		cfg:        cfg,
		st:         newGstats(reg, events),
		reg:        reg,
		events:     events,
		limiter:    qos.NewLimiter(cfg.Admission),
		nodes:      map[string]*nodeState{},
		proberStop: make(chan struct{}),
	}
	// The client-facing framing limits are a shard's defaults.
	g.srv = rpc.NewServer(
		rpc.Limits{ReadTimeout: 30 * time.Second, WriteTimeout: 30 * time.Second, MaxRequestBytes: serve.MaxRequestBytes},
		g.handle, func(msg string) *serve.WireResponse { return serve.Refuse(cloud.CodeBadRequest, "%s", msg) })
	g.ring.Store(ring)
	for _, n := range ring.Nodes() {
		g.nodes[n] = g.newNodeState(n)
	}
	reg.GaugeFunc("capnn_gateway_ring_epoch", "Current cluster epoch (monotone; every routed request is stamped with it).", func() float64 {
		return float64(g.ring.Load().Epoch())
	})
	reg.GaugeFunc("capnn_gateway_ring_members", "Current serve-node count.", func() float64 {
		return float64(len(g.ring.Load().Nodes()))
	})
	reg.CounterFunc("capnn_gateway_events_total", "Structured events ever recorded (ring may have dropped old ones).", events.Total)
	// Per-node health is a gather-time collector over the same
	// nodeHealth snapshots Stats() reports — one source, two surfaces.
	reg.Collector(func(emit metrics.Emit) {
		g.nodesMu.RLock()
		states := make([]*nodeState, 0, len(g.nodes))
		for _, ns := range g.nodes {
			states = append(states, ns)
		}
		g.nodesMu.RUnlock()
		for _, ns := range states {
			h := ns.health.snapshot()
			ls := metrics.Labels{{Name: "node", Value: ns.addr}}
			emit("capnn_gateway_node_state", "Node breaker state (0 closed, 1 half-open, 2 open).", metrics.KindGauge, ls, h.State.Value())
			emit("capnn_gateway_node_requests_total", "Routed attempts to this node.", metrics.KindCounter, ls, float64(h.Requests))
			emit("capnn_gateway_node_failures_total", "Failed attempts (routed or probe).", metrics.KindCounter, ls, float64(h.Failures))
			emit("capnn_gateway_node_probes_total", "Active health probes.", metrics.KindCounter, ls, float64(h.Probes))
			emit("capnn_gateway_node_probe_failures_total", "Failed health probes.", metrics.KindCounter, ls, float64(h.ProbeFailures))
			emit("capnn_gateway_node_opens_total", "Breaker transitions into open.", metrics.KindCounter, ls, float64(h.Opens))
		}
	})
	g.proberWG.Add(1)
	go g.probeLoop()
	return g, nil
}

func (g *Gateway) newNodeState(addr string) *nodeState {
	h := newNodeHealth(g.cfg.FailThreshold, g.cfg.Cooldown)
	h.OnTransition = func(from, to breaker.State) {
		g.events.Record("node-breaker", addr, fmt.Sprintf("%s -> %s", from, to))
	}
	wire := rpc.NewClient[serve.WireRequest, serve.WireResponse](addr, g.cfg.DialTimeout, maxIdlePerNode)
	wire.OnRedial = g.st.retried
	return &nodeState{addr: addr, health: h, wire: wire}
}

// Metrics is the gateway's telemetry registry — the source behind
// Stats(), the /metrics exposition, and the SIGINT summary dump.
func (g *Gateway) Metrics() *metrics.Registry { return g.reg }

// Events is the gateway's structured event log (sheds, failovers,
// node-breaker transitions), exposed over /debug/events.
func (g *Gateway) Events() *metrics.EventLog { return g.events }

// Ring returns the current routing snapshot.
func (g *Gateway) Ring() *Ring { return g.ring.Load() }

func (g *Gateway) node(addr string) *nodeState {
	g.nodesMu.RLock()
	defer g.nodesMu.RUnlock()
	return g.nodes[addr]
}

// AddNode joins a serve node: preflight-probe it (a sick joiner is
// refused before it can blackhole its share of the keyspace, and a
// healthy one enters the ring with its breaker pre-seeded by a real
// success), persist the next ring, flip the epoch, and broadcast the new
// view to every member. Persisting before the flip means no shard ever
// fences an epoch the ring file lacks; a failed write refuses the join
// and changes nothing. The flip is the only synchronization point
// routing sees: requests racing the join route on one immutable ring or
// the other, and the fence/retry path absorbs the difference. Nothing
// moves with the keys: a key the joiner takes over is a cache miss
// there, one personalization on its first request.
func (g *Gateway) AddNode(addr string) error {
	g.memberMu.Lock()
	defer g.memberMu.Unlock()
	cur := g.ring.Load()
	next, err := cur.Add(addr)
	if err != nil {
		return err
	}
	g.nodesMu.Lock()
	ns, existed := g.nodes[addr]
	if !existed {
		ns = g.newNodeState(addr)
		g.nodes[addr] = ns
	}
	g.nodesMu.Unlock()
	err = g.checkHealth(ns)
	if err == nil {
		err = g.persistLocked(next)
	}
	if err != nil {
		if !existed {
			g.nodesMu.Lock()
			delete(g.nodes, addr)
			g.nodesMu.Unlock()
			ns.wire.Close()
		}
		return fmt.Errorf("cluster: join %s refused: %w", addr, err)
	}
	g.ring.Store(next)
	g.st.ringChanged("join", addr, next)
	g.broadcastRing(next)
	return nil
}

// checkHealth runs one OpHealth exchange against a node and feeds the
// outcome (and RTT) into its breaker and stats: AddNode's qualifying
// check on a joiner and every steady-state probe.
func (g *Gateway) checkHealth(ns *nodeState) error {
	start := time.Now()
	req := &serve.WireRequest{Version: cloud.ProtocolVersion, Op: serve.OpHealth}
	resp, err := ns.wire.Do(req, start.Add(g.cfg.ProbeTimeout))
	if err == nil && resp.Code != cloud.CodeOK {
		err = fmt.Errorf("health probe: [%s] %s", resp.Code, resp.Err)
	}
	ns.health.probed(err == nil, time.Since(start))
	return err
}

// RemoveNode departs a serve node: the next ring is persisted (a failed
// write refuses the leave and changes nothing), the ring stops routing
// to the node (epoch+1), its pooled idle connections close, and the new
// view is broadcast. The departing node is never contacted, so a dead
// or partitioned one leaves as fast as a healthy one; its keys refill
// on the survivors that take them over, one personalization each.
// Requests already in flight finish on the connections they hold — the
// node itself then drains via its own Shutdown path.
func (g *Gateway) RemoveNode(addr string) error {
	g.memberMu.Lock()
	defer g.memberMu.Unlock()
	cur := g.ring.Load()
	next, err := cur.Remove(addr)
	if err != nil {
		return err
	}
	if err := g.persistLocked(next); err != nil {
		return fmt.Errorf("cluster: leave %s refused: %w", addr, err)
	}
	g.ring.Store(next)
	g.nodesMu.Lock()
	ns := g.nodes[addr]
	delete(g.nodes, addr)
	g.nodesMu.Unlock()
	if ns != nil {
		ns.wire.Close()
	}
	g.st.ringChanged("leave", addr, next)
	g.broadcastRing(next)
	return nil
}

// broadcastRing pushes the current membership view to every member
// (OpRingUpdate) so their fences track the new epoch. Concurrent,
// bounded by ProbeTimeout per node, and deliberately decoupled from
// health: a node that misses the broadcast simply keeps an older view —
// its fence admits newer-epoch stamps, so nothing breaks — and failures
// surface as events, not breaker trips.
func (g *Gateway) broadcastRing(ring *Ring) {
	upd := g.view(ring)
	var wg sync.WaitGroup
	for _, addr := range ring.Nodes() {
		ns := g.node(addr)
		if ns == nil {
			continue
		}
		wg.Add(1)
		go func(addr string, ns *nodeState) {
			defer wg.Done()
			u := upd
			u.You = addr
			req := &serve.WireRequest{Version: cloud.ProtocolVersion, Op: serve.OpRingUpdate, Payload: u.AppendWire(nil)}
			resp, err := ns.wire.Do(req, time.Now().Add(g.cfg.ProbeTimeout))
			if err != nil {
				g.events.Record("ring-broadcast-failed", addr, err.Error())
				return
			}
			if resp.Code != cloud.CodeOK {
				g.events.Record("ring-broadcast-failed", addr, fmt.Sprintf("[%s] %s", resp.Code, resp.Err))
			}
		}(addr, ns)
	}
	wg.Wait()
}

// view is the membership view of ring: what a broadcast carries (with
// You set per member) and what the ring file holds.
func (g *Gateway) view(ring *Ring) serve.RingUpdate {
	return serve.RingUpdate{
		Epoch:        ring.Epoch(),
		Seed:         ring.Seed(),
		VirtualNodes: ring.VirtualNodes(),
		Replication:  g.cfg.Replication,
		Members:      ring.Nodes(),
	}
}

// UseStore makes dir the gateway's state directory. Its ring file is
// read once and then rewritten on every membership change before the
// change takes effect. A missing file is a fresh start: the current
// ring is persisted. A file that decodes is adopted — same seed, virtual
// nodes, members and epoch — so placement (and every shard's mask-cache
// locality) survives the restart. A file that fails its check is an
// error naming it, and the ring never rolls back to ring.prev: every
// shard's fence already holds the newer epoch and would bounce each
// request the older ring routes. Returns whether a ring was restored.
func (g *Gateway) UseStore(dir string) (bool, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, fmt.Errorf("cluster: %w", err)
	}
	path := filepath.Join(dir, "ring")
	body, err := store.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		g.memberMu.Lock()
		defer g.memberMu.Unlock()
		g.ringFile = path
		return false, g.persistLocked(g.ring.Load())
	}
	var upd serve.RingUpdate
	if err == nil {
		err = upd.DecodeWire(body)
	}
	if err == nil {
		err = g.restoreRing(upd)
	}
	if err != nil {
		return false, fmt.Errorf("cluster: ring file %s: %w", path, err)
	}
	g.memberMu.Lock()
	g.ringFile = path
	g.memberMu.Unlock()
	return true, nil
}

// restoreRing replaces the gateway's ring and membership with a
// persisted view, then broadcasts it. A view older than the live epoch
// is rejected: epochs are the cluster's fencing tokens, and rolling one
// back would let requests stamped under the regressed epoch sail past
// every stale-epoch fence.
func (g *Gateway) restoreRing(u serve.RingUpdate) error {
	ring, err := NewRing(u.Seed, u.VirtualNodes, u.Members)
	if err != nil {
		return err
	}
	if u.Epoch > ring.Epoch() {
		ring.SetEpoch(u.Epoch)
	}
	g.memberMu.Lock()
	defer g.memberMu.Unlock()
	if cur := g.ring.Load(); u.Epoch < cur.Epoch() {
		return fmt.Errorf("cluster: refusing ring epoch regression (%d < live %d)", u.Epoch, cur.Epoch())
	}
	if u.Replication > 0 {
		g.cfg.Replication = min(u.Replication, maxReplication)
	}
	g.nodesMu.Lock()
	old := g.nodes
	g.nodes = map[string]*nodeState{}
	for _, n := range ring.Nodes() {
		if ns, ok := old[n]; ok {
			g.nodes[n] = ns
			delete(old, n)
		} else {
			g.nodes[n] = g.newNodeState(n)
		}
	}
	g.nodesMu.Unlock()
	g.ring.Store(ring)
	for _, ns := range old {
		ns.wire.Close()
	}
	g.st.ringChanged("restore", "", ring)
	g.broadcastRing(ring)
	return nil
}

// persistLocked writes ring to the ring file, if UseStore named one.
// The caller holds memberMu.
func (g *Gateway) persistLocked(ring *Ring) error {
	if g.ringFile == "" {
		return nil
	}
	v := g.view(ring)
	return store.WriteFile(g.ringFile, v.AppendWire(nil))
}

// Stats snapshots the gateway's routing metrics.
func (g *Gateway) Stats() Stats {
	out := g.st.snapshot()
	ring := g.ring.Load()
	out.RingVersion = ring.Epoch()
	out.Members = append([]string(nil), ring.Nodes()...)
	out.Nodes = map[string]NodeStats{}
	g.nodesMu.RLock()
	for addr, ns := range g.nodes {
		out.Nodes[addr] = ns.health.snapshot()
	}
	g.nodesMu.RUnlock()
	return out
}

// RouteKey computes the placement key the gateway shards on: the
// request's pruning variant plus the canonical preference hash
// (core.Preferences.Key), decoded by the same two functions the shard
// decodes them with — so every spelling of one (variant, preferences)
// pair lands where its personalization is already cached. A request
// that names no variant routes as core.DefaultVariant, which is what a
// shard serves it under.
func RouteKey(req serve.WireRequest) (string, error) {
	v, err := core.ParseVariant(req.Variant)
	if err != nil {
		return "", err
	}
	prefs, err := core.NewPreferences(req.Classes, req.Weights)
	if err != nil {
		return "", err
	}
	return routeKey(v, prefs), nil
}

func routeKey(v core.Variant, prefs core.Preferences) string { return prefs.KeyUnder(v.Letter()) }

// Route answers one OpInfer or OpPersonalize request through the
// cluster (any other op is a bad request): placement lookup,
// forward to the owner over a pooled connection, failover to ring
// replicas on failure, re-route on node-side wrong-owner/ring-changed
// rejection. Exposed so the routing path can be exercised (and
// benchmarked) without sockets on the client side.
func (g *Gateway) Route(req serve.WireRequest) *serve.WireResponse { return g.route(&req) }

// route is Route on the caller's request value, stamping the routing
// fields into it — over the wire, the one the client's connection decodes
// every frame into, re-encoded from there for the shard.
func (g *Gateway) route(req *serve.WireRequest) *serve.WireResponse {
	// Only the two keyed ops are routed. Anything else — above all an
	// OpRingUpdate, which would install the client's membership view in
	// the owner shard's fence — is refused before it is admitted, counted
	// or sent anywhere.
	if req.Op != serve.OpInfer && req.Op != serve.OpPersonalize {
		return serve.Refuse(cloud.CodeBadRequest, "unknown op %d", req.Op)
	}
	if g.isDraining() {
		g.st.shedReq()
		return serve.Refuse(cloud.CodeBusy, "gateway draining")
	}
	if req.Version > cloud.ProtocolVersion {
		return serve.Refuse(cloud.CodeBadRequest, "protocol version %d not supported (gateway speaks ≤ %d)", req.Version, cloud.ProtocolVersion)
	}
	lane, ok := qos.LaneFromWire(req.Lane)
	if !ok {
		return serve.Refuse(cloud.CodeBadRequest, "unknown lane %d (want 0 interactive or 1 bulk)", req.Lane)
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = qos.DefaultTenant
	}
	key, err := RouteKey(*req)
	if err != nil {
		return serve.Refuse(cloud.CodeBadRequest, "%s", err.Error())
	}
	// Token-bucket admission runs before any backend work: an over-quota
	// tenant costs the cluster one map lookup, not a shard round trip.
	if !g.limiter.Allow(tenant, lane) {
		g.st.tenantShed(tenant, lane.String())
		return serve.Refuse(cloud.CodeOverQuota, "tenant %q over %s-lane quota, retry with backoff", tenant, lane)
	}
	g.st.admitted()
	g.st.tenantAdmitted(tenant, lane.String())
	req.RouteKey = key
	// The failover budget is the client's remaining deadline capped by
	// the gateway's own bound; before each hop the remainder is
	// re-stamped into the forwarded frame so the shard times the queue
	// wait against what the client actually has left, not what it had
	// when it dialed the gateway.
	now := time.Now()
	deadline := now.Add(g.cfg.RequestTimeout)
	var clientDeadline time.Time
	if req.BudgetMicros < 0 {
		g.st.shedExpired()
		return serve.Refuse(cloud.CodeExpired, "deadline budget exhausted before arrival (%dµs over)", -req.BudgetMicros)
	}
	if d, binds := qos.Budget(req.BudgetMicros, g.cfg.RequestTimeout); binds {
		clientDeadline = now.Add(d)
		deadline = clientDeadline
	}

	var owners [maxReplication]string
	var last *serve.WireResponse
	var lastErr error
	attempts, prevAddr := 0, ""
	// Routing rounds: another one runs only when a node rejected the
	// placement (wrong owner / ring changed) and the ring moved since the
	// round began, after reloading it. Back-to-back membership changes
	// can outrun a request more than once, so the rounds are bounded by
	// the deadline (checked before every attempt), not by a count.
	for {
		ring := g.ring.Load()
		req.RingVersion = ring.Epoch()
		n := ring.LookupInto(key, owners[:g.cfg.Replication])
		if n == 0 {
			return serve.Refuse(cloud.CodeInternal, "cluster: empty ring")
		}
		reroute := false
		for i := 0; i < n && !reroute; i++ {
			if time.Now().After(deadline) {
				if !clientDeadline.IsZero() && !time.Now().Before(clientDeadline) {
					// The client's budget died during failover: stop burning
					// replica attempts on a request nobody is waiting for.
					g.st.shedExpired()
					return serve.Refuse(cloud.CodeExpired, "cluster: deadline budget exhausted during failover")
				}
				g.st.errored()
				return serve.Refuse(cloud.CodeBusy, "cluster: request deadline %v exceeded during failover", g.cfg.RequestTimeout)
			}
			if !clientDeadline.IsZero() {
				rem := time.Until(clientDeadline).Microseconds()
				if rem <= 0 {
					g.st.shedExpired()
					return serve.Refuse(cloud.CodeExpired, "cluster: deadline budget exhausted during failover")
				}
				req.BudgetMicros = rem
			}
			addr := owners[i]
			ns := g.node(addr)
			if ns == nil || !ns.health.Allow() {
				continue // failed-out or departed node: next replica
			}
			if attempts > 0 {
				g.st.retried()
				if addr != prevAddr {
					g.st.failedOver(addr)
				}
			}
			attempts++
			prevAddr = addr
			attemptDeadline := time.Now().Add(g.cfg.AttemptTimeout)
			if attemptDeadline.After(deadline) {
				attemptDeadline = deadline
			}
			resp, aerr := g.attempt(ns, req, attemptDeadline)
			if aerr != nil {
				lastErr = aerr
				continue
			}
			switch resp.Code {
			case cloud.CodeOK, cloud.CodeBadRequest:
				// Definitive: success, or a request no node can serve.
				if resp.Code == cloud.CodeOK {
					g.st.completed()
				} else {
					g.st.errored()
				}
				return resp
			case cloud.CodeExpired:
				// Definitive: the deadline is as dead on every replica as it
				// is here — retrying would spend cluster capacity on a
				// request whose caller already gave up.
				g.st.shedExpired()
				return resp
			case cloud.CodeWrongOwner, cloud.CodeRingChanged:
				// The node refused the placement. Its replicas may still
				// serve it (their view can differ), so keep walking this
				// round; another full routing round runs only when the
				// ring actually moved while we were trying.
				g.st.wrongOwner()
				last = resp
				if g.ring.Load().Epoch() != ring.Epoch() {
					reroute = true
				}
			default: // busy, internal: the replica may do better
				last = resp
			}
		}
		if !reroute {
			break
		}
	}
	g.st.errored()
	if last != nil {
		return last
	}
	msg := "cluster: no routable replica"
	if lastErr != nil {
		msg = fmt.Sprintf("cluster: all replicas failed: %v", lastErr)
	}
	return serve.Refuse(cloud.CodeInternal, "%s", msg)
}

// attempt runs one exchange against one node and feeds the outcome to
// its breaker. A stale kept connection is the transport's problem (one
// fresh-dial retry inside rpc.Client, counted in Retries), not the
// node's.
func (g *Gateway) attempt(ns *nodeState, req *serve.WireRequest, deadline time.Time) (*serve.WireResponse, error) {
	resp, err := ns.wire.Do(req, deadline)
	ns.health.routed(err == nil)
	return resp, err
}

// probeLoop drives active health checking: every ProbeEvery each member
// node gets an OpHealth round trip (over the same kept connections
// traffic uses), and the outcome — including the RTT — feeds its
// breaker and stats.
func (g *Gateway) probeLoop() {
	defer g.proberWG.Done()
	tick := time.NewTicker(g.cfg.ProbeEvery)
	defer tick.Stop()
	for {
		select {
		case <-g.proberStop:
			return
		case <-tick.C:
		}
		g.nodesMu.RLock()
		states := make([]*nodeState, 0, len(g.nodes))
		for _, ns := range g.nodes {
			states = append(states, ns)
		}
		g.nodesMu.RUnlock()
		var wg sync.WaitGroup
		for _, ns := range states {
			wg.Add(1)
			go func(ns *nodeState) {
				defer wg.Done()
				g.probe(ns)
			}(ns)
		}
		wg.Wait()
	}
}

// probe runs checkHealth against a node through the same Allow() gate
// as traffic: on an open node past cooldown the probe claims the
// half-open trial (so a recovered node is closed again by the prober,
// not only by risking a live request), and while the cooldown runs — or
// another trial is in flight — the node is left alone, because the
// breaker ignores outcomes in the open state anyway.
func (g *Gateway) probe(ns *nodeState) {
	if ns.health.Allow() {
		_ = g.checkHealth(ns) // the breaker and stats hold the outcome
	}
}

// Listen starts accepting client connections on addr and returns the
// bound address.
func (g *Gateway) Listen(addr string) (string, error) { return g.srv.Listen(addr) }

// Serve accepts client connections from ln — which may be wrapped,
// e.g. with internal/faults — until Shutdown, and returns the
// listener's address. The client-facing wire protocol is exactly
// internal/serve's, so every existing serve.Client (and device) can
// point at a gateway unchanged.
func (g *Gateway) Serve(ln net.Listener) string { return g.srv.Serve(ln) }

// handle answers one client frame: the gateway's own health, everything
// else through route.
func (g *Gateway) handle(req *serve.WireRequest) *serve.WireResponse {
	switch req.Op {
	case serve.OpHealth:
		if g.isDraining() {
			return serve.Refuse(cloud.CodeBusy, "gateway draining")
		}
		return &serve.WireResponse{Version: cloud.ProtocolVersion, Code: cloud.CodeOK}
	default:
		return g.route(req)
	}
}

func (g *Gateway) isDraining() bool {
	g.drainMu.Lock()
	defer g.drainMu.Unlock()
	return g.draining
}

// Shutdown drains the gateway: new requests are shed with CodeBusy, the
// health prober stops, the listener stops accepting, idle client
// connections close at once and requests in flight get up to timeout to
// be answered, and the connections to the shards close. The ring needs
// no last write: every membership change was persisted before it took
// effect.
func (g *Gateway) Shutdown(timeout time.Duration) error {
	g.drainMu.Lock()
	first := !g.draining
	g.draining = true
	g.drainMu.Unlock()
	if first {
		close(g.proberStop)
	}
	g.proberWG.Wait()

	err := g.srv.Shutdown(timeout)
	g.nodesMu.RLock()
	for _, ns := range g.nodes {
		ns.wire.Close()
	}
	g.nodesMu.RUnlock()
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	return nil
}

// Close is Shutdown with a generous deadline.
func (g *Gateway) Close() error { return g.Shutdown(time.Minute) }
