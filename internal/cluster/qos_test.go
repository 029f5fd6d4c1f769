package cluster

import (
	"errors"
	"math"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"capnn/internal/cloud"
	"capnn/internal/qos"
	"capnn/internal/rpc"
	"capnn/internal/serve"
)

// Gateway admission: an over-quota tenant is shed with the retryable
// typed code before any shard sees the request, tenants are isolated,
// and the scrape-visible counters attribute admissions and sheds to
// their (tenant, lane) stream.
func TestGatewayAdmissionOverQuota(t *testing.T) {
	f := getClusterFixture(t)
	nodes := startTestNodes(t, 1)
	cfg := testGWConfig()
	// Bulk gets a burst of 2 and effectively no refill inside the test;
	// interactive stays unlimited.
	cfg.Admission = qos.LimiterConfig{Default: qos.LaneLimits{Bulk: qos.Limit{Rate: 0.001, Burst: 2}}}
	g, err := NewGateway(nodeAddrs(nodes), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	bulk := func(u int, tenant string) serve.WireRequest {
		req := f.inferRequest(u, u)
		req.Lane = int(qos.LaneBulk)
		req.Tenant = tenant
		return req
	}
	for i := 0; i < 2; i++ {
		if resp := g.Route(bulk(i, "batch")); resp.Code != cloud.CodeOK {
			t.Fatalf("bulk request %d within burst: [%s] %s", i, resp.Code, resp.Err)
		}
	}
	resp := g.Route(bulk(2, "batch"))
	if resp.Code != cloud.CodeOverQuota {
		t.Fatalf("bulk request past burst: [%s] %s, want over-quota", resp.Code, resp.Err)
	}
	if !resp.Code.Retryable() {
		t.Fatal("over-quota must be retryable with backoff")
	}
	// Another tenant's bucket is untouched, and the unlimited
	// interactive lane ignores bulk quota entirely.
	if resp := g.Route(bulk(3, "other")); resp.Code != cloud.CodeOK {
		t.Fatalf("tenant isolation: [%s] %s", resp.Code, resp.Err)
	}
	for i := 0; i < 4; i++ {
		if resp := g.Route(f.inferRequest(i, i)); resp.Code != cloud.CodeOK {
			t.Fatalf("interactive request %d: [%s] %s", i, resp.Code, resp.Err)
		}
	}

	st := g.Stats()
	if st.ShedOverQuota != 1 {
		t.Errorf("ShedOverQuota = %d, want 1", st.ShedOverQuota)
	}
	ts := st.Tenants["batch/bulk"]
	if ts.Admitted != 2 || ts.ShedOverQuota != 1 {
		t.Errorf("tenant batch/bulk = %+v, want admitted=2 shed=1", ts)
	}
	if _, ok := st.Tenants["batch/bulk"]; !ok {
		t.Errorf("Stats.Tenants omits the batch/bulk stream: %+v", st.Tenants)
	}
}

// A request whose deadline budget is already spent — negative on
// arrival, or so small it dies at the gateway or the shard — answers
// with the permanent expired code, never burns failover attempts on
// replicas, and is counted as an expired shed.
func TestGatewayExpiredShortCircuitsFailover(t *testing.T) {
	f := getClusterFixture(t)
	nodes := startTestNodes(t, 2)
	g, err := NewGateway(nodeAddrs(nodes), testGWConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	// Exhausted upstream: shed before any routing work.
	req := f.inferRequest(0, 0)
	req.BudgetMicros = -50
	resp := g.Route(req)
	if resp.Code != cloud.CodeExpired {
		t.Fatalf("negative budget: [%s] %s, want expired", resp.Code, resp.Err)
	}
	if resp.Code.Retryable() {
		t.Fatal("expired must not be retryable")
	}
	st := g.Stats()
	if st.ShedExpired != 1 {
		t.Errorf("ShedExpired = %d, want 1", st.ShedExpired)
	}
	for addr, ns := range st.Nodes {
		if ns.Requests != 0 {
			t.Errorf("node %s saw %d requests for a dead-on-arrival budget", addr, ns.Requests)
		}
	}

	// A budget too small to survive the trip expires at the gateway's
	// pre-attempt check or on the shard — either way the client gets the
	// permanent code after at most one node attempt (no replica burn).
	req = f.inferRequest(1, 1)
	req.BudgetMicros = 50 // 50µs: far below one queue+forward
	resp = g.Route(req)
	if resp.Code != cloud.CodeExpired {
		t.Fatalf("micro budget: [%s] %s, want expired", resp.Code, resp.Err)
	}
	st = g.Stats()
	var attempts uint64
	for _, ns := range st.Nodes {
		attempts += ns.Requests
	}
	if attempts > 1 {
		t.Errorf("expired request burned %d node attempts, want ≤ 1", attempts)
	}
	if st.Failovers != 0 {
		t.Errorf("expired request failed over %d times, want 0", st.Failovers)
	}
	if st.ShedExpired < 2 {
		t.Errorf("ShedExpired = %d, want ≥ 2", st.ShedExpired)
	}

	// Malformed lane: rejected before admission or routing.
	req = f.inferRequest(2, 2)
	req.Lane = 9
	if resp := g.Route(req); resp.Code != cloud.CodeBadRequest {
		t.Fatalf("unknown lane: [%s] %s, want bad-request", resp.Code, resp.Err)
	}
}

// The gateway re-stamps the remaining budget per hop: a healthy request
// with a generous budget rides it through the shard and still serves,
// and the forwarded frame carries a positive remainder (a shard that
// saw the original absolute value as relative would mis-time it).
func TestGatewayBudgetPropagation(t *testing.T) {
	f := getClusterFixture(t)
	nodes := startTestNodes(t, 2)
	g, err := NewGateway(nodeAddrs(nodes), testGWConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	req := f.inferRequest(0, 0)
	req.BudgetMicros = (2 * time.Second).Microseconds()
	req.Tenant = "vip"
	req.Lane = int(qos.LaneInteractive)
	if resp := g.Route(req); resp.Code != cloud.CodeOK {
		t.Fatalf("budgeted request: [%s] %s", resp.Code, resp.Err)
	}
	// The shard counted no expiry: the remainder arrived intact.
	var expired uint64
	for _, n := range nodes {
		expired += n.srv.Stats().ShedExpired
	}
	if expired != 0 {
		t.Errorf("shards shed %d budgeted requests as expired", expired)
	}
	if ts := g.Stats().Tenants["vip/interactive"]; ts.Admitted != 1 {
		t.Errorf("tenant vip/interactive = %+v, want admitted=1", ts)
	}
}

// countingListener counts accepted connections, so a test can tell a
// kept connection from a redial.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// A non-finite input is the client's fault, not the shard's: through the
// gateway it is answered once with the shard's typed bad-request — no
// retry, no failover, no breaker failure — and the gateway→shard
// connection that carried it is kept for the next request.
func TestGatewayNonFiniteInputAnsweredNotRetried(t *testing.T) {
	f := getClusterFixture(t)
	srv := serve.NewServerWith(f.sys, serve.Config{DisableGuard: true})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	counted := &countingListener{Listener: ln}
	addr := srv.Serve(counted)
	defer srv.Close()
	cfg := testGWConfig()
	cfg.Replication, cfg.ProbeEvery = 1, time.Hour // no probe connections muddying the accept count
	g, err := NewGateway([]string{addr}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gaddr, err := g.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := serve.NewClient(gaddr)
	defer c.Close()

	if _, err := c.Infer(f.inferRequest(1, 2)); err != nil {
		t.Fatalf("warm-up infer: %v", err)
	}
	accepts := counted.accepts.Load()
	bad := f.inferRequest(1, 2)
	bad.Input[5] = math.NaN()
	_, err = c.Infer(bad)
	var se *serve.Error
	if !errors.As(err, &se) || se.Code != cloud.CodeBadRequest || se.Code.Retryable() || !strings.Contains(err.Error(), "input[5]") {
		t.Fatalf("NaN input via gateway: %v, want non-retryable bad-request naming input[5]", err)
	}
	if _, err := c.Infer(f.inferRequest(1, 2)); err != nil {
		t.Fatalf("infer after the rejection: %v", err)
	}
	if st := g.Stats(); st.Retries != 0 || st.Failovers != 0 || st.Nodes[addr].Failures != 0 {
		t.Errorf("bad request was treated as a node fault: retries=%d failovers=%d node failures=%d", st.Retries, st.Failovers, st.Nodes[addr].Failures)
	}
	if n := counted.accepts.Load(); n != accepts {
		t.Errorf("shard accepted %d new connections around the rejection, want the kept one reused", n-accepts)
	}
}

// A budget too large to be a Duration means "no hurry": the gateway
// compares it in microseconds against its own RequestTimeout and neither
// it nor the shard ever multiplies it into a wrapped, negative deadline.
func TestGatewayBudgetNeverOverflows(t *testing.T) {
	nodes := startTestNodes(t, 2)
	g, err := NewGateway(nodeAddrs(nodes), testGWConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	f := getClusterFixture(t)
	for _, tc := range []struct {
		budget int64
		want   cloud.Code
	}{
		{math.MaxInt64, cloud.CodeOK},
		{math.MaxInt64 / 500, cloud.CodeOK},
		{1 << 54, cloud.CodeOK},
		{1, cloud.CodeExpired}, // under a microsecond left when the first hop is stamped
		{0, cloud.CodeOK},
		{-1, cloud.CodeExpired},
	} {
		req := f.inferRequest(1, 1)
		req.BudgetMicros = tc.budget
		if resp := g.Route(req); resp.Code != tc.want {
			t.Errorf("budget %dµs: [%s] %s, want %s", tc.budget, resp.Code, resp.Err, tc.want)
		}
	}
}

// Gateway.Route's own allocations, the shard excluded: the shard here is
// an rpc.Server whose handler returns one prebuilt answer. The 9 that are
// left: Route's by-value request (1; a wire request is routed in its
// connection's own), the route key (the preference vector's two slices
// and the key string, 3), the tenant counter's label key (2), the
// response value and logits the kept connection's client decodes into
// (2), and the stub's copy of the route-key string (1). Ceiling: that
// plus one.
func TestRouteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are taken without the race detector")
	}
	answer := &serve.WireResponse{Version: cloud.ProtocolVersion, Code: cloud.CodeOK, Logits: make([]float64, 4), CacheHit: true}
	shard := rpc.NewServer(rpc.Limits{ReadTimeout: time.Minute, WriteTimeout: time.Minute, MaxRequestBytes: 1 << 20},
		func(*serve.WireRequest) *serve.WireResponse { return answer },
		func(msg string) *serve.WireResponse {
			return &serve.WireResponse{Code: cloud.CodeBadRequest, Err: msg}
		})
	addr, err := shard.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shard.Shutdown(5 * time.Second)
	g, err := NewGateway([]string{addr}, Config{Replication: 1, ProbeEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	req := getClusterFixture(t).inferRequest(2, 2)
	allocs := testing.AllocsPerRun(200, func() {
		if resp := g.Route(req); resp.Code != cloud.CodeOK {
			t.Fatalf("[%s] %s", resp.Code, resp.Err)
		}
	})
	if allocs > routeAllocCeiling {
		t.Fatalf("Gateway.Route allocates %v times besides the shard, ceiling %d", allocs, routeAllocCeiling)
	}
	t.Logf("Route, shard excluded: %v allocs", allocs)
}

const routeAllocCeiling = 10
