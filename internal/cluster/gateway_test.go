package cluster

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"capnn/internal/cloud"
	"capnn/internal/core"
	"capnn/internal/data"
	"capnn/internal/faults"
	"capnn/internal/metrics"
	"capnn/internal/nn"
	"capnn/internal/rpc"
	"capnn/internal/serve"
	"capnn/internal/store"
	"capnn/internal/train"
)

// clusterFixture trains the tiny reference model once and hands each
// serve node its own System (a System's personalization path is
// per-instance; sharing one across servers would serialize and race).
type clusterFixture struct {
	sets     *data.Sets
	netBytes []byte
	params   core.Params
}

var (
	cfixOnce sync.Once
	cfix     *clusterFixture
	cfixErr  error
)

func getClusterFixture(t testing.TB) *clusterFixture {
	t.Helper()
	cfixOnce.Do(func() {
		gen, err := data.NewGenerator(data.SynthConfig{Classes: 4, Groups: 2, H: 12, W: 12, GroupMix: 0.5, NoiseStd: 0.3, MaxShift: 1, Seed: 51})
		if err != nil {
			cfixErr = err
			return
		}
		sets := data.MakeSets(gen, data.SetSizes{TrainPerClass: 15, ValPerClass: 8, TestPerClass: 8, ProfilePerClass: 10})
		netw := nn.NewBuilder(1, 12, 12, 61).
			Conv(6).ReLU().Pool().
			Conv(8).ReLU().Pool().
			Flatten().Dense(12).ReLU().Dense(4).MustBuild()
		tc := train.Config{Epochs: 8, BatchSize: 10, LR: 0.05, Momentum: 0.9, Seed: 5}
		if _, err := train.Train(netw, sets.Train, nil, tc); err != nil {
			cfixErr = err
			return
		}
		var buf bytes.Buffer
		if err := nn.Save(&buf, netw); err != nil {
			cfixErr = err
			return
		}
		params := core.DefaultParams()
		params.Epsilon = 0.1
		cfix = &clusterFixture{sets: sets, netBytes: buf.Bytes(), params: params}
	})
	if cfixErr != nil {
		t.Fatalf("cluster fixture: %v", cfixErr)
	}
	return cfix
}

func (f *clusterFixture) newSystem(t testing.TB) *core.System {
	t.Helper()
	netw, err := nn.Load(bytes.NewReader(f.netBytes))
	if err != nil {
		t.Fatalf("load fixture net: %v", err)
	}
	sys, err := core.NewSystem(netw, f.sets.Val, f.sets.Profile, nil, f.params)
	if err != nil {
		t.Fatalf("fixture system: %v", err)
	}
	return sys
}

// inferRequest builds a wire request for synthetic user u: the class
// pair and weighting make 8 distinct preference keys over u ∈ [0,8).
func (f *clusterFixture) inferRequest(u, sample int) serve.WireRequest {
	x, _ := f.sets.Test.Batch([]int{sample % f.sets.Test.Len()})
	return serve.WireRequest{
		Version: cloud.ProtocolVersion,
		Variant: "M",
		Classes: []int{u % 4, (u + 1) % 4},
		Weights: []float64{1, 1 + float64(u/4)},
		Input:   append([]float64(nil), x.Data()...),
	}
}

// testNode is one serve shard behind a severable (faults.Partition)
// listener, so tests can kill it mid-load and heal it.
type testNode struct {
	addr string
	srv  *serve.Server
	part *faults.Partition
}

func startTestNodes(t *testing.T, n int) []*testNode {
	t.Helper()
	f := getClusterFixture(t)
	nodes := make([]*testNode, n)
	for i := range nodes {
		srv := serve.NewServerWith(f.newSystem(t), serve.Config{DisableGuard: true})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		part := faults.PartitionListener(ln)
		addr := srv.Serve(part)
		t.Cleanup(func() { _ = srv.Close() })
		nodes[i] = &testNode{addr: addr, srv: srv, part: part}
	}
	return nodes
}

func nodeAddrs(nodes []*testNode) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.addr
	}
	return out
}

func nodeByAddr(t *testing.T, nodes []*testNode, addr string) *testNode {
	t.Helper()
	for _, n := range nodes {
		if n.addr == addr {
			return n
		}
	}
	t.Fatalf("no test node at %q", addr)
	return nil
}

// testGWConfig shrinks the health-check clock so breaker transitions
// happen within test time.
func testGWConfig() Config {
	return Config{
		Replication:    2,
		DialTimeout:    time.Second,
		RequestTimeout: 10 * time.Second,
		AttemptTimeout: 2 * time.Second,
		ProbeEvery:     25 * time.Millisecond,
		ProbeTimeout:   500 * time.Millisecond,
		FailThreshold:  2,
		Cooldown:       200 * time.Millisecond,
	}
}

// TestClusterRoutingLocality: every preference key lands on exactly one
// shard (cluster-wide cache misses == distinct keys), repeat requests
// are served bit-identically, and the nodes themselves — armed with a
// real owner check against the gateway's ring — accept every placement
// the gateway makes.
func TestClusterRoutingLocality(t *testing.T) {
	nodes := startTestNodes(t, 3)
	g, err := NewGateway(nodeAddrs(nodes), testGWConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	// Production wiring: each node rejects keys the ring says it does
	// not own. Any gateway/node placement disagreement fails the test
	// through the WrongOwner counter below.
	for _, n := range nodes {
		addr := n.addr
		n.srv.SetOwnerCheck(func(routeKey string, ringVersion uint64) cloud.Code {
			var buf [maxReplication]string
			cnt := g.Ring().LookupInto(routeKey, buf[:2])
			for i := 0; i < cnt; i++ {
				if buf[i] == addr {
					return cloud.CodeOK
				}
			}
			return cloud.CodeWrongOwner
		})
	}

	f := getClusterFixture(t)
	const users, repeats = 8, 4
	baseline := make([][]float64, users)
	for r := 0; r < repeats; r++ {
		for u := 0; u < users; u++ {
			resp := g.Route(f.inferRequest(u, u))
			if resp.Code != cloud.CodeOK {
				t.Fatalf("user %d repeat %d: [%s] %s", u, r, resp.Code, resp.Err)
			}
			if r == 0 {
				baseline[u] = resp.Logits
				continue
			}
			for i, l := range resp.Logits {
				if l != baseline[u][i] {
					t.Fatalf("user %d repeat %d: logit %d = %v, first answer %v (routing broke determinism)", u, r, i, l, baseline[u][i])
				}
			}
		}
	}

	// Scrape every shard over the wire (OpStats) and check locality:
	// each of the 8 keys personalized on exactly one node.
	var misses, reqs uint64
	active := 0
	for _, n := range nodes {
		st, err := serve.NewClient(n.addr).Stats()
		if err != nil {
			t.Fatalf("scrape %s: %v", n.addr, err)
		}
		misses += st.CacheMisses
		reqs += st.Requests
		if st.Requests > 0 {
			active++
			if st.CacheHits == 0 {
				t.Errorf("node %s served %d requests with zero cache hits (repeat traffic should hit)", n.addr, st.Requests)
			}
		}
	}
	if misses != users {
		t.Errorf("cluster-wide cache misses = %d, want %d: a key personalized on more than one shard (or was re-personalized)", misses, users)
	}
	if reqs != users*repeats {
		t.Errorf("shards served %d requests, want %d", reqs, users*repeats)
	}
	if active < 2 {
		t.Errorf("only %d of 3 nodes received traffic; 8 keys should spread", active)
	}
	gs := g.Stats()
	if gs.Completed != users*repeats || gs.Errors != 0 || gs.Failovers != 0 || gs.WrongOwner != 0 {
		t.Errorf("gateway stats: completed=%d errors=%d failovers=%d wrong-owner=%d, want %d/0/0/0",
			gs.Completed, gs.Errors, gs.Failovers, gs.WrongOwner, users*repeats)
	}
}

// TestClusterFailoverKillNode is the acceptance criterion: killing one
// serve node mid-load yields zero client-visible failures — the
// gateway retries each affected request on the key's next replica. The
// dead node's breaker opens; after the partition heals, probes close
// it again.
func TestClusterFailoverKillNode(t *testing.T) {
	nodes := startTestNodes(t, 3)
	g, err := NewGateway(nodeAddrs(nodes), testGWConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	f := getClusterFixture(t)
	const users = 6
	for u := 0; u < users; u++ {
		if resp := g.Route(f.inferRequest(u, u)); resp.Code != cloud.CodeOK {
			t.Fatalf("warm user %d: [%s] %s", u, resp.Code, resp.Err)
		}
	}
	key, err := RouteKey(f.inferRequest(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	victim := nodeByAddr(t, nodes, g.Ring().Owner(key))

	const workers, perWorker = 8, 30
	var done, failures atomic.Uint64
	var failMu sync.Mutex
	firstFail := ""
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWorker; i++ {
				resp := g.Route(f.inferRequest((w+i)%users, i))
				if resp.Code != cloud.CodeOK {
					failures.Add(1)
					failMu.Lock()
					if firstFail == "" {
						firstFail = fmt.Sprintf("[%s] %s", resp.Code, resp.Err)
					}
					failMu.Unlock()
				}
				// Kill the victim once the load is demonstrably mid-flight.
				// The request that crosses the mark does it, so the kill
				// lands at a fixed point of the load however fast it runs.
				if done.Add(1) == workers*perWorker/6 {
					victim.part.SetPartitioned(true)
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d client-visible failures after killing %s mid-load (first: %s)", n, victim.addr, firstFail)
	}
	gs := g.Stats()
	if gs.Failovers == 0 {
		t.Errorf("killed a primary mid-load but gateway reports zero failovers:\n%s", gs)
	}
	if gs.Completed != users+workers*perWorker {
		t.Errorf("completed=%d, want %d", gs.Completed, users+workers*perWorker)
	}

	// The victim's breaker must open, then close again once healed.
	waitNodeState := func(want serve.BreakerState, timeout time.Duration) {
		t.Helper()
		deadline := time.Now().Add(timeout)
		for {
			ns := g.Stats().Nodes[victim.addr]
			if ns.State == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %s stuck in state %s, want %s", victim.addr, ns.State, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitNodeState(serve.BreakerOpen, 2*time.Second)
	victim.part.SetPartitioned(false)
	waitNodeState(serve.BreakerClosed, 5*time.Second)
	if ns := g.Stats().Nodes[victim.addr]; ns.Opens == 0 || ns.Closes == 0 {
		t.Errorf("breaker transitions not counted: %+v", ns)
	}
	if resp := g.Route(f.inferRequest(0, 0)); resp.Code != cloud.CodeOK {
		t.Fatalf("post-heal request: [%s] %s", resp.Code, resp.Err)
	}
}

// TestClusterWrongOwnerReroute: a node that rejects a placement with
// CodeWrongOwner does not surface the rejection to the client — the
// gateway carries the request to the key's next replica.
func TestClusterWrongOwnerReroute(t *testing.T) {
	nodes := startTestNodes(t, 3)
	g, err := NewGateway(nodeAddrs(nodes), testGWConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	f := getClusterFixture(t)
	req := f.inferRequest(2, 1)
	key, err := RouteKey(req)
	if err != nil {
		t.Fatal(err)
	}
	primary := nodeByAddr(t, nodes, g.Ring().Owner(key))
	primary.srv.SetOwnerCheck(func(routeKey string, ringVersion uint64) cloud.Code {
		if routeKey == key {
			return cloud.CodeWrongOwner
		}
		return cloud.CodeOK
	})
	resp := g.Route(req)
	if resp.Code != cloud.CodeOK {
		t.Fatalf("request with fenced primary: [%s] %s", resp.Code, resp.Err)
	}
	gs := g.Stats()
	if gs.WrongOwner == 0 || gs.Failovers == 0 {
		t.Errorf("wrong-owner=%d failovers=%d, want both ≥ 1:\n%s", gs.WrongOwner, gs.Failovers, gs)
	}
}

// TestGatewayWireProtocolAndScrape: an unchanged serve.Client can point
// at the gateway (drop-in wire compatibility), gateway stats are
// remotely scrapeable, and Shutdown drains: new work is shed with
// CodeBusy and the listener stops.
func TestGatewayWireProtocolAndScrape(t *testing.T) {
	nodes := startTestNodes(t, 3)
	g, err := NewGateway(nodeAddrs(nodes), testGWConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gaddr, err := g.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := getClusterFixture(t)
	c := serve.NewClient(gaddr)
	resp, err := c.Infer(f.inferRequest(1, 2))
	if err != nil {
		t.Fatalf("infer via gateway: %v", err)
	}
	if resp.Code != cloud.CodeOK || len(resp.Logits) != 4 {
		t.Fatalf("infer via gateway: code %s, %d logits", resp.Code, len(resp.Logits))
	}
	if err := c.Health(); err != nil {
		t.Fatalf("gateway health: %v", err)
	}
	st, err := ScrapeStats(gaddr, 2*time.Second)
	if err != nil {
		t.Fatalf("scrape gateway: %v", err)
	}
	if st.RingVersion != 1 || len(st.Members) != 3 || st.Completed < 1 {
		t.Errorf("scraped stats: version=%d members=%d completed=%d", st.RingVersion, len(st.Members), st.Completed)
	}
	if len(st.Nodes) != 3 {
		t.Errorf("scraped stats carry %d node entries, want 3", len(st.Nodes))
	}
	// A frame that leads with a later protocol version is refused at the
	// gateway, typed, and no shard hears of it.
	before := g.Stats().Requests
	future := f.inferRequest(1, 2)
	future.Version = cloud.ProtocolVersion + 1
	raw := rpc.NewClient[serve.WireRequest, serve.WireResponse](gaddr, time.Second, 0)
	if resp, err := raw.Do(&future, time.Now().Add(2*time.Second)); err != nil || resp.Code != cloud.CodeBadRequest || !strings.Contains(resp.Err, "protocol version 5 not supported") {
		t.Errorf("future-version frame: resp=%+v err=%v, want a typed bad request naming the version", resp, err)
	}
	if after := g.Stats().Requests; after != before {
		t.Errorf("the refused frame was routed (%d → %d requests)", before, after)
	}

	if err := g.Shutdown(2 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if resp := g.Route(f.inferRequest(1, 2)); resp.Code != cloud.CodeBusy {
		t.Fatalf("route while draining: [%s] %s, want busy shed", resp.Code, resp.Err)
	}
	if g.Stats().Shed == 0 {
		t.Error("shed counter did not move")
	}
	if _, err := c.Infer(f.inferRequest(1, 2)); err == nil {
		t.Error("infer after shutdown should fail (listener closed)")
	}
}

// TestGatewayRingPersistence: ring configuration (seed, vnodes,
// members, version) survives a gateway restart through the store, so a
// restarted gateway places every key exactly where its predecessor did
// — even when booted with a stale member list and a different seed.
func TestGatewayRingPersistence(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testGWConfig()
	cfg.Seed = 11
	cfg.ProbeEvery = time.Hour // members are fake addresses; keep the prober quiet
	cfg.DisableJoinProbe = true
	g1, err := NewGateway([]string{"s1:1", "s2:1"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := g1.UseStore(st)
	if err != nil {
		t.Fatal(err)
	}
	if restored {
		t.Fatal("fresh store restored a ring config")
	}
	if err := g1.AddNode("s3:1"); err != nil {
		t.Fatal(err)
	}
	if err := g1.Shutdown(time.Second); err != nil {
		t.Fatal(err)
	}

	cfg2 := testGWConfig()
	cfg2.Seed = 99 // deliberately wrong: the persisted seed must win
	cfg2.ProbeEvery = time.Hour
	cfg2.DisableJoinProbe = true
	g2, err := NewGateway([]string{"s1:1"}, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	restored, err = g2.UseStore(st2)
	if err != nil {
		t.Fatal(err)
	}
	if !restored {
		t.Fatal("ring config not restored from store")
	}
	r1, r2 := g1.Ring(), g2.Ring()
	if r2.Seed() != 11 || r2.Version() < r1.Version() || r2.Len() != 3 {
		t.Fatalf("restored ring: seed=%d version=%d members=%v", r2.Seed(), r2.Version(), r2.Nodes())
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("M/%016x", i*7919)
		o1, o2 := r1.Owners(key, 2), r2.Owners(key, 2)
		if len(o1) != len(o2) || o1[0] != o2[0] || o1[1] != o2[1] {
			t.Fatalf("key %s placed at %v before restart, %v after", key, o1, o2)
		}
	}
}

// Every metric the gateway registers must pass the repo-wide naming
// lint — including the series emitted by the per-node collector, which
// only exist at gather time.
func TestGatewayMetricNamingLint(t *testing.T) {
	nodes := startTestNodes(t, 2)
	g, err := NewGateway(nodeAddrs(nodes), testGWConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	fams := g.Metrics().Gather()
	if len(fams) == 0 {
		t.Fatal("no metric families registered")
	}
	sawNodeSeries := false
	for _, fam := range fams {
		if !metrics.ValidName(fam.Name) {
			t.Errorf("metric %q fails the naming lint", fam.Name)
		}
		if fam.Kind == metrics.KindCounter && !strings.HasSuffix(fam.Name, "_total") {
			t.Errorf("counter %q must end in _total", fam.Name)
		}
		if !strings.HasPrefix(fam.Name, "capnn_gateway_") {
			t.Errorf("gateway metric %q missing capnn_gateway_ prefix", fam.Name)
		}
		if fam.Name == "capnn_gateway_node_state" && len(fam.Samples) == 2 {
			sawNodeSeries = true
		}
	}
	if !sawNodeSeries {
		t.Error("per-node collector emitted no capnn_gateway_node_state series")
	}
	// The shed reasons are pre-seeded: a scrape before any shed must
	// already carry all three series.
	for _, fam := range fams {
		if fam.Name == "capnn_gateway_shed_total" && len(fam.Samples) != 3 {
			t.Errorf("shed family should hold 3 pre-seeded reasons, got %d", len(fam.Samples))
		}
	}
}

// TestRouteKeyNamesTheShardsCacheKey: the gateway and the shard decode a
// request's (variant, preferences) with the same two core functions, so
// every accepted spelling of one pair — variant letter in either case or
// left to the default, classes in any order, weights absent, unscaled or
// normalized — routes under one key and fills one cache entry. A
// spelling the shard rejects has no route key either.
func TestRouteKeyNamesTheShardsCacheKey(t *testing.T) {
	f := getClusterFixture(t)
	x, _ := f.sets.Test.Batch([]int{0})
	prefSpellings := []struct {
		classes []int
		weights []float64
	}{
		{[]int{0, 2}, nil},
		{[]int{2, 0}, nil},
		{[]int{0, 2}, []float64{1, 1}},
		{[]int{2, 0}, []float64{0.5, 0.5}},
	}
	for letter, spellings := range map[string][]string{"B": {"B", "b"}, "W": {"W", "w"}, "M": {"M", "m", ""}} {
		srv := serve.NewServerWith(f.newSystem(t), serve.Config{DisableGuard: true})
		keys := map[string]bool{}
		for _, variant := range spellings {
			for _, p := range prefSpellings {
				req := serve.WireRequest{Version: cloud.ProtocolVersion, Variant: variant,
					Classes: p.classes, Weights: p.weights, Input: x.Data()}
				key, err := RouteKey(req)
				if err != nil {
					t.Fatalf("variant %q %+v: %v", variant, p, err)
				}
				keys[key] = true
				if resp := srv.Handle(req); resp.Code != cloud.CodeOK {
					t.Fatalf("variant %q %+v: shard answered [%s] %s", variant, p, resp.Code, resp.Err)
				}
			}
		}
		entries := srv.Stats().CacheEntries
		_ = srv.Close()
		if len(keys) != 1 || entries != 1 {
			t.Fatalf("variant %s: %d route keys %v and %d cache entries, want one of each", letter, len(keys), keys, entries)
		}
	}
	for _, bad := range []serve.WireRequest{
		{Variant: "X", Classes: []int{0}, Input: x.Data()},
		{Variant: "M", Classes: []int{0, 1}, Weights: []float64{1}, Input: x.Data()},
	} {
		if _, err := RouteKey(bad); err == nil {
			t.Errorf("RouteKey accepted %q %v %v", bad.Variant, bad.Classes, bad.Weights)
		}
	}
}
