package cluster

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"capnn/internal/cloud"
	"capnn/internal/serve"
)

// wireFences gives every test node the production fence wiring: ring
// broadcasts install a local membership view, and each routed request's
// placement stamp is judged against it.
func wireFences(nodes []*testNode) map[string]*Fence {
	out := map[string]*Fence{}
	for _, n := range nodes {
		fence := NewFence()
		n.srv.SetOwnerCheck(fence.Check)
		n.srv.SetRingUpdate(fence.Apply)
		out[n.addr] = fence
	}
	return out
}

// clusterMisses sums the cache misses of every node, departed ones
// included.
func clusterMisses(nodes []*testNode) uint64 {
	var misses uint64
	for _, n := range nodes {
		misses += n.srv.Stats().CacheMisses
	}
	return misses
}

// TestElasticJoinColdRefill: a node joining under warm traffic bumps
// the epoch by one, moves only the keys whose primary owner changed, and
// broadcasts the new view to every member's fence. Nothing is copied: a
// moved key costs exactly one personalization on the joiner, an unmoved
// key none, and no request errors.
func TestElasticJoinColdRefill(t *testing.T) {
	nodes := startTestNodes(t, 4)
	initial, joiner := nodes[:3], nodes[3]
	g, err := NewGateway(nodeAddrs(initial), testGWConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	fences := wireFences(nodes)
	f := getClusterFixture(t)

	const users = 8
	for u := 0; u < users; u++ {
		if resp := g.Route(f.inferRequest(u, u)); resp.Code != cloud.CodeOK {
			t.Fatalf("warm user %d: [%s] %s", u, resp.Code, resp.Err)
		}
	}

	oldRing := g.Ring()
	if err := g.AddNode(joiner.addr); err != nil {
		t.Fatal(err)
	}
	newRing := g.Ring()
	if newRing.Epoch() != oldRing.Epoch()+1 {
		t.Fatalf("epoch %d -> %d, want +1", oldRing.Epoch(), newRing.Epoch())
	}

	// Bounded movement: a key either kept its owner or moved to the
	// joiner; nothing shuffled between survivors.
	moved := 0
	for u := 0; u < users; u++ {
		key, err := RouteKey(f.inferRequest(u, u))
		if err != nil {
			t.Fatal(err)
		}
		oldOwner, newOwner := oldRing.Owner(key), newRing.Owner(key)
		if oldOwner != newOwner {
			if newOwner != joiner.addr {
				t.Fatalf("user %d moved %s -> %s, not to the joiner", u, oldOwner, newOwner)
			}
			moved++
		}
	}

	// The broadcast is synchronous with the flip: by the time AddNode
	// returned, every member's fence tracks the new epoch.
	for _, n := range nodes {
		if got := fences[n.addr].Epoch(); got != newRing.Epoch() {
			t.Errorf("fence on %s at epoch %d, want %d", n.addr, got, newRing.Epoch())
		}
	}

	for u := 0; u < users; u++ {
		if resp := g.Route(f.inferRequest(u, u)); resp.Code != cloud.CodeOK {
			t.Fatalf("post-join user %d: [%s] %s", u, resp.Code, resp.Err)
		}
	}

	// One warm-up miss per key, one refill per moved key on the joiner.
	if misses := clusterMisses(nodes); misses != users+uint64(moved) {
		t.Errorf("cluster-wide cache misses = %d, want %d users + %d moved", misses, users, moved)
	}
	if gs := g.Stats(); gs.Errors != 0 {
		t.Errorf("gateway errors = %d across a join, want 0", gs.Errors)
	}
}

// TestElasticLeaveColdRefill: removing a node moves only the keys it
// owned, each to a survivor that refills it with one personalization;
// unmoved keys keep their placement and their warm entries, and no
// request errors.
func TestElasticLeaveColdRefill(t *testing.T) {
	nodes := startTestNodes(t, 3)
	g, err := NewGateway(nodeAddrs(nodes), testGWConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	wireFences(nodes)
	f := getClusterFixture(t)

	const users = 8
	for u := 0; u < users; u++ {
		if resp := g.Route(f.inferRequest(u, u)); resp.Code != cloud.CodeOK {
			t.Fatalf("warm user %d: [%s] %s", u, resp.Code, resp.Err)
		}
	}
	key0, err := RouteKey(f.inferRequest(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	oldRing := g.Ring()
	victim := oldRing.Owner(key0) // guaranteed to hold at least user 0's entry

	if err := g.RemoveNode(victim); err != nil {
		t.Fatal(err)
	}
	newRing := g.Ring()
	if newRing.Epoch() != oldRing.Epoch()+1 || newRing.Len() != 2 {
		t.Fatalf("post-leave ring: epoch=%d members=%d, want %d/2", newRing.Epoch(), newRing.Len(), oldRing.Epoch()+1)
	}
	moved := 0
	for u := 0; u < users; u++ {
		key, _ := RouteKey(f.inferRequest(u, u))
		o := oldRing.Owner(key)
		if o == victim {
			moved++
		} else if newRing.Owner(key) != o {
			t.Fatalf("user %d was owned by survivor %s but moved to %s", u, o, newRing.Owner(key))
		}
	}

	for u := 0; u < users; u++ {
		if resp := g.Route(f.inferRequest(u, u)); resp.Code != cloud.CodeOK {
			t.Fatalf("post-leave user %d: [%s] %s", u, resp.Code, resp.Err)
		}
	}
	// The departed node's warm-up misses count too: each of its keys
	// missed once there and once more on the survivor that took it.
	if misses := clusterMisses(nodes); misses != users+uint64(moved) {
		t.Errorf("cluster-wide cache misses = %d, want %d users + %d moved", misses, users, moved)
	}
	gs := g.Stats()
	if gs.Errors != 0 {
		t.Errorf("gateway errors = %d across a leave, want 0", gs.Errors)
	}
	if _, ok := gs.Nodes[victim]; ok {
		t.Errorf("departed node %s still has gateway node state", victim)
	}
}

// TestStaleEpochRetriesOnFreshRing pins the fencing contract: a request
// stamped under an epoch the shard has already moved past bounces with
// CodeRingChanged, and the gateway — seeing its ring flipped while the
// attempt was in flight — re-routes it on the fresh ring exactly once
// and succeeds. The client sees one OK, never the fence.
func TestStaleEpochRetriesOnFreshRing(t *testing.T) {
	nodes := startTestNodes(t, 3)
	g, err := NewGateway(nodeAddrs(nodes), testGWConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	f := getClusterFixture(t)
	if resp := g.Route(f.inferRequest(0, 0)); resp.Code != cloud.CodeOK {
		t.Fatalf("warm: [%s] %s", resp.Code, resp.Err)
	}

	// Same members, epoch 2: the shard-side view after a membership
	// change the gateway's in-flight stamp predates. The first fenced
	// attempt also flips the gateway's ring, reproducing exactly the
	// race a concurrent AddNode creates.
	cur := g.Ring()
	r2, err := NewRing(cur.Seed(), cur.VirtualNodes(), cur.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	r2.SetEpoch(2)
	var flipped atomic.Bool
	for _, n := range nodes {
		n.srv.SetOwnerCheck(func(routeKey string, ringVersion uint64) cloud.Code {
			if ringVersion < 2 {
				if flipped.CompareAndSwap(false, true) {
					g.ring.Store(r2)
				}
				return cloud.CodeRingChanged
			}
			return cloud.CodeOK
		})
	}

	resp := g.Route(f.inferRequest(0, 0))
	if resp.Code != cloud.CodeOK {
		t.Fatalf("stale-epoch route: [%s] %s, want OK after re-route", resp.Code, resp.Err)
	}
	gs := g.Stats()
	if gs.WrongOwner != 1 {
		t.Errorf("fenced attempts = %d, want exactly 1", gs.WrongOwner)
	}
	if gs.Retries != 1 {
		t.Errorf("retries = %d, want exactly 1 (one fence, one fresh-ring retry)", gs.Retries)
	}
	if gs.Errors != 0 {
		t.Errorf("errors = %d, want 0 (the fence must stay client-invisible)", gs.Errors)
	}
}

// TestBackToBackEpochsStayClientInvisible: membership changes can land
// faster than a request re-routes (three leaves in a row are milliseconds
// apart once no cold fill paces them), so the shard may fence the same
// request under epoch 2 and again under epoch 3. Every fence that comes
// with a moved ring earns a fresh round; the client sees one OK.
func TestBackToBackEpochsStayClientInvisible(t *testing.T) {
	nodes := startTestNodes(t, 3)
	g, err := NewGateway(nodeAddrs(nodes), testGWConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	f := getClusterFixture(t)
	if resp := g.Route(f.inferRequest(0, 0)); resp.Code != cloud.CodeOK {
		t.Fatalf("warm: [%s] %s", resp.Code, resp.Err)
	}

	const final = 4
	cur := g.Ring()
	var mu sync.Mutex
	for _, n := range nodes {
		n.srv.SetOwnerCheck(func(routeKey string, ringVersion uint64) cloud.Code {
			if ringVersion >= final {
				return cloud.CodeOK
			}
			// The shard is one epoch ahead of the stamp, and the gateway's
			// ring catches up while the fenced attempt is in flight.
			mu.Lock()
			defer mu.Unlock()
			if g.Ring().Epoch() == ringVersion {
				next, err := NewRing(cur.Seed(), cur.VirtualNodes(), cur.Nodes())
				if err != nil {
					t.Error(err)
					return cloud.CodeInternal
				}
				next.SetEpoch(ringVersion + 1)
				g.ring.Store(next)
			}
			return cloud.CodeRingChanged
		})
	}

	resp := g.Route(f.inferRequest(0, 0))
	if resp.Code != cloud.CodeOK {
		t.Fatalf("route across %d back-to-back epochs: [%s] %s, want OK", final-1, resp.Code, resp.Err)
	}
	if gs := g.Stats(); gs.Errors != 0 || gs.WrongOwner != final-1 {
		t.Errorf("errors = %d, fenced attempts = %d; want 0 and %d", gs.Errors, gs.WrongOwner, final-1)
	}
}

// TestRestoreRejectsEpochRegression: epochs are fencing tokens, so a
// persisted ring view older than the live epoch is refused (and the
// live ring untouched), while re-applying the current epoch is
// accepted.
func TestRestoreRejectsEpochRegression(t *testing.T) {
	cfg := testGWConfig()
	cfg.ProbeEvery = time.Hour // placeholder members; keep the prober quiet
	cfg.DialTimeout = 50 * time.Millisecond
	g, err := NewGateway([]string{"s1:1", "s2:1"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if err := g.AddNode(okNode(t)); err != nil { // epoch 2
		t.Fatal(err)
	}
	if err := g.AddNode(okNode(t)); err != nil { // epoch 3
		t.Fatal(err)
	}
	ring := g.Ring()
	if ring.Epoch() != 3 {
		t.Fatalf("epoch = %d after two joins, want 3", ring.Epoch())
	}

	stale := serve.RingUpdate{
		Seed: ring.Seed(), VirtualNodes: ring.VirtualNodes(), Replication: 2,
		Epoch: 1, Members: []string{"s1:1", "s2:1"},
	}
	if err := g.restoreRing(stale); err == nil {
		t.Fatal("epoch regression accepted")
	}
	if got := g.Ring(); got.Epoch() != 3 || got.Len() != 4 {
		t.Fatalf("rejected restore mutated the ring: epoch=%d members=%d", got.Epoch(), got.Len())
	}

	same := serve.RingUpdate{
		Seed: ring.Seed(), VirtualNodes: ring.VirtualNodes(), Replication: 2,
		Epoch: ring.Epoch(), Members: append([]string(nil), ring.Nodes()...),
	}
	if err := g.restoreRing(same); err != nil {
		t.Fatalf("re-applying the live epoch should be idempotent: %v", err)
	}
}

// TestJoinRefusesSickNode: AddNode preflight-probes the joiner; one
// that cannot answer is refused before it owns any keyspace, the epoch
// does not move, and no node state leaks.
func TestJoinRefusesSickNode(t *testing.T) {
	nodes := startTestNodes(t, 2)
	g, err := NewGateway(nodeAddrs(nodes), testGWConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	before := g.Ring().Epoch()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	_ = ln.Close() // a port nothing answers on

	if err := g.AddNode(dead); err == nil {
		t.Fatal("unreachable joiner accepted into the ring")
	}
	if got := g.Ring(); got.Epoch() != before || got.Len() != 2 {
		t.Fatalf("refused join mutated the ring: epoch=%d members=%v", got.Epoch(), got.Nodes())
	}
	if _, ok := g.Stats().Nodes[dead]; ok {
		t.Error("refused joiner left node state behind")
	}
}

// TestChaosPartitionedLeave is the rebalance chaos criterion: the
// outgoing owner is partitioned away before its leave. The leave never
// contacts it, so it returns within one broadcast to the survivors —
// under ProbeTimeout, where any exchange with the severed node would
// block at least that long — the epoch flips, and the whole working set
// still serves: the victim's keys refill once each on the survivors.
func TestChaosPartitionedLeave(t *testing.T) {
	nodes := startTestNodes(t, 3)
	cfg := testGWConfig()
	g, err := NewGateway(nodeAddrs(nodes), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	wireFences(nodes)
	f := getClusterFixture(t)

	const users = 8
	for u := 0; u < users; u++ {
		if resp := g.Route(f.inferRequest(u, u)); resp.Code != cloud.CodeOK {
			t.Fatalf("warm user %d: [%s] %s", u, resp.Code, resp.Err)
		}
	}
	key0, err := RouteKey(f.inferRequest(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	oldRing := g.Ring()
	victim := nodeByAddr(t, nodes, oldRing.Owner(key0))
	victim.part.SetPartitioned(true)
	moved := 0
	for u := 0; u < users; u++ {
		key, _ := RouteKey(f.inferRequest(u, u))
		if oldRing.Owner(key) == victim.addr {
			moved++
		}
	}

	start := time.Now()
	if err := g.RemoveNode(victim.addr); err != nil {
		t.Fatalf("leave of a partitioned node: %v", err)
	}
	if took := time.Since(start); took >= cfg.ProbeTimeout {
		t.Errorf("leave with severed owner took %v, want under ProbeTimeout %v", took, cfg.ProbeTimeout)
	}
	if got := g.Ring(); got.Epoch() != oldRing.Epoch()+1 || got.Len() != 2 {
		t.Fatalf("post-leave ring: epoch=%d members=%d, want %d/2", got.Epoch(), got.Len(), oldRing.Epoch()+1)
	}

	for u := 0; u < users; u++ {
		if resp := g.Route(f.inferRequest(u, u)); resp.Code != cloud.CodeOK {
			t.Fatalf("post-chaos user %d: [%s] %s", u, resp.Code, resp.Err)
		}
	}
	if misses := clusterMisses(nodes); misses != users+uint64(moved) {
		t.Errorf("cluster-wide cache misses = %d, want %d users + %d moved", misses, users, moved)
	}
	if gs := g.Stats(); gs.Errors != 0 {
		t.Errorf("gateway errors = %d after chaos rebalance, want 0", gs.Errors)
	}
}

// TestElasticScaleUnderLoad runs the smoke script's elastic phase in
// process (and under -race in CI): 3 → 5 → 2 members while goroutines
// route the working set without pause. Every request answers OK, the
// gateway counts no errors, and each of the five changes moves the
// epoch by exactly one.
func TestElasticScaleUnderLoad(t *testing.T) {
	nodes := startTestNodes(t, 5)
	g, err := NewGateway(nodeAddrs(nodes[:3]), testGWConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	wireFences(nodes)
	f := getClusterFixture(t)
	epoch := g.Ring().Epoch()

	const users, routers = 8, 3
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var routed atomic.Int64
	for r := 0; r < routers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				u := i % users
				if resp := g.Route(f.inferRequest(u, u)); resp.Code != cloud.CodeOK {
					t.Errorf("user %d: [%s] %s", u, resp.Code, resp.Err)
					return
				}
				routed.Add(1)
			}
		}(r)
	}
	halt := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer halt() // a failed change must not leave routers logging past the test
	change := func(what string, do func(string) error, n *testNode) {
		t.Helper()
		before := routed.Load()
		for routed.Load() < before+users && !t.Failed() {
			time.Sleep(time.Millisecond) // let traffic run on every ring
		}
		if err := do(n.addr); err != nil {
			t.Fatalf("%s %s: %v", what, n.addr, err)
		}
		if epoch++; g.Ring().Epoch() != epoch {
			t.Fatalf("%s %s: epoch %d, want %d", what, n.addr, g.Ring().Epoch(), epoch)
		}
	}
	change("join", g.AddNode, nodes[3])
	change("join", g.AddNode, nodes[4])
	change("leave", g.RemoveNode, nodes[0])
	change("leave", g.RemoveNode, nodes[2])
	change("leave", g.RemoveNode, nodes[4])
	halt()
	if got := g.Ring().Len(); got != 2 {
		t.Fatalf("%d members after 3 → 5 → 2, want 2", got)
	}
	if gs := g.Stats(); gs.Errors != 0 {
		t.Errorf("gateway errors = %d across 3 → 5 → 2 under load, want 0", gs.Errors)
	}
}
