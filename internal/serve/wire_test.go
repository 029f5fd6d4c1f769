package serve

import (
	"net"
	"testing"
	"time"

	"capnn/internal/cloud"
	"capnn/internal/rpc"
)

// TestWireStatsAndHealthOps: Stats and Health are remotely scrapeable
// ops on the same wire as inference.
func TestWireStatsAndHealthOps(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{DisableGuard: true})
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(addr)
	if err := c.Health(); err != nil {
		t.Fatalf("health: %v", err)
	}
	x, _ := f.sets.Test.Batch([]int{0})
	resp, err := c.Infer(WireRequest{Version: cloud.ProtocolVersion, Classes: []int{0, 2}, Input: x.Data()})
	if err != nil || resp.Code != cloud.CodeOK {
		t.Fatalf("infer: %v / %+v", err, resp)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Requests != 1 || st.CacheMisses != 1 {
		t.Errorf("scraped stats requests=%d misses=%d, want 1/1 (ops must not count as inferences)", st.Requests, st.CacheMisses)
	}
}

// TestWirePersistentConnection: one connection, many requests — the
// stream a cluster gateway pools. Mixed ops must all answer on the same
// connection, and a plain close afterwards must not elicit a response.
func TestWirePersistentConnection(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{DisableGuard: true})
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn := rpc.NewClient[WireRequest, WireResponse](addr, time.Second, 1)
	defer conn.Close()
	dials := 0
	conn.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
		dials++
		return net.DialTimeout("tcp", addr, timeout)
	}
	x, _ := f.sets.Test.Batch([]int{1})
	reqs := []WireRequest{
		{Version: cloud.ProtocolVersion, Op: OpHealth},
		{Version: cloud.ProtocolVersion, Classes: []int{1, 3}, Input: x.Data()},
		{Version: cloud.ProtocolVersion, Op: OpStats},
		{Version: cloud.ProtocolVersion, Classes: []int{1, 3}, Input: x.Data()},
	}
	for i, req := range reqs {
		resp, err := conn.Do(&req, time.Now().Add(5*time.Second))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if resp.Code != cloud.CodeOK {
			t.Fatalf("request %d: [%s] %s", i, resp.Code, resp.Err)
		}
		switch i {
		case 2:
			var st Stats
			if err := DecodePayload(resp.Payload, &st); err != nil || st.Requests != 1 {
				t.Fatalf("OpStats on persistent conn: %+v (%v)", st, err)
			}
		case 3:
			if !resp.CacheHit {
				t.Error("second identical inference on same conn should hit the mask cache")
			}
		}
	}
	if dials != 1 {
		t.Fatalf("%d requests used %d connections, want 1", len(reqs), dials)
	}
}

// TestHitRatio pins the cache-hit-ratio arithmetic, including the
// shared-singleflight lookups that are neither hit nor miss.
func TestHitRatio(t *testing.T) {
	if r := (Stats{}).HitRatio(); r != 0 {
		t.Errorf("empty stats hit ratio %v, want 0", r)
	}
	s := Stats{CacheHits: 6, CacheMisses: 2, SingleflightShared: 2}
	if r := s.HitRatio(); r != 0.6 {
		t.Errorf("hit ratio %v, want 0.6", r)
	}
}
