package serve

import (
	"fmt"
	"net"
	"testing"
	"time"

	"capnn/internal/cloud"
	"capnn/internal/rpc"
)

// TestWireStatsAndHealthOps: Health is an op on the same wire as
// inference, and the in-process Stats snapshot counts it as no
// inference.
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
	if err := c.Health(); err != nil {
		t.Fatalf("health after infer: %v", err)
	}
	if st := srv.Stats(); st.Requests != 1 || st.CacheMisses != 1 {
		t.Errorf("stats requests=%d misses=%d, want 1/1 (ops must not count as inferences)", st.Requests, st.CacheMisses)
	}
}

// TestWireRefusesUnknownOps: op 1 — unassigned since the stats op went —
// and any other value outside the protocol's ops is a typed bad request
// naming the op, answered on the connection it came in on, which then
// carries an inference as usual. A refused op counts as no request.
func TestWireRefusesUnknownOps(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{DisableGuard: true})
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn := rpc.NewClient[WireRequest, WireResponse](addr, time.Second, 1)
	defer conn.Close()
	for _, op := range []Op{1, 5, -1} {
		req := WireRequest{Version: cloud.ProtocolVersion, Op: op}
		resp, err := conn.Do(&req, time.Now().Add(5*time.Second))
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if want := fmt.Sprintf("unknown op %d", op); resp.Code != cloud.CodeBadRequest || resp.Err != want {
			t.Errorf("op %d: [%s] %q, want [%s] %q", op, resp.Code, resp.Err, cloud.CodeBadRequest, want)
		}
	}
	if st := srv.Stats(); st.Requests != 0 {
		t.Errorf("refused ops counted as %d requests, want 0", st.Requests)
	}
	x, _ := f.sets.Test.Batch([]int{0})
	req := WireRequest{Version: cloud.ProtocolVersion, Classes: []int{0, 2}, Input: x.Data()}
	if resp, err := conn.Do(&req, time.Now().Add(5*time.Second)); err != nil || resp.Code != cloud.CodeOK {
		t.Fatalf("inference after refused ops: %+v (%v)", resp, err)
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
		{Version: cloud.ProtocolVersion, Classes: []int{1, 3}, Input: x.Data()},
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
		if i >= 2 && !resp.CacheHit {
			t.Errorf("request %d: a repeated inference on the same conn should hit the mask cache", i)
		}
	}
	if dials != 1 {
		t.Fatalf("%d requests used %d connections, want 1", len(reqs), dials)
	}
	if st := srv.Stats(); st.Requests != 3 || st.CacheMisses != 1 || st.CacheHits != 2 {
		t.Errorf("stats requests=%d misses=%d hits=%d, want 3/1/2 (health is no inference)", st.Requests, st.CacheMisses, st.CacheHits)
	}
}
