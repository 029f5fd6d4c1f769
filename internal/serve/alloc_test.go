package serve

import (
	"math"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"capnn/internal/cloud"
	"capnn/internal/core"
	"capnn/internal/nn"
	"capnn/internal/qos"
	"capnn/internal/rpc"
)

// Allocation ratchets for the warm request path. Each ceiling is what the
// path costs today (2 and 5) plus one: raising one needs the reason in
// the commit that does it.

// noDeadlines drops the deadline calls on a net.Pipe end: a pipe starts a
// fresh runtime timer per deadline where a socket stores a number, and the
// ratchet prices the transport, not the test's pipe.
type noDeadlines struct{ net.Conn }

func (noDeadlines) SetDeadline(time.Time) error      { return nil }
func (noDeadlines) SetReadDeadline(time.Time) error  { return nil }
func (noDeadlines) SetWriteDeadline(time.Time) error { return nil }

type noDeadlineListener struct{ *rpc.PipeListener }

func (l noDeadlineListener) Accept() (net.Conn, error) {
	c, err := l.PipeListener.Accept()
	return noDeadlines{c}, err
}

func (l noDeadlineListener) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	c, err := l.PipeListener.Dial(addr, timeout)
	return noDeadlines{c}, err
}

// One kept-connection round trip of a benchmark-shaped frame (1×32×32
// floats out, 10 logits back) against a handler that does nothing: the
// client's response value and its logits, and nothing on the server.
// Under gob this was 16.
func TestRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are taken without the race detector")
	}
	req := WireRequest{Version: cloud.ProtocolVersion, Variant: "M", Classes: []int{3, 7}, Input: make([]float64, 1024)}
	for i := range req.Input {
		req.Input[i] = float64(i) / 7
	}
	answer := &WireResponse{Version: cloud.ProtocolVersion, Code: cloud.CodeOK, Logits: req.Input[:10], Class: 3, CacheHit: true}
	ln := noDeadlineListener{rpc.NewPipeListener()}
	srv := rpc.NewServer(rpc.Limits{ReadTimeout: time.Minute, WriteTimeout: time.Minute, MaxRequestBytes: 1 << 20},
		func(*WireRequest) *WireResponse { return answer }, badRequest)
	srv.Serve(ln)
	defer srv.Shutdown(5 * time.Second)
	c := rpc.NewClient[WireRequest, WireResponse]("pipe", time.Second, 1)
	c.Dial = ln.Dial
	defer c.Close()
	deadline := time.Now().Add(time.Minute)
	allocs := testing.AllocsPerRun(200, func() {
		if resp, err := c.Do(&req, deadline); err != nil || len(resp.Logits) != 10 {
			t.Fatalf("round trip: %v / %+v", err, resp)
		}
	})
	if allocs > 3 {
		t.Fatalf("a kept-connection round trip allocates %v times, ceiling 3", allocs)
	}
	t.Logf("round trip: %v allocs", allocs)
}

// Server.Handle for a resident key: the preference vector's two slices,
// the cache key, the logits, the response — no timer, channel, request,
// closure or tensor. This was 21.
func TestHandleResidentKeyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are taken without the race detector")
	}
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{Workers: 1})
	defer srv.Close()
	req := WireRequest{Version: cloud.ProtocolVersion, Variant: "M", Classes: []int{1, 3}, Weights: []float64{2, 1}, Input: f.sample(t, 2).Data()}
	srv.Handle(req) // the fill
	allocs := testing.AllocsPerRun(200, func() {
		if resp := srv.Handle(req); resp.Code != cloud.CodeOK || !resp.CacheHit {
			t.Fatalf("[%s] %s hit=%v", resp.Code, resp.Err, resp.CacheHit)
		}
	})
	if allocs > 6 {
		t.Fatalf("Server.Handle on a resident key allocates %v times, ceiling 6", allocs)
	}
	t.Logf("Handle, resident key: %v allocs", allocs)
}

// The ownership rule buffer reuse creates (rpc.Server's): no handler
// returns while anything still reads its request. A request on connection
// A gives up waiting for the one slot, which a stalled request on
// connection B holds; A's next frame is decoded over the same slab and
// must get its own answer, and B's stalled forward must still see B's
// input.
func TestAbandonedRequestKeepsItsInput(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{Workers: 1, RequestTimeout: 30 * time.Second, DisableGuard: true})
	defer srv.Close()
	ln := rpc.NewPipeListener()
	srv.Serve(ln)
	var dials atomic.Int64
	connA := rpc.NewClient[WireRequest, WireResponse]("pipe", time.Second, 1)
	connA.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
		dials.Add(1)
		return ln.Dial(addr, timeout)
	}
	defer connA.Close()
	connB := rpc.NewClient[WireRequest, WireResponse]("pipe", time.Second, 1)
	connB.Dial = ln.Dial
	defer connB.Close()
	do := func(c *rpc.Client[WireRequest, WireResponse], req WireRequest) *WireResponse {
		resp, err := c.Do(&req, time.Now().Add(10*time.Second))
		if err != nil {
			t.Error(err)
			return &WireResponse{Code: cloud.CodeInternal}
		}
		return resp
	}
	prefs := core.Uniform([]int{0, 2})
	first, second, third := f.sample(t, 3), f.sample(t, 4), f.sample(t, 5)
	if reflect.DeepEqual(first.Data(), second.Data()) || reflect.DeepEqual(second.Data(), third.Data()) {
		t.Fatal("the samples must differ")
	}
	// Warm the key and A's connection: the slab A decodes into now exists.
	if resp := do(connA, WireRequest{Variant: "W", Classes: prefs.Classes, Input: second.Data()}); resp.Code != cloud.CodeOK {
		t.Fatalf("warm-up: [%s] %s", resp.Code, resp.Err)
	}

	stalled, release := make(chan struct{}), make(chan struct{})
	var stall atomic.Bool
	sawOwnInput := make(chan bool, 1)
	srv.gate.hookBeforeForward = func(_ *nn.Compiled, _ qos.Lane, x []float64) {
		if stall.CompareAndSwap(true, false) {
			close(stalled)
			<-release
			sawOwnInput <- reflect.DeepEqual(x, third.Data())
		}
	}
	stall.Store(true)
	answeredB := make(chan *WireResponse, 1)
	go func() { answeredB <- do(connB, WireRequest{Variant: "W", Classes: prefs.Classes, Input: third.Data()}) }()
	<-stalled
	if resp := do(connA, WireRequest{Variant: "W", Classes: prefs.Classes, Input: first.Data(), BudgetMicros: 5000}); resp.Code != cloud.CodeExpired {
		t.Fatalf("request waiting on the stalled slot with a 5ms budget: [%s] %s, want expired", resp.Code, resp.Err)
	}
	answeredA := make(chan *WireResponse, 1)
	go func() {
		answeredA <- do(connA, WireRequest{Variant: "W", Classes: prefs.Classes, Input: second.Data()})
	}()
	waitFor(t, 5*time.Second, func() bool { return srv.gate.depth() == 2 }, "A's next request to wait behind the stalled one")
	close(release)
	if !<-sawOwnInput {
		t.Fatal("the stalled forward's input was overwritten")
	}
	for _, tc := range []struct {
		name string
		resp *WireResponse
		in   []float64
	}{{"A's next request", <-answeredA, second.Data()}, {"B's stalled request", <-answeredB, third.Data()}} {
		want := srv.Handle(WireRequest{Variant: "W", Classes: prefs.Classes, Input: tc.in})
		if tc.resp.Code != cloud.CodeOK || want.Code != cloud.CodeOK {
			t.Fatalf("%s: [%s] %s / reference: [%s] %s", tc.name, tc.resp.Code, tc.resp.Err, want.Code, want.Err)
		}
		if !reflect.DeepEqual(bits(tc.resp.Logits), bits(want.Logits)) {
			t.Fatalf("%s answered %v, its own input gives %v", tc.name, tc.resp.Logits, want.Logits)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("A used %d connections, want 1", n)
	}
}

// A budget too large to be a Duration means "no hurry", not "already
// late": it is compared in microseconds against the server's own bound
// and never multiplied. Each forward takes a millisecond here, so the
// 1µs budget deterministically is.
func TestBudgetNeverOverflows(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{Workers: 1, DisableGuard: true})
	defer srv.Close()
	srv.gate.hookBeforeForward = func(*nn.Compiled, qos.Lane, []float64) { time.Sleep(time.Millisecond) }
	for _, tc := range []struct {
		budget int64
		want   cloud.Code
	}{
		{math.MaxInt64, cloud.CodeOK},
		{math.MaxInt64 / 500, cloud.CodeOK},
		{1 << 54, cloud.CodeOK},
		{1, cloud.CodeExpired},
		{0, cloud.CodeOK},
		{-1, cloud.CodeExpired},
	} {
		resp := srv.Handle(WireRequest{Classes: []int{0, 1}, Input: f.sample(t, 0).Data(), BudgetMicros: tc.budget})
		if resp.Code != tc.want {
			t.Errorf("budget %dµs: [%s] %s, want %s", tc.budget, resp.Code, resp.Err, tc.want)
		}
	}
}
