package rpc

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"capnn/internal/faults"
)

type echoReq struct {
	ID  int
	Pad []byte
}

type echoResp struct {
	ID  int
	Pad []byte
	Err string
}

func echo(r *echoReq) *echoResp { return &echoResp{ID: r.ID, Pad: r.Pad} }

func rejectEcho(msg string) *echoResp { return &echoResp{Err: msg} }

var testLimits = Limits{ReadTimeout: 30 * time.Second, WriteTimeout: 30 * time.Second, MaxRequestBytes: 1 << 20}

// countingListener counts accepted connections and the ones the server
// side has closed since.
type countingListener struct {
	net.Listener
	accepts, closes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.accepts.Add(1)
	return &countedConn{Conn: c, l: l}, nil
}

type countedConn struct {
	net.Conn
	l    *countingListener
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.l.closes.Add(1) })
	return c.Conn.Close()
}

// start serves handle on a loopback listener (wrapped by wrap when
// non-nil) and returns the server, its address and the accept counter.
func start(t *testing.T, lim Limits, handle func(*echoReq) *echoResp, wrap func(net.Listener) net.Listener) (*Server[echoReq, echoResp], string, *countingListener) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	var l net.Listener = cl
	if wrap != nil {
		l = wrap(cl)
	}
	srv := NewServer(lim, handle, rejectEcho)
	addr := srv.Serve(l)
	t.Cleanup(func() { _ = srv.Shutdown(5 * time.Second) })
	return srv, addr, cl
}

func newClient(t *testing.T, addr string, maxIdle int) (*Client[echoReq, echoResp], *atomic.Int64) {
	t.Helper()
	c := NewClient[echoReq, echoResp](addr, time.Second, maxIdle)
	var redials atomic.Int64
	c.OnRedial = func() { redials.Add(1) }
	t.Cleanup(c.Close)
	return c, &redials
}

func in(d time.Duration) time.Time { return time.Now().Add(d) }

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for end := in(5 * time.Second); time.Now().Before(end); time.Sleep(time.Millisecond) {
		if cond() {
			return
		}
	}
	t.Fatalf("timed out waiting for %s", what)
}

// mustShutdown fails the test when Shutdown errs or takes a second: no
// tear-down may wait out a ReadTimeout on a connection nobody is using.
func mustShutdown(t *testing.T, name string, srv *Server[echoReq, echoResp]) {
	t.Helper()
	begin := time.Now()
	if err := srv.Shutdown(10 * time.Second); err != nil {
		t.Fatalf("%s Shutdown: %v", name, err)
	}
	if d := time.Since(begin); d > time.Second {
		t.Fatalf("%s Shutdown took %v with only idle connections open", name, d)
	}
}

// A kept connection is reused: many calls, one accept.
func TestClientKeepsConnection(t *testing.T) {
	_, addr, ln := start(t, testLimits, echo, nil)
	c, redials := newClient(t, addr, 1)
	for i := 0; i < 20; i++ {
		resp, err := c.Do(&echoReq{ID: i}, in(time.Second))
		if err != nil || resp.ID != i {
			t.Fatalf("call %d: resp=%+v err=%v", i, resp, err)
		}
	}
	if a := ln.accepts.Load(); a != 1 || redials.Load() != 0 {
		t.Fatalf("20 calls used %d connections (%d redials), want 1 / 0", a, redials.Load())
	}
	// With no idle slots every call is a one-shot exchange.
	one, _ := newClient(t, addr, 0)
	for i := 0; i < 3; i++ {
		if _, err := one.Do(&echoReq{ID: i}, in(time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	if a := ln.accepts.Load(); a != 4 {
		t.Fatalf("3 one-shot calls brought accepts to %d, want 4", a)
	}
	waitFor(t, "one-shot connections to be closed by the client", func() bool { return ln.closes.Load() == 3 })
}

// (a) Shutdown closes idle kept connections at once — the client never
// called Close, exactly like the benchmark's — and the abandoned
// client's next call is one redial that finds nobody listening.
func TestShutdownClosesIdleConnectionsAtOnce(t *testing.T) {
	srv, addr, ln := start(t, testLimits, echo, nil)
	c, redials := newClient(t, addr, 2)
	if _, err := c.Do(&echoReq{ID: 1}, in(time.Second)); err != nil {
		t.Fatal(err)
	}
	mustShutdown(t, "server", srv)
	if ln.closes.Load() != 1 {
		t.Fatalf("server closed %d connections, want 1", ln.closes.Load())
	}
	_, err := c.Do(&echoReq{ID: 2}, in(time.Second))
	var te *Error
	if !errors.As(err, &te) || te.Op != "dial" || redials.Load() != 1 {
		t.Fatalf("call after shutdown: err=%v redials=%d, want a dial error after one redial", err, redials.Load())
	}
	mustShutdown(t, "second", srv) // idempotent
}

// (a) A request in flight when Shutdown begins is answered first; a
// connection that was accepted but has not sent yet still gets to.
func TestShutdownAnswersInFlight(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	srv, addr, _ := start(t, testLimits, func(r *echoReq) *echoResp {
		if r.ID == 1 {
			close(entered)
			<-release
		}
		return echo(r)
	}, nil)
	c, _ := newClient(t, addr, 1)
	got := make(chan error, 1)
	go func() {
		resp, err := c.Do(&echoReq{ID: 1}, in(10*time.Second))
		if err == nil && resp.ID != 1 {
			err = fmt.Errorf("answered %+v", resp)
		}
		got <- err
	}()
	<-entered
	late, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	waitFor(t, "late connection to be accepted", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.conns) == 2
	})

	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(10 * time.Second) }()
	waitFor(t, "shutdown to begin", srv.closing.Load)
	if err := gob.NewEncoder(late).Encode(&echoReq{ID: 7}); err != nil {
		t.Fatal(err)
	}
	var resp echoResp
	if err := gob.NewDecoder(late).Decode(&resp); err != nil || resp.ID != 7 {
		t.Fatalf("late request: resp=%+v err=%v", resp, err)
	}
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned (%v) with a request in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-got; err != nil {
		t.Fatalf("in-flight request: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// A handler that outlives the deadline is reported, not killed.
func TestShutdownDeadline(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	srv, addr, _ := start(t, testLimits, func(r *echoReq) *echoResp {
		close(entered)
		<-release
		return echo(r)
	}, nil)
	c, _ := newClient(t, addr, 1)
	got := make(chan error, 1)
	go func() {
		_, err := c.Do(&echoReq{}, in(10*time.Second))
		got <- err
	}()
	<-entered
	if err := srv.Shutdown(20 * time.Millisecond); err == nil || !strings.Contains(err.Error(), "drain deadline") {
		t.Fatalf("Shutdown err=%v, want drain deadline", err)
	}
	close(release)
	if err := <-got; err != nil {
		t.Fatalf("straggler: %v", err)
	}
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// (a) Two tiers, the front forwarding to the back over its own kept
// connections, torn down in either order with every client abandoned
// un-Closed: neither Shutdown may wait on the other tier.
func TestShutdownOrderTwoTiers(t *testing.T) {
	for _, backFirst := range []bool{true, false} {
		name := "front-before-back"
		if backFirst {
			name = "back-before-front"
		}
		t.Run(name, func(t *testing.T) {
			back, backAddr, _ := start(t, testLimits, echo, nil)
			hop := NewClient[echoReq, echoResp](backAddr, time.Second, 4)
			front, frontAddr, _ := start(t, testLimits, func(r *echoReq) *echoResp {
				resp, err := hop.Do(r, in(time.Second))
				if err != nil {
					return rejectEcho(err.Error())
				}
				return resp
			}, nil)
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					c := NewClient[echoReq, echoResp](frontAddr, time.Second, 1) // never Closed
					for i := 0; i < 10; i++ {
						if resp, err := c.Do(&echoReq{ID: g*100 + i}, in(time.Second)); err != nil || resp.ID != g*100+i || resp.Err != "" {
							t.Errorf("client %d call %d: resp=%+v err=%v", g, i, resp, err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if backFirst {
				mustShutdown(t, "back", back)
				mustShutdown(t, "front", front)
			} else {
				mustShutdown(t, "front", front)
				mustShutdown(t, "back", back)
			}
		})
	}
}

// (b) The server reaps an idle connection at ReadTimeout; the client's
// next call notices the stale connection and succeeds through exactly
// one redial.
func TestReapedIdleConnectionIsRedialedOnce(t *testing.T) {
	lim := testLimits
	lim.ReadTimeout = 30 * time.Millisecond
	_, addr, ln := start(t, lim, echo, nil)
	c, redials := newClient(t, addr, 1)
	if _, err := c.Do(&echoReq{ID: 1}, in(time.Second)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "server to reap the idle connection", func() bool { return ln.closes.Load() == 1 })
	resp, err := c.Do(&echoReq{ID: 2}, in(time.Second))
	if err != nil || resp.ID != 2 {
		t.Fatalf("call after reap: resp=%+v err=%v", resp, err)
	}
	if a, r := ln.accepts.Load(), redials.Load(); a != 2 || r != 1 {
		t.Fatalf("accepts=%d redials=%d, want 2 / 1", a, r)
	}
}

// (c) A failure on a fresh connection is the peer's: reported, not
// retried. The failing peer here is a panicking handler, which must cost
// only its own connection.
func TestFreshConnectionFailureIsNotRetried(t *testing.T) {
	_, addr, ln := start(t, testLimits, func(r *echoReq) *echoResp {
		if r.ID < 0 {
			panic("handler bug")
		}
		return echo(r)
	}, nil)
	c, redials := newClient(t, addr, 1)
	_, err := c.Do(&echoReq{ID: -1}, in(time.Second))
	var te *Error
	if !errors.As(err, &te) || te.Op != "receive" {
		t.Fatalf("panicking handler: err=%v, want a receive error", err)
	}
	if a, r := ln.accepts.Load(), redials.Load(); a != 1 || r != 0 {
		t.Fatalf("fresh-connection failure: accepts=%d redials=%d, want 1 / 0", a, r)
	}
	if resp, err := c.Do(&echoReq{ID: 5}, in(time.Second)); err != nil || resp.ID != 5 {
		t.Fatalf("server did not survive the panic: resp=%+v err=%v", resp, err)
	}
	// A closed client refuses instead of dialing.
	c.Close()
	if _, err := c.Do(&echoReq{ID: 6}, in(time.Second)); !errors.As(err, &te) || te.Op != "dial" {
		t.Fatalf("closed client: err=%v, want a dial error", err)
	}
	if a := ln.accepts.Load(); a != 2 {
		t.Fatalf("closed client dialed: accepts=%d, want 2", a)
	}
}

// (d) Goroutines sharing one Client each own a connection for a whole
// exchange: answers always match their requests, and the client never
// keeps more than maxIdle connections.
func TestSharedClientNeverInterleavesFrames(t *testing.T) {
	_, addr, _ := start(t, testLimits, echo, nil)
	c, _ := newClient(t, addr, 2)
	const workers, calls = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pad := make([]byte, 512+g*997) // frames of different sizes
			for i := range pad {
				pad[i] = byte(g)
			}
			for i := 0; i < calls; i++ {
				id := g*calls + i
				resp, err := c.Do(&echoReq{ID: id, Pad: pad}, in(5*time.Second))
				if err != nil {
					t.Errorf("worker %d call %d: %v", g, i, err)
					return
				}
				if resp.ID != id || len(resp.Pad) != len(pad) || resp.Pad[0] != byte(g) || resp.Pad[len(pad)-1] != byte(g) {
					t.Errorf("worker %d call %d got another exchange's answer (id %d, %d bytes)", g, i, resp.ID, len(resp.Pad))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	c.mu.Lock()
	idle := len(c.idle)
	c.mu.Unlock()
	if idle > 2 {
		t.Fatalf("client kept %d idle connections, cap 2", idle)
	}
}

// (e) Frames that do not decode get the typed rejection, with the
// oversized case told apart from the malformed one — on a first frame
// and on a kept connection alike.
func TestUndecodableFramesAreRejected(t *testing.T) {
	lim := testLimits
	lim.MaxRequestBytes = 256
	_, addr, _ := start(t, lim, echo, nil)
	dial := func() (*net.TCPConn, *gob.Encoder, *gob.Decoder) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		_ = conn.SetDeadline(in(5 * time.Second))
		return conn.(*net.TCPConn), gob.NewEncoder(conn), gob.NewDecoder(conn)
	}
	big := &echoReq{ID: 1, Pad: make([]byte, 4096)}

	_, enc, dec := dial()
	var resp echoResp
	if err := enc.Encode(big); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&resp); err != nil || resp.Err != "request exceeds size cap (256 bytes)" {
		t.Fatalf("oversized first frame: resp=%+v err=%v", resp, err)
	}

	conn, _, dec := dial()
	if _, err := conn.Write([]byte("definitely not gob")); err != nil {
		t.Fatal(err)
	}
	_ = conn.CloseWrite()
	resp = echoResp{}
	if err := dec.Decode(&resp); err != nil || !strings.HasPrefix(resp.Err, "decode: ") {
		t.Fatalf("malformed first frame: resp=%+v err=%v", resp, err)
	}

	_, enc, dec = dial()
	resp = echoResp{}
	if err := enc.Encode(&echoReq{ID: 3}); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&resp); err != nil || resp.ID != 3 {
		t.Fatalf("good frame: resp=%+v err=%v", resp, err)
	}
	resp = echoResp{}
	if err := enc.Encode(big); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&resp); err != nil || resp.Err != "request exceeds size cap (256 bytes)" {
		t.Fatalf("oversized frame on a kept connection: resp=%+v err=%v", resp, err)
	}
}

// A peer that connects and sends nothing is answered and dropped at the
// read deadline instead of holding its handler.
func TestSilentPeerIsDroppedAtReadTimeout(t *testing.T) {
	lim := testLimits
	lim.ReadTimeout = 30 * time.Millisecond
	_, addr, ln := start(t, lim, echo, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(in(5 * time.Second))
	var resp echoResp
	if err := gob.NewDecoder(conn).Decode(&resp); err != nil || !strings.HasPrefix(resp.Err, "decode: ") {
		t.Fatalf("silent peer: resp=%+v err=%v", resp, err)
	}
	waitFor(t, "handler to exit", func() bool { return ln.closes.Load() == 1 })
}

// (f) Faulted listeners. Every connection gets a write budget that
// covers one response but not two. When the server side tears the
// connection down at the budget the client sees a dead kept connection:
// one redial, and the caller never notices. When it black-holes the
// rest, the call fails at its deadline — no hang, and no retry there is
// no time left for — and the next call starts on a fresh connection.
func TestFaultedListener(t *testing.T) {
	pad := make([]byte, 600)
	t.Run("close-after-N", func(t *testing.T) {
		plan := faults.Plan{Seed: 1, CloseProb: 1, CloseAfter: 1000}
		_, addr, ln := start(t, testLimits, echo, func(l net.Listener) net.Listener { return faults.WrapListener(l, plan) })
		c, redials := newClient(t, addr, 1)
		for i := 0; i < 2; i++ {
			if resp, err := c.Do(&echoReq{ID: i, Pad: pad}, in(2*time.Second)); err != nil || resp.ID != i {
				t.Fatalf("call %d: resp=%+v err=%v", i, resp, err)
			}
		}
		if a, r := ln.accepts.Load(), redials.Load(); a != 2 || r != 1 {
			t.Fatalf("accepts=%d redials=%d, want 2 / 1", a, r)
		}
	})
	t.Run("drop-after-N", func(t *testing.T) {
		plan := faults.Plan{Seed: 1, DropProb: 1, DropAfter: 1000}
		_, addr, ln := start(t, testLimits, echo, func(l net.Listener) net.Listener { return faults.WrapListener(l, plan) })
		c, redials := newClient(t, addr, 1)
		if _, err := c.Do(&echoReq{ID: 0, Pad: pad}, in(2*time.Second)); err != nil {
			t.Fatal(err)
		}
		begin := time.Now()
		_, err := c.Do(&echoReq{ID: 1, Pad: pad}, in(100*time.Millisecond))
		var te *Error
		if !errors.As(err, &te) || te.Op != "receive" {
			t.Fatalf("black-holed response: err=%v, want a receive error", err)
		}
		if d := time.Since(begin); d > time.Second {
			t.Fatalf("black-holed response held the call %v past a 100ms deadline", d)
		}
		if resp, err := c.Do(&echoReq{ID: 2, Pad: pad}, in(2*time.Second)); err != nil || resp.ID != 2 {
			t.Fatalf("call after the drop: resp=%+v err=%v", resp, err)
		}
		if a, r := ln.accepts.Load(), redials.Load(); a != 2 || r != 0 {
			t.Fatalf("accepts=%d redials=%d, want 2 / 0", a, r)
		}
	})
}
