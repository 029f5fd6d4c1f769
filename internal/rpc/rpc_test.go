package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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

// The test messages' bodies: a varint ID, then (response only) the
// uvarint length of Pad, then Pad, then (response only) Err.
func (r *echoReq) AppendWire(b []byte) []byte {
	return append(binary.AppendVarint(b, int64(r.ID)), r.Pad...)
}

func (r *echoReq) DecodeWire(body []byte) error {
	id, n := binary.Varint(body)
	if n <= 0 {
		return errors.New("echo request without an id")
	}
	r.ID, r.Pad = int(id), append(r.Pad[:0], body[n:]...)
	return nil
}

func (r *echoResp) AppendWire(b []byte) []byte {
	b = binary.AppendUvarint(binary.AppendVarint(b, int64(r.ID)), uint64(len(r.Pad)))
	return append(append(b, r.Pad...), r.Err...)
}

func (r *echoResp) DecodeWire(body []byte) error {
	id, n := binary.Varint(body)
	if n <= 0 {
		return errors.New("echo response without an id")
	}
	pad, m := binary.Uvarint(body[n:])
	if m <= 0 || pad > uint64(len(body)-n-m) {
		return errors.New("echo response pad past its body")
	}
	body = body[n+m:]
	r.ID, r.Pad, r.Err = int(id), append([]byte(nil), body[:pad]...), string(body[pad:])
	return nil
}

// send and recv speak frames on a raw connection, as a peer that is not
// a Client would.
func send(t *testing.T, conn net.Conn, req *echoReq) {
	t.Helper()
	var buf []byte
	if err := writeFrame(conn, &buf, req, (*echoReq).AppendWire); err != nil {
		t.Fatal(err)
	}
}

func recv(conn net.Conn) (echoResp, error) {
	var buf []byte
	var resp echoResp
	body, err := readFrame(conn, &buf, MaxResponseBytes)
	if err == nil {
		err = resp.DecodeWire(body)
	}
	return resp, err
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
	send(t, late, &echoReq{ID: 7})
	if resp, err := recv(late); err != nil || resp.ID != 7 {
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

// frameOf builds the frame of body by the package doc's layout, so the
// tests below can then break it.
func frameOf(body []byte) []byte {
	f := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	f = append(f, body...)
	return binary.LittleEndian.AppendUint32(f, crc32Castagnoli(body))
}

// crc32Castagnoli is CRC-32C computed bit by bit, independently of
// hash/crc32's tables.
func crc32Castagnoli(p []byte) uint32 {
	crc := ^uint32(0)
	for _, b := range p {
		crc ^= uint32(b)
		for i := 0; i < 8; i++ {
			crc = crc>>1 ^ 0x82f63b78&-(crc&1)
		}
	}
	return ^crc
}

// The frame is what the package doc says it is, byte for byte.
func TestFrameGolden(t *testing.T) {
	var wire bytes.Buffer
	var buf []byte
	if err := writeFrame(&wire, &buf, &echoReq{ID: 3, Pad: []byte("capnn")}, (*echoReq).AppendWire); err != nil {
		t.Fatal(err)
	}
	const golden = "06000000" + "066361706e6e" + "69f82514"
	if got := fmt.Sprintf("%x", wire.Bytes()); got != golden {
		t.Fatalf("frame %s, want %s", got, golden)
	}
	if !bytes.Equal(wire.Bytes(), frameOf([]byte("\x06capnn"))) {
		t.Fatal("frame disagrees with [u32 length][body][u32 CRC-32C]")
	}
	body, err := readFrame(&wire, &buf, 64)
	if err != nil || string(body) != "\x06capnn" {
		t.Fatalf("read back %q, %v", body, err)
	}
}

// readFrame refuses an over-cap prefix before reading on, reports a
// flipped bit anywhere in the frame, and sizes its buffer by what has
// arrived, not by what the prefix promised.
func TestReadFrameRefusals(t *testing.T) {
	good := frameOf(bytes.Repeat([]byte{7}, 100))
	for at := range good {
		bad := append([]byte(nil), good...)
		bad[at] ^= 0x10
		var buf []byte
		if body, err := readFrame(bytes.NewReader(bad), &buf, 1<<20); err == nil {
			t.Fatalf("byte %d flipped: frame accepted with body %x", at, body)
		}
	}
	var buf []byte
	if _, err := readFrame(bytes.NewReader(good), &buf, 99); err != errTooLarge {
		t.Fatalf("100-byte body under a 99-byte cap: %v", err)
	}
	if _, err := readFrame(bytes.NewReader(append(good, 0)), &buf, 1<<20); err == nil {
		t.Fatal("a byte after the frame was accepted")
	}
	// 32 MiB promised, 6000 bytes delivered.
	promise := binary.LittleEndian.AppendUint32(nil, 32<<20)
	buf = nil
	_, err := readFrame(io.MultiReader(bytes.NewReader(promise), bytes.NewReader(make([]byte, 6000))), &buf, MaxResponseBytes)
	if err != io.ErrUnexpectedEOF || cap(buf) > 2*6004 {
		t.Fatalf("short frame: err=%v with a %d-byte buffer for 6004 received", err, cap(buf))
	}
}

// (e) Frames the server will not decode get the typed rejection and the
// connection is closed — on a first frame and on a kept connection alike
// — with the oversized case told apart; a frame whose checksum fails is
// closed unanswered. None of them reaches the handler.
func TestUndecodableFramesAreRejected(t *testing.T) {
	lim := testLimits
	lim.MaxRequestBytes = 256
	var handled atomic.Int64
	_, addr, _ := start(t, lim, func(r *echoReq) *echoResp {
		handled.Add(1)
		return echo(r)
	}, nil)
	dial := func() net.Conn {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		_ = conn.SetDeadline(in(5 * time.Second))
		return conn
	}
	// rejected writes raw bytes and wants the rejection carrying want,
	// then EOF.
	rejected := func(name string, conn net.Conn, raw []byte, want string) {
		t.Helper()
		if _, err := conn.Write(raw); err != nil {
			t.Fatal(err)
		}
		resp, err := recv(conn)
		if err != nil || !strings.HasPrefix(resp.Err, want) {
			t.Fatalf("%s: resp=%+v err=%v, want an answer starting %q", name, resp, err, want)
		}
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("%s: connection not closed after the rejection: %v", name, err)
		}
	}
	good := frameOf((&echoReq{ID: 1, Pad: make([]byte, 64)}).AppendWire(nil))
	const oversized = "request exceeds size cap (256 bytes)"

	// Only the prefix of the oversized frame is ever sent: the server
	// answers without waiting for a body.
	rejected("oversized first frame", dial(), binary.LittleEndian.AppendUint32(nil, 4096), oversized)
	rejected("garbage", dial(), []byte("definitely not a frame"), oversized) // "defi" is a 1.7 GB prefix
	// A frame damaged in flight is not a bad request: it is closed
	// unanswered, so the client's retry logic treats it like a lost
	// response.
	flipped := append([]byte(nil), good...)
	flipped[10] ^= 1
	damaged := dial()
	if _, err := damaged.Write(flipped); err != nil {
		t.Fatal(err)
	}
	if n, err := damaged.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("bad checksum: read %d bytes, %v; want the connection closed unanswered", n, err)
	}
	rejected("body the message refuses", dial(), frameOf(nil), "decode: echo request without an id")
	half := dial()
	if _, err := half.Write(good[:20]); err != nil {
		t.Fatal(err)
	}
	_ = half.(*net.TCPConn).CloseWrite()
	if resp, err := recv(half); err != nil || resp.Err != "decode: unexpected EOF" {
		t.Fatalf("truncated frame: resp=%+v err=%v", resp, err)
	}

	kept := dial()
	send(t, kept, &echoReq{ID: 3})
	if resp, err := recv(kept); err != nil || resp.ID != 3 {
		t.Fatalf("good frame: resp=%+v err=%v", resp, err)
	}
	rejected("oversized frame on a kept connection", kept, binary.LittleEndian.AppendUint32(nil, 257), oversized)
	if n := handled.Load(); n != 1 {
		t.Fatalf("handler ran %d times, want 1: a refused frame reached it", n)
	}
}

// A peer that connects and sends nothing — or a prefix and then nothing —
// is answered and dropped at the read deadline instead of holding its
// handler.
func TestSilentPeerIsDroppedAtReadTimeout(t *testing.T) {
	lim := testLimits
	lim.ReadTimeout = 30 * time.Millisecond
	_, addr, ln := start(t, lim, echo, nil)
	for i, sent := range [][]byte{nil, binary.LittleEndian.AppendUint32(nil, 512)} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		_ = conn.SetDeadline(in(5 * time.Second))
		if _, err := conn.Write(sent); err != nil {
			t.Fatal(err)
		}
		if resp, err := recv(conn); err != nil || !strings.HasPrefix(resp.Err, "decode: ") {
			t.Fatalf("silent peer after %d bytes: resp=%+v err=%v", len(sent), resp, err)
		}
		waitFor(t, "handler to exit", func() bool { return ln.closes.Load() == int64(i+1) })
	}
}

// The client's side of the frame discipline, against a peer that is not
// a Server: a response over MaxResponseBytes, one with a flipped bit, and
// one that stops short are all receive errors, none retried on a fresh
// connection.
func TestClientRefusesBadResponses(t *testing.T) {
	good := frameOf((&echoResp{ID: 9, Pad: make([]byte, 32)}).AppendWire(nil))
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x40
	for name, answer := range map[string][]byte{
		"over the cap": binary.LittleEndian.AppendUint32(nil, MaxResponseBytes+1),
		"bad checksum": flipped,
		"short":        good[:len(good)-3],
	} {
		t.Run(name, func(t *testing.T) {
			ln := NewPipeListener()
			defer ln.Close()
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				var buf []byte
				if _, err := readFrame(conn, &buf, 1<<20); err == nil {
					_, _ = conn.Write(answer)
				}
			}()
			c := NewClient[echoReq, echoResp]("pipe", time.Second, 1)
			c.Dial = ln.Dial
			defer c.Close()
			_, err := c.Do(&echoReq{ID: 9}, in(2*time.Second))
			var te *Error
			if !errors.As(err, &te) || te.Op != "receive" {
				t.Fatalf("err=%v, want a receive error", err)
			}
		})
	}
}

// Sockets are optional: the same exchanges, reuse and drain over a
// PipeListener and the client's Dial hook.
func TestPipeListenerRoundTrip(t *testing.T) {
	ln := NewPipeListener()
	srv := NewServer(testLimits, echo, rejectEcho)
	srv.Serve(ln)
	c := NewClient[echoReq, echoResp]("pipe", time.Second, 1)
	c.Dial = ln.Dial
	pad := bytes.Repeat([]byte{0xa5}, 20000) // several reads and one buffer growth per frame
	for i := 0; i < 5; i++ {
		resp, err := c.Do(&echoReq{ID: i, Pad: pad}, in(2*time.Second))
		if err != nil || resp.ID != i || !bytes.Equal(resp.Pad, pad) {
			t.Fatalf("call %d: id=%d, %d bytes, err=%v", i, resp.ID, len(resp.Pad), err)
		}
	}
	mustShutdown(t, "pipe server", srv)
	var te *Error
	if _, err := c.Do(&echoReq{}, in(time.Second)); !errors.As(err, &te) || te.Op != "dial" {
		t.Fatalf("call after shutdown: %v, want a dial error", err)
	}
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
