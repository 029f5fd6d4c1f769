// Package rpc is the one transport every CAP'NN tier speaks: gob frames
// over a kept connection, one request answered by one response. A gob
// stream carries each type's definition once, so the encoder/decoder
// pair lives exactly as long as its connection on both ends — the first
// exchange teaches the peer the types, every later one sends values
// only. The tiers (internal/serve, internal/cluster, internal/cloud)
// own what a request means — ops, outcome codes, admission — and hand
// this package a handler; the accept loop, the peer discipline
// (deadlines, size cap, panic containment), connection reuse and the
// drain live here once.
package rpc

import (
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Limits bounds a Server's exposure to slow, dead or abusive peers.
type Limits struct {
	// ReadTimeout is how long a connection may take to deliver its next
	// request — which also makes it the idle timeout of a kept
	// connection. WriteTimeout bounds writing a response to a peer that
	// stops reading.
	ReadTimeout, WriteTimeout time.Duration
	// MaxRequestBytes caps how much of one request the decoder consumes.
	MaxRequestBytes int64
}

// A server-side connection is busy from its first byte of a request
// until the response is written, and idle in between. A fresh
// connection starts busy: whoever dialed did so to send a request, and
// it is presumed to be on the wire.
const (
	connBusy int32 = iota
	connIdle
	connClosed // closed by Shutdown while idle
)

type serverConn struct {
	net.Conn
	state atomic.Int32
}

// Read marks the connection busy the moment request bytes arrive, so
// Shutdown never closes a connection out from under a request it has
// started to receive.
func (c *serverConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.state.CompareAndSwap(connIdle, connBusy)
	}
	return n, err
}

// Server accepts connections and answers each decoded Req with the
// handler's Resp, for as many exchanges as the peer keeps the
// connection open.
type Server[Req, Resp any] struct {
	lim    Limits
	handle func(*Req) *Resp
	reject func(msg string) *Resp

	// mu guards lns and conns, and orders wg.Add against Shutdown's
	// wg.Wait: nothing is added once closing is set.
	mu      sync.Mutex
	lns     []net.Listener
	conns   map[*serverConn]struct{}
	closing atomic.Bool
	wg      sync.WaitGroup
}

// NewServer builds a server. handle answers one request; reject builds
// the response to a frame that could not be decoded (the tier's
// bad-request shape carrying msg).
func NewServer[Req, Resp any](lim Limits, handle func(*Req) *Resp, reject func(msg string) *Resp) *Server[Req, Resp] {
	return &Server[Req, Resp]{lim: lim, handle: handle, reject: reject, conns: map[*serverConn]struct{}{}}
}

// Listen starts accepting TCP connections on addr (e.g. "127.0.0.1:0")
// and returns the bound address.
func (s *Server[Req, Resp]) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	return s.Serve(ln), nil
}

// Serve accepts connections from ln — which may be wrapped, e.g. with
// internal/faults fault injection — until Shutdown, and returns the
// listener's address.
func (s *Server[Req, Resp]) Serve(ln net.Listener) string {
	addr := ln.Addr().String()
	s.mu.Lock()
	if s.closing.Load() {
		s.mu.Unlock()
		_ = ln.Close()
		return addr
	}
	s.lns = append(s.lns, ln)
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			c := &serverConn{Conn: conn}
			s.mu.Lock()
			if s.closing.Load() {
				s.mu.Unlock()
				_ = conn.Close()
				continue
			}
			s.conns[c] = struct{}{}
			s.wg.Add(1)
			s.mu.Unlock()
			go s.serveConn(c)
		}
	}()
	return addr
}

// serveConn runs request/response exchanges on one connection: a read
// deadline per request so a hung peer cannot hold the goroutine, a size
// cap on the decoder, a write deadline for peers that stop reading.
func (s *Server[Req, Resp]) serveConn(c *serverConn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		_ = c.Close()
	}()
	defer func() { _ = recover() }() // a handler panic costs its connection, never the server

	lr := &io.LimitedReader{R: c}
	dec := gob.NewDecoder(lr)
	enc := gob.NewEncoder(c)
	for served := 0; ; served++ {
		_ = c.SetReadDeadline(time.Now().Add(s.lim.ReadTimeout))
		lr.N = s.lim.MaxRequestBytes
		req := new(Req)
		if err := dec.Decode(req); err != nil {
			if served > 0 && c.state.Load() != connBusy {
				// The peer finished with the connection (clean close, idle
				// timeout, or Shutdown closed it): nothing to answer.
				return
			}
			msg := fmt.Sprintf("decode: %v", err)
			if lr.N <= 0 {
				// The decoder ran the limit dry: distinguish an oversized (or
				// unterminated) frame from a merely malformed one so clients
				// know not to retry the same payload.
				msg = fmt.Sprintf("request exceeds size cap (%d bytes)", s.lim.MaxRequestBytes)
			}
			s.respond(c, enc, s.reject(msg))
			return
		}
		if !s.respond(c, enc, s.handle(req)) {
			return
		}
		// Idle first, then look at closing: Shutdown sets closing before
		// it sweeps, so one of the two always sees the other.
		c.state.Store(connIdle)
		if s.closing.Load() {
			return
		}
	}
}

func (s *Server[Req, Resp]) respond(c *serverConn, enc *gob.Encoder, resp *Resp) bool {
	_ = c.SetWriteDeadline(time.Now().Add(s.lim.WriteTimeout))
	return enc.Encode(resp) == nil
}

// Shutdown stops accepting, closes every idle kept connection at once
// (its peer sees a stale connection on its next call and redials), and
// gives busy connections — a request being received or answered — up to
// timeout to write their response. It returns an error when the
// deadline expires with handlers still running; they are not killed.
// Safe to call more than once.
func (s *Server[Req, Resp]) Shutdown(timeout time.Duration) error {
	s.mu.Lock()
	s.closing.Store(true)
	var err error
	for _, ln := range s.lns {
		if cerr := ln.Close(); err == nil {
			err = cerr
		}
	}
	s.lns = nil
	for c := range s.conns {
		if c.state.CompareAndSwap(connIdle, connClosed) {
			_ = c.Close()
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-done:
		return err
	case <-t.C:
		return fmt.Errorf("drain deadline %v exceeded with requests in flight", timeout)
	}
}

// Error is a transport failure on the client side: the exchange did not
// produce a response.
type Error struct {
	// Op is the step that failed: "dial", "send" or "receive".
	Op  string
	Err error
}

func (e *Error) Error() string { return e.Op + ": " + e.Err.Error() }

// Unwrap exposes the cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// clientConn is one kept connection with its codec pair.
type clientConn struct {
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
	// reused marks a connection that already completed an exchange: a
	// failure on it may only mean the server reaped it while idle.
	reused bool
}

func (cc *clientConn) roundTrip(req, resp any, deadline time.Time) error {
	if err := cc.conn.SetDeadline(deadline); err != nil {
		return &Error{Op: "send", Err: err}
	}
	if err := cc.enc.Encode(req); err != nil {
		return &Error{Op: "send", Err: err}
	}
	if err := cc.dec.Decode(resp); err != nil {
		return &Error{Op: "receive", Err: err}
	}
	return nil
}

// Client sends requests to one Server address, keeping up to maxIdle
// connections open between calls. It is safe for concurrent use: each
// call owns its connection for the whole exchange, so frames never
// interleave.
type Client[Req, Resp any] struct {
	addr        string
	dialTimeout time.Duration
	maxIdle     int

	// OnRedial, when set before the first Do, observes each retry of a
	// request whose kept connection turned out to be stale.
	OnRedial func()

	mu     sync.Mutex
	idle   []*clientConn
	closed bool
}

// NewClient builds a client for addr. maxIdle 0 makes every call a
// one-shot exchange on its own connection.
func NewClient[Req, Resp any](addr string, dialTimeout time.Duration, maxIdle int) *Client[Req, Resp] {
	return &Client[Req, Resp]{addr: addr, dialTimeout: dialTimeout, maxIdle: maxIdle}
}

// Do runs one exchange that must finish by deadline. A failure on a
// reused connection is retried exactly once on a fresh dial — servers
// reap idle connections, and that staleness is the transport's problem,
// not the peer's. A failure on a fresh connection is the peer's and is
// returned as is. Every error is an *Error.
func (c *Client[Req, Resp]) Do(req *Req, deadline time.Time) (*Resp, error) {
	cc, err := c.get()
	if err != nil {
		return nil, err
	}
	resp := new(Resp)
	err = cc.roundTrip(req, resp, deadline)
	if err != nil && cc.reused && time.Now().Before(deadline) {
		_ = cc.conn.Close()
		if c.OnRedial != nil {
			c.OnRedial()
		}
		if cc, err = c.dial(); err != nil {
			return nil, err
		}
		resp = new(Resp) // a failed decode may have half-filled the first
		err = cc.roundTrip(req, resp, deadline)
	}
	if err != nil {
		_ = cc.conn.Close()
		return nil, err
	}
	c.put(cc)
	return resp, nil
}

func (c *Client[Req, Resp]) get() (*clientConn, error) {
	c.mu.Lock()
	if n := len(c.idle); n > 0 {
		cc := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return cc, nil
	}
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, &Error{Op: "dial", Err: fmt.Errorf("client for %s is closed", c.addr)}
	}
	return c.dial()
}

func (c *Client[Req, Resp]) dial() (*clientConn, error) {
	conn, err := net.DialTimeout("tcp", c.addr, c.dialTimeout)
	if err != nil {
		return nil, &Error{Op: "dial", Err: err}
	}
	return &clientConn{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}, nil
}

func (c *Client[Req, Resp]) put(cc *clientConn) {
	cc.reused = true
	c.mu.Lock()
	if !c.closed && len(c.idle) < c.maxIdle {
		c.idle = append(c.idle, cc)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	_ = cc.conn.Close()
}

// Close closes the idle connections and stops the client keeping or
// dialing new ones; exchanges in flight finish on the connections they
// hold.
func (c *Client[Req, Resp]) Close() {
	c.mu.Lock()
	idle := c.idle
	c.idle = nil
	c.closed = true
	c.mu.Unlock()
	for _, cc := range idle {
		_ = cc.conn.Close()
	}
}
