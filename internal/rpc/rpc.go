// Package rpc is the one transport every CAP'NN tier speaks: checksummed
// byte frames over a kept connection, one request answered by one
// response. A frame is
//
//	[u32 body length][body][u32 CRC-32C of body]
//
// little-endian. The length is judged against the receiver's cap before
// a byte of the body is read, and a frame whose checksum does not match
// is never decoded: a flipped bit is a transport error on the client, in
// either direction (the server closes on a damaged request without
// answering), not a plausible wrong answer.
// What the body means belongs to the tiers (internal/serve,
// internal/cluster, internal/cloud): their request and response types
// implement Message, and they hand this package a handler. The accept
// loop, the peer discipline (deadlines, size cap, panic containment),
// connection reuse and the drain live here once.
//
// Each connection, on both ends, owns one read buffer and one write
// buffer (a frame leaves in one Write), and a server-side connection
// decodes every request into one reused Req: a warm exchange allocates
// nothing here but the client's Resp. The price is an ownership rule —
// see Server.
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Message is what a tier's request and response types implement, on
// their pointers, to cross the wire. AppendWire appends the message's
// body to b. DecodeWire overwrites every field of its receiver from
// body; it must not keep a reference into body — those bytes are the
// connection's read buffer — but may reuse the capacity of the
// receiver's own slices.
type Message[T any] interface {
	*T
	AppendWire(b []byte) []byte
	DecodeWire(body []byte) error
}

// MaxResponseBytes bounds the response body a Client accepts: responses
// carry models and cache exports, so it is far above any request cap, and
// it only bounds what a peer may make the client wait for — the read
// buffer grows with the bytes that actually arrive.
const MaxResponseBytes = 64 << 20

const (
	prefixLen = 4 // u32 body length
	sumLen    = 4 // u32 CRC-32C of the body
	// minReadBuf is a fresh connection's read buffer: the one read that
	// usually delivers a whole small frame. maxKeptBuf is the largest one
	// an idle client connection holds on to: a rare large response (a
	// model, a cache export) does not pin its size per kept connection.
	minReadBuf = 4096
	maxKeptBuf = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var (
	errTooLarge = errors.New("frame exceeds size cap")
	errChecksum = errors.New("frame checksum mismatch")
)

// readFrame receives one frame into *buf and returns its body, which is
// valid until the next read into *buf. A length prefix above limit fails
// before any of the body is read. The buffer at most doubles each time it
// fills and never grows past the frame, so a prefix promising bytes that
// never come costs no more memory than twice what did arrive. Bytes
// after the frame are an error: a peer sends one frame and waits.
func readFrame(r io.Reader, buf *[]byte, limit int64) ([]byte, error) {
	b := (*buf)[:0]
	if cap(b) < minReadBuf {
		b = make([]byte, 0, minReadBuf)
	}
	need := prefixLen
	for len(b) < need {
		if len(b) == cap(b) {
			b = append(make([]byte, 0, min(need, 2*cap(b))), b...)
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		*buf = b
		if need == prefixLen && len(b) >= prefixLen {
			size := int64(binary.LittleEndian.Uint32(b))
			if size > limit {
				return nil, errTooLarge
			}
			need = prefixLen + int(size) + sumLen
		}
		if err != nil && len(b) < need {
			if err == io.EOF && len(b) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	if len(b) > need {
		return nil, fmt.Errorf("%d bytes after the frame", len(b)-need)
	}
	body := b[prefixLen : need-sumLen]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(b[need-sumLen:]) {
		return nil, errChecksum
	}
	return body, nil
}

// writeFrame builds msg's frame in *buf and sends it in one Write.
func writeFrame[T any](w io.Writer, buf *[]byte, msg *T, appendBody func(*T, []byte) []byte) error {
	b := appendBody(msg, append((*buf)[:0], 0, 0, 0, 0))
	size := uint64(len(b) - prefixLen)
	if size > math.MaxUint32 {
		return fmt.Errorf("%d-byte body does not fit a frame", size)
	}
	binary.LittleEndian.PutUint32(b, uint32(size))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[prefixLen:], castagnoli))
	*buf = b
	_, err := w.Write(b)
	return err
}

// Limits bounds a Server's exposure to slow, dead or abusive peers.
type Limits struct {
	// ReadTimeout is how long a connection may take to deliver its next
	// request — which also makes it the idle timeout of a kept
	// connection. WriteTimeout bounds writing a response to a peer that
	// stops reading.
	ReadTimeout, WriteTimeout time.Duration
	// MaxRequestBytes caps one request's body; a longer length prefix is
	// refused before the body is read.
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

// serverConn is one accepted connection with the buffers and the request
// value every exchange on it reuses.
type serverConn[Req any] struct {
	net.Conn
	state   atomic.Int32
	in, out []byte
	req     Req
}

// Read marks the connection busy the moment request bytes arrive, so
// Shutdown never closes a connection out from under a request it has
// started to receive.
func (c *serverConn[Req]) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.state.CompareAndSwap(connIdle, connBusy)
	}
	return n, err
}

// Server accepts connections and answers each decoded Req with the
// handler's Resp, for as many exchanges as the peer keeps the
// connection open.
//
// The *Req a handler receives is its connection's one request value: it
// and every slice DecodeWire filled belong to the connection again the
// moment the handler returns, and the next frame is decoded over them. A
// handler that leaves a slice with someone who may still read it after
// that — a worker a timed-out waiter walked away from — must nil the
// field before returning, so the connection decodes into a fresh one.
type Server[Req, Resp any] struct {
	lim    Limits
	handle func(*Req) *Resp
	reject func(msg string) *Resp
	decode func(*Req, []byte) error
	encode func(*Resp, []byte) []byte

	// mu guards lns and conns, and orders wg.Add against Shutdown's
	// wg.Wait: nothing is added once closing is set.
	mu      sync.Mutex
	lns     []net.Listener
	conns   map[*serverConn[Req]]struct{}
	closing atomic.Bool
	wg      sync.WaitGroup
}

// NewServer builds a server. handle answers one request; reject builds
// the response to a frame that was refused or could not be decoded (the
// tier's bad-request shape carrying msg).
func NewServer[Req, Resp any, RP Message[Req], SP Message[Resp]](lim Limits, handle func(*Req) *Resp, reject func(msg string) *Resp) *Server[Req, Resp] {
	return &Server[Req, Resp]{lim: lim, handle: handle, reject: reject,
		decode: func(r *Req, body []byte) error { return RP(r).DecodeWire(body) },
		encode: func(r *Resp, b []byte) []byte { return SP(r).AppendWire(b) },
		conns:  map[*serverConn[Req]]struct{}{}}
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
			c := &serverConn[Req]{Conn: conn}
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
// deadline per request so a hung peer cannot hold the goroutine, the size
// cap and the checksum on every frame, a write deadline for peers that
// stop reading.
func (s *Server[Req, Resp]) serveConn(c *serverConn[Req]) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		_ = c.Close()
	}()
	defer func() { _ = recover() }() // a handler panic costs its connection, never the server

	for served := 0; ; served++ {
		_ = c.SetReadDeadline(time.Now().Add(s.lim.ReadTimeout))
		body, err := readFrame(c, &c.in, s.lim.MaxRequestBytes)
		if err == nil {
			err = s.decode(&c.req, body)
		}
		if err != nil {
			if (served > 0 && c.state.Load() != connBusy) || err == errChecksum {
				// The peer finished with the connection (clean close, idle
				// timeout, or Shutdown closed it): nothing to answer. Or
				// the request was damaged in flight, which says nothing
				// about whether it is well formed: close unanswered, so the
				// client sees the same retryable transport error as for a
				// damaged response.
				return
			}
			// Oversized is told apart from malformed so clients know not to
			// retry the same payload. Either way the stream's framing is no
			// longer trusted: answer once and close.
			msg := fmt.Sprintf("decode: %v", err)
			if err == errTooLarge {
				msg = fmt.Sprintf("request exceeds size cap (%d bytes)", s.lim.MaxRequestBytes)
			}
			s.respond(c, s.reject(msg))
			return
		}
		if !s.respond(c, s.handle(&c.req)) {
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

func (s *Server[Req, Resp]) respond(c *serverConn[Req], resp *Resp) bool {
	_ = c.SetWriteDeadline(time.Now().Add(s.lim.WriteTimeout))
	return writeFrame(c.Conn, &c.out, resp, s.encode) == nil
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

// clientConn is one kept connection with its two buffers.
type clientConn struct {
	conn    net.Conn
	in, out []byte
	// reused marks a connection that already completed an exchange: a
	// failure on it may only mean the server reaped it while idle.
	reused bool
}

func (c *Client[Req, Resp]) roundTrip(cc *clientConn, req *Req, resp *Resp, deadline time.Time) error {
	if err := cc.conn.SetDeadline(deadline); err != nil {
		return &Error{Op: "send", Err: err}
	}
	if err := writeFrame(cc.conn, &cc.out, req, c.encode); err != nil {
		return &Error{Op: "send", Err: err}
	}
	body, err := readFrame(cc.conn, &cc.in, MaxResponseBytes)
	if err == nil {
		err = c.decode(resp, body)
	}
	if err != nil {
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
	// Dial, when set before the first Do, opens the connections instead
	// of net.DialTimeout("tcp", …) — how tests run a tier over
	// PipeListener with no sockets.
	Dial func(addr string, timeout time.Duration) (net.Conn, error)

	encode func(*Req, []byte) []byte
	decode func(*Resp, []byte) error

	mu     sync.Mutex
	idle   []*clientConn
	closed bool
}

// NewClient builds a client for addr. maxIdle 0 makes every call a
// one-shot exchange on its own connection.
func NewClient[Req, Resp any, RP Message[Req], SP Message[Resp]](addr string, dialTimeout time.Duration, maxIdle int) *Client[Req, Resp] {
	return &Client[Req, Resp]{addr: addr, dialTimeout: dialTimeout, maxIdle: maxIdle,
		encode: func(r *Req, b []byte) []byte { return RP(r).AppendWire(b) },
		decode: func(r *Resp, body []byte) error { return SP(r).DecodeWire(body) }}
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
	err = c.roundTrip(cc, req, resp, deadline)
	if err != nil && cc.reused && time.Now().Before(deadline) {
		_ = cc.conn.Close()
		if c.OnRedial != nil {
			c.OnRedial()
		}
		if cc, err = c.dial(); err != nil {
			return nil, err
		}
		resp = new(Resp) // a failed decode may have half-filled the first
		err = c.roundTrip(cc, req, resp, deadline)
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
	dial := c.Dial
	if dial == nil {
		dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	conn, err := dial(c.addr, c.dialTimeout)
	if err != nil {
		return nil, &Error{Op: "dial", Err: err}
	}
	return &clientConn{conn: conn}, nil
}

func (c *Client[Req, Resp]) put(cc *clientConn) {
	cc.reused = true
	if cap(cc.in) > maxKeptBuf {
		cc.in = nil
	}
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
