package serve

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"capnn/internal/cloud"
	"capnn/internal/core"
	"capnn/internal/qos"
	"capnn/internal/rpc"
)

// The wire shares internal/cloud's vocabulary — cloud.ProtocolVersion
// stamps and cloud.Code outcome classification, so a device that speaks
// the personalization protocol needs no new error handling to speak the
// inference protocol — on the shared internal/rpc transport: checksummed
// frames on kept connections, any number of request/response pairs on
// one. The body layout of the two messages is codec.go's.

// Op selects what a WireRequest asks the server to do. The zero value
// is an inference.
type Op int

const (
	// OpInfer runs one personalized inference.
	OpInfer Op = iota
	// OpStats asks for a Stats snapshot (gob in the response payload) —
	// the remote scrape behind dashboards and the gateway, instead of
	// only a SIGINT dump.
	OpStats
	// OpHealth is a lightweight liveness probe: CodeOK when the server
	// is accepting work, CodeBusy when it is draining. Gateways drive
	// their per-node breaker state off this op.
	OpHealth
	// OpRingUpdate installs a new cluster membership view (RingUpdate,
	// gob in the request payload) on the node's ring-update handler —
	// the fence a gateway arms so the node can reject keys it no longer
	// owns after an epoch flip. A node without a handler acknowledges
	// and ignores it.
	OpRingUpdate
)

// WireRequest is one inference over the wire: the user's preferences
// (same fields as cloud.Request) plus the input sample, flattened in
// the model's [C,H,W] order.
type WireRequest struct {
	// Version is the protocol version the client speaks (cloud versioning).
	Version int
	// Op selects the operation; zero is OpInfer.
	Op Op
	// Variant is "B", "W", "M", or "" for the server default.
	Variant string
	Classes []int
	Weights []float64
	// Input is the flattened per-sample tensor.
	Input []float64

	// RouteKey and RingVersion are routing metadata stamped by a
	// cluster gateway: the canonical placement key the request was
	// routed under and the gateway's ring version. A node with an
	// installed owner check (SetOwnerCheck) uses them to reject
	// misrouted traffic with CodeWrongOwner / CodeRingChanged instead
	// of silently serving keys it no longer owns. Empty / zero on
	// direct (non-gateway) requests.
	RouteKey    string
	RingVersion uint64

	// QoS envelope. BudgetMicros is the request's
	// remaining deadline budget in microseconds — relative, not an
	// absolute timestamp, so it survives clock skew between hops; each
	// hop re-stamps the remainder before forwarding. Zero means no
	// client deadline (the server's RequestTimeout still bounds the
	// wait); negative means the budget was exhausted upstream and the
	// server answers CodeExpired without queueing; a budget at or past
	// the hop's own RequestTimeout binds nothing. Tenant names the quota
	// account ("" = "default"); Lane is the qos.Lane wire value (0
	// interactive, 1 bulk).
	BudgetMicros int64
	Tenant       string
	Lane         int

	// Payload is the op-specific, gob-encoded second-stage blob mirroring
	// WireResponse.Payload: OpRingUpdate carries a RingUpdate here. Nil
	// for the other ops.
	Payload []byte
}

// RingUpdate is the membership view a gateway broadcasts to every serve
// node after an epoch flip (OpRingUpdate). It carries everything needed
// to rebuild the placement function locally — consistent-hash placement
// is a pure function of (seed, vnodes, member set) — plus You, the
// receiving node's own routed address, so the node can judge ownership
// without knowing how the gateway dialed it. The serve tier treats this
// as opaque configuration; internal/cluster interprets it.
type RingUpdate struct {
	// Epoch is the monotone membership version the view was published
	// under; wire requests are stamped with the sender's epoch and
	// fenced against it.
	Epoch        uint64
	Seed         int64
	VirtualNodes int
	Replication  int
	// Members is the sorted member address list.
	Members []string
	// You is the receiving node's address as the ring knows it.
	You string
}

// WireResponse carries the logits or a typed error.
type WireResponse struct {
	Version int
	Code    cloud.Code
	Err     string
	// Logits are the class scores; Class is their argmax. CacheHit
	// reports whether the request's masks were already cached —
	// observability a client or load test can assert on.
	Logits   []float64
	Class    int
	CacheHit bool
	// Fallback reports the request was served through the unpruned
	// network because its mask entry's ε-guard tripped (see Result).
	Fallback bool
	// Payload is the op-specific, gob-encoded second-stage blob: the
	// Stats snapshot on a shard's OpStats response (a cluster gateway
	// answers the same op with its own stats type, see internal/cluster).
	Payload []byte
}

// EncodePayload gob-encodes a control op's second-stage blob.
func EncodePayload(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// DecodePayload decodes what EncodePayload wrote into v.
func DecodePayload(p []byte, v any) error { return gob.NewDecoder(bytes.NewReader(p)).Decode(v) }

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address.
func (s *Server) Listen(addr string) (string, error) { return s.rpc.Listen(addr) }

// Serve accepts connections from ln — which may be wrapped, e.g. with
// internal/faults fault injection — until Close is called, and returns
// the listener's address. Connections are kept: a client or gateway
// sends any number of requests on one.
func (s *Server) Serve(ln net.Listener) string { return s.rpc.Serve(ln) }

// Refuse builds the response that answers a request with a typed failure.
func Refuse(code cloud.Code, format string, args ...any) *WireResponse {
	return &WireResponse{Version: cloud.ProtocolVersion, Code: code, Err: fmt.Sprintf(format, args...)}
}

func badRequest(msg string) *WireResponse { return Refuse(cloud.CodeBadRequest, "%s", msg) }

// Handle executes one wire request against the serving pipeline —
// exposed so the protocol can be exercised without sockets.
func (s *Server) Handle(req WireRequest) *WireResponse { return s.handle(&req) }

// handle is Handle on the caller's request value — over the wire, the
// one its connection decodes every frame into (rpc.Server's ownership
// rule).
func (s *Server) handle(req *WireRequest) *WireResponse {
	if req.Version > cloud.ProtocolVersion {
		return Refuse(cloud.CodeBadRequest, "protocol version %d not supported (server speaks ≤ %d)", req.Version, cloud.ProtocolVersion)
	}
	switch req.Op {
	case OpInfer:
	case OpStats:
		p, err := EncodePayload(s.Stats())
		if err != nil {
			return Refuse(cloud.CodeInternal, "encode stats: %v", err)
		}
		return &WireResponse{Version: cloud.ProtocolVersion, Code: cloud.CodeOK, Payload: p}
	case OpHealth:
		if s.isDraining() {
			return Refuse(cloud.CodeBusy, "server draining")
		}
		return &WireResponse{Version: cloud.ProtocolVersion, Code: cloud.CodeOK}
	case OpRingUpdate:
		return s.handleRingUpdate(req.Payload)
	default:
		return Refuse(cloud.CodeBadRequest, "unknown op %d", req.Op)
	}
	if req.RouteKey != "" {
		if check := s.ownerCheckFn(); check != nil {
			if code := check(req.RouteKey, req.RingVersion); code != cloud.CodeOK {
				return Refuse(code, "route key %s rejected: %s", req.RouteKey, code)
			}
		}
	}
	v, err := core.ParseVariant(req.Variant, s.cfg.Variant)
	if err != nil {
		return badRequest(err.Error())
	}
	prefs, err := core.NewPreferences(req.Classes, req.Weights)
	if err != nil {
		return badRequest(err.Error())
	}

	lane, ok := qos.LaneFromWire(req.Lane)
	if !ok {
		return Refuse(cloud.CodeBadRequest, "unknown lane %d (want 0 interactive or 1 bulk)", req.Lane)
	}
	q := QoS{Lane: lane, Tenant: req.Tenant}
	if req.BudgetMicros < 0 {
		// The budget died in flight (e.g. a gateway re-stamped a
		// remainder that went negative). Refuse before queueing: the
		// typed code tells the caller not to retry this request.
		s.st.shedExpired()
		return Refuse(cloud.CodeExpired, "deadline budget exhausted before arrival (%dµs over)", -req.BudgetMicros)
	}
	if d, binds := qos.Budget(req.BudgetMicros, s.cfg.RequestTimeout); binds {
		q.Deadline = time.Now().Add(d)
	}

	res, err := s.infer(v, prefs, req.Input, q)
	if err != nil {
		// A request that timed out in the queue has left its input with the
		// worker that may still forward it (dispatcher.run wraps r.x, it does
		// not copy), so the connection must not decode its next frame over
		// that slab. Every failure forgets it: errors are rare and a fresh
		// 8 KiB costs less than telling the one path apart.
		req.Input = nil
		te := err.(*Error)
		return Refuse(te.Code, "%s", te.Err.Error())
	}
	return &WireResponse{
		Version:  cloud.ProtocolVersion,
		Code:     cloud.CodeOK,
		Logits:   res.Logits,
		Class:    res.Class,
		CacheHit: res.CacheHit,
		Fallback: res.Fallback,
	}
}

// handleRingUpdate decodes an OpRingUpdate payload and hands it to the
// installed ring-update handler. A node without one — a standalone
// server no cluster supervises — acknowledges and ignores the view.
func (s *Server) handleRingUpdate(payload []byte) *WireResponse {
	var upd RingUpdate
	if err := DecodePayload(payload, &upd); err != nil {
		return Refuse(cloud.CodeBadRequest, "decode ring update: %v", err)
	}
	if h := s.ringUpdateFn(); h != nil {
		if err := h(upd); err != nil {
			return Refuse(cloud.CodeInternal, "ring update: %v", err)
		}
		s.events.Record("ring-changed", "", fmt.Sprintf("installed epoch %d (%d members)", upd.Epoch, len(upd.Members)), nil)
	}
	return &WireResponse{Version: cloud.ProtocolVersion, Code: cloud.CodeOK}
}

// clientMaxIdle is how many connections a Client keeps open between
// calls — enough for a few goroutines sharing one Client; a
// one-goroutine caller only ever opens one.
const clientMaxIdle = 4

// Client requests inferences from a serve.Server over TCP, on
// connections it keeps open between calls. Unlike the model-fetching
// cloud.Client it keeps no retry loop of its own: an inference is cheap
// to reissue, so callers decide retry policy from the typed *Error
// codes. Safe for concurrent use.
type Client struct {
	// Addr is the server's TCP address.
	Addr string
	// DialTimeout bounds establishing a connection; RequestTimeout
	// bounds the round trip once connected. Addr and DialTimeout are
	// read at the first call.
	DialTimeout    time.Duration
	RequestTimeout time.Duration

	once sync.Once
	rpc  *rpc.Client[WireRequest, WireResponse]
}

// NewClient builds a client with 5s dial / 30s round-trip timeouts.
func NewClient(addr string) *Client {
	return &Client{Addr: addr, DialTimeout: 5 * time.Second, RequestTimeout: 30 * time.Second}
}

func (c *Client) transport() *rpc.Client[WireRequest, WireResponse] {
	c.once.Do(func() {
		c.rpc = rpc.NewClient[WireRequest, WireResponse](c.Addr, c.DialTimeout, clientMaxIdle)
	})
	return c.rpc
}

// Close closes the kept connections. A Client dropped without Close
// leaks nothing: the server reaps its idle connection at ReadTimeout.
func (c *Client) Close() { c.transport().Close() }

// Infer sends one request and decodes the response. Failures are typed
// *Error values: transport faults map to CodeInternal (retryable),
// server-reported outcomes keep their code.
func (c *Client) Infer(req WireRequest) (*WireResponse, error) {
	req.Op = OpInfer
	return c.do(req)
}

// Stats scrapes the remote server's Stats snapshot over the wire — the
// same numbers the SIGINT dump prints, available to dashboards while
// the server runs.
func (c *Client) Stats() (Stats, error) {
	resp, err := c.do(WireRequest{Op: OpStats})
	if err != nil {
		return Stats{}, err
	}
	var st Stats
	if err := DecodePayload(resp.Payload, &st); err != nil {
		return Stats{}, &Error{Code: cloud.CodeInternal, Err: fmt.Errorf("stats payload: %w", err)}
	}
	return st, nil
}

// Health probes the server: nil when it is accepting work, a typed
// *Error (CodeBusy while draining, CodeInternal for transport faults)
// otherwise.
func (c *Client) Health() error {
	_, err := c.do(WireRequest{Op: OpHealth})
	return err
}

func (c *Client) do(req WireRequest) (*WireResponse, error) {
	req.Version = cloud.ProtocolVersion
	resp, err := c.transport().Do(&req, time.Now().Add(c.RequestTimeout))
	if err != nil {
		return nil, &Error{Code: cloud.CodeInternal, Err: err}
	}
	if resp.Code != cloud.CodeOK {
		return nil, &Error{Code: resp.Code, Err: errors.New(resp.Err)}
	}
	return resp, nil
}
