package serve

import (
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

// The wire's vocabulary is internal/cloud's — cloud.ProtocolVersion
// stamps and cloud.Code outcome classification — on the shared
// internal/rpc transport: checksummed frames on kept connections, any
// number of request/response pairs on one. Inference and personalization
// (a device fetching the masks for its preferences) are two ops of the
// one protocol. The body layout of the two messages is codec.go's.

// Op selects what a WireRequest asks the server to do. The zero value
// is an inference. Value 1 stays unassigned, because an older peer may
// still send it for the stats op it once named; it is refused like any
// other unknown op.
type Op int

const (
	// OpInfer runs one personalized inference.
	OpInfer Op = 0
	// OpHealth is a lightweight liveness probe: CodeOK when the server
	// is accepting work, CodeBusy when it is draining. Gateways drive
	// their per-node breaker state off this op.
	OpHealth Op = 2
	// OpRingUpdate installs a new cluster membership view (RingUpdate,
	// its AppendWire layout in the request payload) on the node's ring-update handler —
	// the fence a gateway arms so the node can reject keys it no longer
	// owns after an epoch flip. A node without a handler acknowledges
	// and ignores it.
	OpRingUpdate Op = 3
	// OpPersonalize asks for the masks the server serves a key with (a
	// MaskPayload in the response payload): the same cache entry, fill
	// and checks an OpInfer of the key goes through, but no forward. A
	// device compacts its own base network under them.
	OpPersonalize Op = 4
)

// WireRequest is one request over the wire: the user's preferences plus,
// for an inference, the input sample, flattened in the model's [C,H,W]
// order.
type WireRequest struct {
	// Version is the protocol version the client speaks (cloud.ProtocolVersion).
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

	// Payload is the op-specific second-stage blob: OpRingUpdate carries
	// a RingUpdate here in its AppendWire layout. Nil for the other ops.
	Payload []byte
}

// RingUpdate is the membership view a gateway broadcasts to every serve
// node after an epoch flip (OpRingUpdate). It carries everything needed
// to rebuild the placement function locally — consistent-hash placement
// is a pure function of (seed, vnodes, member set) — plus You, the
// receiving node's own routed address, so the node can judge ownership
// without knowing how the gateway dialed it. The serve tier treats this
// as opaque configuration; internal/cluster interprets it. With You
// empty, the same layout is the body of a gateway's ring file.
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
	// Payload is the op-specific second-stage blob: a MaskPayload on an
	// OpPersonalize response. Nil for the other ops.
	Payload []byte
}

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
	case OpInfer, OpPersonalize:
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
	q := QoS{Lane: lane}
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
	if req.Op == OpPersonalize {
		return s.masks(v, prefs, q)
	}

	res, err := s.infer(v, prefs, req.Input, q)
	if err != nil {
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
	if err := upd.DecodeWire(payload); err != nil {
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

// Client sends requests to a serve.Server (or a cluster gateway) over
// TCP, on connections it keeps open between calls. It keeps no retry loop
// of its own: callers decide retry policy from the typed *Error codes.
// Safe for concurrent use.
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

// Personalize asks for the masks the server serves req's key with; the
// response's Payload is a MaskPayload. Failures are typed as Infer's are.
func (c *Client) Personalize(req WireRequest) (*WireResponse, error) {
	req.Op = OpPersonalize
	return c.do(req)
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
