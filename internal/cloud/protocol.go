// Package cloud implements the paper's pruning process (§II, Fig. 1a):
// the original model and its firing rates live on a cloud server; a local
// device sends the user's preferences (class subset + usage weights, or
// monitoring-derived counts); the cloud prunes with the requested CAP'NN
// variant — no retraining — compacts the model, and ships it back for
// local inference. On the wire a message is one gob value inside
// internal/rpc's checksummed frame: a fetch is rare, large and one-shot,
// so a self-describing body costs it nothing a kept stream would save.
//
// The protocol is versioned and fault-aware: responses carry a typed
// Code so clients can distinguish retryable failures (server busy,
// internal fault) from permanent ones (malformed request), and the
// model payload is covered by a CRC-32 checksum so a corrupted transfer
// is detected rather than installed.
package cloud

import (
	"bytes"
	"encoding/gob"
	"hash/crc32"
)

// ProtocolVersion is the current wire protocol version. Servers refuse
// requests above their own version; clients stamp every request.
// Version 3 is the first spoken in internal/rpc's checksummed frames —
// and, on the serving tier, in internal/serve's fixed body layout, where
// the version leads the body — so nothing older than it can reach a
// decoder: the v0–v2 gob streams fail the frame check. Version 4 drops
// the serve response's batch field (always 1).
const ProtocolVersion = 4

// Code classifies a response outcome so clients can decide whether a
// retry can help.
type Code uint8

const (
	// CodeOK is a successful personalization.
	CodeOK Code = iota
	// CodeBadRequest is a permanent failure: the request is malformed,
	// oversized, names unknown classes/variants, or uses a protocol
	// version the server does not speak. Retrying the same request
	// cannot succeed.
	CodeBadRequest
	// CodeBusy means the server shed the request to protect itself
	// (in-flight limit reached). Retrying after a backoff is expected.
	CodeBusy
	// CodeInternal is a server-side fault (panic, serialization
	// failure) unrelated to the request's validity; a retry may land
	// on a healthy path.
	CodeInternal
	// CodeWrongOwner means the contacted node is not the owner of the
	// request's route key under the node's view of the cluster ring. A
	// gateway resolves it by re-looking the key up on its current ring
	// and retrying against the node that owns it now.
	CodeWrongOwner
	// CodeRingChanged means the node's ring version disagrees with the
	// version stamped on the request: cluster membership changed while
	// the request was in flight. Like CodeWrongOwner it is resolved by
	// re-routing on a fresh ring, not by retrying the same node.
	CodeRingChanged
	// CodeOverQuota means admission control shed the request because its
	// tenant exhausted its token-bucket quota or its priority lane is
	// saturated. The bucket refills over time, so retrying after a
	// backoff is expected to succeed — unlike CodeBusy it signals a
	// per-tenant limit, not server-wide load.
	CodeOverQuota
	// CodeExpired means the request's propagated deadline passed before
	// it could be served (shed at admission, in the batch queue, or
	// during gateway failover). The budget is gone: retrying the same
	// request cannot meet a deadline that has already elapsed, so the
	// code is permanent — callers must issue a fresh request with a
	// fresh budget if the answer still matters.
	CodeExpired
)

// Retryable reports whether a client may reasonably retry after this
// code. The routing codes are retryable in the sense that the same
// request re-routed on a current ring is expected to succeed;
// over-quota is retryable after a backoff long enough for the tenant's
// bucket to refill. Expired is not: the deadline the client asked for
// has passed, and no retry can rewind it.
func (c Code) Retryable() bool {
	return c == CodeBusy || c == CodeInternal || c == CodeWrongOwner || c == CodeRingChanged || c == CodeOverQuota
}

// String names the code for errors and logs.
func (c Code) String() string {
	switch c {
	case CodeOK:
		return "ok"
	case CodeBadRequest:
		return "bad-request"
	case CodeBusy:
		return "busy"
	case CodeInternal:
		return "internal"
	case CodeWrongOwner:
		return "wrong-owner"
	case CodeRingChanged:
		return "ring-changed"
	case CodeOverQuota:
		return "over-quota"
	case CodeExpired:
		return "expired"
	default:
		return "unknown"
	}
}

// Request is what the device sends: which variant to run and the user's
// preferences. Classes and Weights are parallel; Weights may be nil for
// CAP'NN-B (it ignores usage) or to request uniform usage.
type Request struct {
	// Version is the protocol version the client speaks.
	Version int
	// Variant is "B", "W" or "M".
	Variant string
	Classes []int
	Weights []float64
}

// Stats summarizes the pruning outcome alongside the shipped model.
type Stats struct {
	// RelativeSize is pruned params / original params.
	RelativeSize float64
	// PrunedUnits and TotalUnits count units over the prunable stages.
	PrunedUnits, TotalUnits int
}

// Response carries either a typed error or a gob-serialized compacted
// network (nn.Save format) plus its stats.
type Response struct {
	// Version is the server's protocol version.
	Version int
	// Code classifies the outcome; Err is its human-readable detail
	// (empty on success).
	Code Code
	Err  string
	// Model is the compacted personalized network; ModelSum is the
	// IEEE CRC-32 of Model, letting the client reject a payload that
	// was damaged where the frame's checksum cannot see it (before the
	// frame was built) instead of installing it.
	Model    []byte
	ModelSum uint32
	Stats    Stats
}

// gobAppend and gobDecode are the body encoding of both messages. Encoding
// one of this package's own plain structs into memory cannot fail.
func gobAppend(b []byte, v any) []byte {
	buf := bytes.NewBuffer(b)
	if err := gob.NewEncoder(buf).Encode(v); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func gobDecode(body []byte, v any) error { return gob.NewDecoder(bytes.NewReader(body)).Decode(v) }

// AppendWire and DecodeWire implement rpc.Message.
func (r *Request) AppendWire(b []byte) []byte    { return gobAppend(b, r) }
func (r *Request) DecodeWire(body []byte) error  { *r = Request{}; return gobDecode(body, r) }
func (r *Response) AppendWire(b []byte) []byte   { return gobAppend(b, r) }
func (r *Response) DecodeWire(body []byte) error { *r = Response{}; return gobDecode(body, r) }

// errResponse builds a typed failure response.
func errResponse(code Code, msg string) *Response {
	return &Response{Version: ProtocolVersion, Code: code, Err: msg}
}

// ModelSum is the checksum covering Response.Model — exported so
// out-of-package harnesses (corpus generators, integration tests) can
// build and verify valid responses.
func ModelSum(b []byte) uint32 { return crc32.ChecksumIEEE(b) }
