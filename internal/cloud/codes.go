// Package cloud holds the vocabulary every wire of the serving tier
// shares: the protocol version a request or response is stamped with,
// and the typed Code that classifies an outcome, so any caller — a
// device fetching masks, a gateway, a load generator — decides retries
// the same way. The messages themselves are internal/serve's.
package cloud

// ProtocolVersion is the current wire protocol version. Servers refuse
// requests above their own version; clients stamp every request.
// Version 3 is the first spoken in internal/rpc's checksummed frames
// and internal/serve's fixed body layout, where the version leads the
// body, so nothing older than it can reach a decoder: the v0–v2 gob
// streams fail the frame check. Version 4 drops the serve response's
// batch field (always 1). OpPersonalize needed no bump: an older server
// answers an op it does not know with a typed bad request.
const ProtocolVersion = 4

// Code classifies a response outcome so clients can decide whether a
// retry can help.
type Code uint8

const (
	// CodeOK is a successful request.
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
