package cloud

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"capnn/internal/nn"
	"capnn/internal/rpc"
)

// Retry configures the client's retry loop: exponential backoff with
// full jitter, applied only to retryable failures (dial and transport
// errors, corrupted payloads, and server CodeBusy/CodeInternal).
// Validation errors are never retried — the same request cannot start
// succeeding.
type Retry struct {
	// MaxAttempts is the total number of tries (1 = no retry).
	MaxAttempts int
	// BaseBackoff is the backoff ceiling before the first retry; the
	// ceiling doubles each further attempt, capped at MaxBackoff, and
	// the actual sleep is uniform in [0, ceiling) (full jitter).
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff ceiling.
	MaxBackoff time.Duration
}

// DefaultRetry is the client default: 3 attempts, 100 ms base, 2 s cap.
func DefaultRetry() Retry {
	return Retry{MaxAttempts: 3, BaseBackoff: 100 * time.Millisecond, MaxBackoff: 2 * time.Second}
}

// Error is the typed error Fetch returns, carrying enough structure for
// callers to distinguish retryable transport faults from permanent
// request errors.
type Error struct {
	// Op is the step that failed: "dial", "send", "receive", "server"
	// or "payload".
	Op string
	// Code is the server-reported outcome for Op == "server"; CodeOK
	// for client-side failures.
	Code Code
	// Attempts is how many tries Fetch made before giving up.
	Attempts int
	// Err is the underlying cause.
	Err error
}

// Error formats the failure with its step and attempt count.
func (e *Error) Error() string {
	if e.Op == "server" {
		return fmt.Sprintf("cloud: server [%s] after %d attempt(s): %v", e.Code, e.Attempts, e.Err)
	}
	return fmt.Sprintf("cloud: %s after %d attempt(s): %v", e.Op, e.Attempts, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// Retryable reports whether another attempt could plausibly succeed:
// transport faults and corrupt payloads are transient, server errors
// defer to their Code.
func (e *Error) Retryable() bool {
	if e.Op == "server" {
		return e.Code.Retryable()
	}
	return true // dial, send, receive, payload: all transport-shaped
}

// Client requests personalized models from a cloud server.
type Client struct {
	// Addr is the server's TCP address.
	Addr string
	// DialTimeout bounds establishing the connection; RequestTimeout
	// bounds the round trip (send + server work + receive) once
	// connected.
	DialTimeout    time.Duration
	RequestTimeout time.Duration
	// Retry governs the backoff loop around transient failures.
	Retry Retry
	// OnRetry, when set, observes each retry: it is called with the
	// 1-based number of the attempt that just failed and its error,
	// before the backoff sleep. Useful for logging and for tests that
	// assert fault paths were exercised.
	OnRetry func(attempt int, err error)
}

// NewClient builds a client with 5 s dial / 30 s round-trip timeouts
// and the default retry policy.
func NewClient(addr string) *Client {
	return &Client{
		Addr:           addr,
		DialTimeout:    5 * time.Second,
		RequestTimeout: 30 * time.Second,
		Retry:          DefaultRetry(),
	}
}

// Fetch sends the request and decodes the personalized model, retrying
// transient failures per the client's Retry policy. On failure the
// returned error is an *Error.
func (c *Client) Fetch(req Request) (*nn.Network, Stats, error) {
	req.Version = ProtocolVersion
	attempts := c.Retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var last *Error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			time.Sleep(c.backoff(i))
		}
		model, st, ferr := c.fetchOnce(req)
		if ferr == nil {
			return model, st, nil
		}
		last = ferr
		last.Attempts = i + 1
		if !ferr.Retryable() {
			break
		}
		if c.OnRetry != nil && i+1 < attempts {
			c.OnRetry(i+1, ferr)
		}
	}
	return nil, Stats{}, last
}

// backoff returns the full-jitter sleep before retry attempt i (1-based).
func (c *Client) backoff(i int) time.Duration {
	base := c.Retry.BaseBackoff
	if base <= 0 {
		base = time.Millisecond
	}
	exp := i - 1
	if exp > 20 { // 2^20 × base already dwarfs any sane MaxBackoff
		exp = 20
	}
	ceiling := base << uint(exp)
	if max := c.Retry.MaxBackoff; max > 0 && ceiling > max {
		ceiling = max
	}
	return time.Duration(rand.Int63n(int64(ceiling) + 1))
}

// fetchOnce is one attempt: a one-shot exchange on its own connection
// (a model fetch is rare and large, so nothing is kept open for it).
func (c *Client) fetchOnce(req Request) (*nn.Network, Stats, *Error) {
	dialTimeout := c.DialTimeout
	if dialTimeout <= 0 {
		dialTimeout = 5 * time.Second
	}
	reqTimeout := c.RequestTimeout
	if reqTimeout <= 0 {
		reqTimeout = 30 * time.Second
	}
	resp, err := rpc.NewClient[Request, Response](c.Addr, dialTimeout, 0).Do(&req, time.Now().Add(reqTimeout))
	if err != nil {
		te := err.(*rpc.Error)
		return nil, Stats{}, &Error{Op: te.Op, Err: te.Err}
	}
	if resp.Code != CodeOK {
		return nil, Stats{}, &Error{Op: "server", Code: resp.Code, Err: errors.New(resp.Err)}
	}
	if ModelSum(resp.Model) != resp.ModelSum {
		return nil, Stats{}, &Error{Op: "payload", Err: fmt.Errorf("model checksum mismatch (%d bytes corrupted in transit)", len(resp.Model))}
	}
	model, err := nn.Load(bytes.NewReader(resp.Model))
	if err != nil {
		return nil, Stats{}, &Error{Op: "payload", Err: fmt.Errorf("model payload: %w", err)}
	}
	return model, resp.Stats, nil
}
