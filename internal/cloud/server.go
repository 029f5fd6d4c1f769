package cloud

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"time"

	"capnn/internal/core"
	"capnn/internal/nn"
	"capnn/internal/rpc"
)

// Config bounds a Server's exposure to slow, dead, or abusive peers.
// Zero fields take the defaults from DefaultConfig.
type Config struct {
	// ReadTimeout is how long a connection may take to deliver its
	// request before the handler gives up, so a peer that connects
	// and hangs cannot hold a goroutine past its deadline.
	ReadTimeout time.Duration
	// WriteTimeout bounds writing the response to a peer that stops
	// reading.
	WriteTimeout time.Duration
	// MaxRequestBytes caps a request frame's body; a longer one is
	// rejected with CodeBadRequest before it is read.
	MaxRequestBytes int64
	// MaxInflight bounds concurrently admitted requests. Excess
	// requests are shed immediately with CodeBusy rather than queued
	// without bound.
	MaxInflight int
}

// DefaultConfig returns the production defaults.
func DefaultConfig() Config {
	return Config{
		ReadTimeout:     30 * time.Second,
		WriteTimeout:    30 * time.Second,
		MaxRequestBytes: 1 << 20,
		MaxInflight:     64,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = d.ReadTimeout
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = d.WriteTimeout
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = d.MaxRequestBytes
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = d.MaxInflight
	}
	return c
}

// Server personalizes models on request — the paper's cloud service
// that prunes one trained model per user request. The core.System it
// owns is only read, so admitted requests prune concurrently.
type Server struct {
	sys *core.System
	cfg Config

	inflight chan struct{}

	// rpc is the wire: accept loop, peer limits, drain.
	rpc *rpc.Server[Request, Response]

	drainMu  sync.Mutex
	draining bool
}

// NewServer wraps a prepared system with the default Config.
func NewServer(sys *core.System) *Server { return NewServerWith(sys, DefaultConfig()) }

// NewServerWith wraps a prepared system with explicit limits.
func NewServerWith(sys *core.System, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{sys: sys, cfg: cfg, inflight: make(chan struct{}, cfg.MaxInflight)}
	s.rpc = rpc.NewServer(
		rpc.Limits{ReadTimeout: cfg.ReadTimeout, WriteTimeout: cfg.WriteTimeout, MaxRequestBytes: cfg.MaxRequestBytes},
		s.handle, func(msg string) *Response { return errResponse(CodeBadRequest, msg) })
	return s
}

// Inflight reports how many requests are currently admitted — useful
// for load-shedding tests and monitoring.
func (s *Server) Inflight() int { return len(s.inflight) }

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address.
func (s *Server) Listen(addr string) (string, error) { return s.rpc.Listen(addr) }

// Serve accepts connections from ln — which may be wrapped, e.g. with
// internal/faults fault injection — until Close is called, and returns
// the listener's address.
func (s *Server) Serve(ln net.Listener) string { return s.rpc.Serve(ln) }

// Close is Shutdown with a generous deadline.
func (s *Server) Close() error { return s.Shutdown(time.Minute) }

// Shutdown drains the server gracefully: the listener stops accepting,
// requests still arriving on open connections are shed with CodeBusy,
// and in-flight personalizations get up to timeout to finish. It
// returns an error when the deadline expires with handlers still
// running (they are not killed — the caller decides whether to wait
// longer or exit).
func (s *Server) Shutdown(timeout time.Duration) error {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	if err := s.rpc.Shutdown(timeout); err != nil {
		return fmt.Errorf("cloud: %w", err)
	}
	return nil
}

func (s *Server) isDraining() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.draining
}

// handle admits one decoded request: shed while draining or past the
// in-flight limit, personalize otherwise.
func (s *Server) handle(req *Request) *Response {
	if s.isDraining() {
		return errResponse(CodeBusy, "server draining, retry against another replica")
	}
	select {
	case s.inflight <- struct{}{}:
		defer func() { <-s.inflight }()
	default:
		return errResponse(CodeBusy, "server busy: in-flight limit reached, retry with backoff")
	}
	return s.Personalize(*req)
}

// Personalize executes one request against the system. Exposed so the
// protocol can be exercised without sockets. A panic while pruning is
// recovered into a CodeInternal response.
func (s *Server) Personalize(req Request) (resp *Response) {
	defer func() {
		if r := recover(); r != nil {
			resp = errResponse(CodeInternal, fmt.Sprintf("internal: %v", r))
		}
	}()

	if req.Version > ProtocolVersion {
		return errResponse(CodeBadRequest, fmt.Sprintf("protocol version %d not supported (server speaks ≤ %d)", req.Version, ProtocolVersion))
	}
	variant, err := core.ParseVariant(req.Variant, core.DefaultVariant)
	if err != nil {
		return errResponse(CodeBadRequest, err.Error())
	}
	prefs, err := core.NewPreferences(req.Classes, req.Weights)
	if err != nil {
		return errResponse(CodeBadRequest, err.Error())
	}
	if err := prefs.Validate(s.sys.Rates.Classes); err != nil {
		return errResponse(CodeBadRequest, err.Error())
	}

	masks, err := s.sys.Prune(variant, prefs)
	if err != nil {
		return errResponse(CodeInternal, err.Error())
	}
	compact, err := nn.CompactMasked(s.sys.Net, masks)
	if err != nil {
		return errResponse(CodeInternal, err.Error())
	}
	var buf bytes.Buffer
	if err := nn.Save(&buf, compact); err != nil {
		return errResponse(CodeInternal, err.Error())
	}
	st := Stats{RelativeSize: nn.RelativeSize(s.sys.Net, compact)}
	for _, m := range masks {
		for _, p := range m {
			st.TotalUnits++
			if p {
				st.PrunedUnits++
			}
		}
	}
	return &Response{
		Version:  ProtocolVersion,
		Code:     CodeOK,
		Model:    buf.Bytes(),
		ModelSum: ModelSum(buf.Bytes()),
		Stats:    st,
	}
}
