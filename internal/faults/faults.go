// Package faults provides deterministic, seedable fault injection for
// net.Conn and net.Listener. It exists so the serving tier — a device
// fetching its masks, a gateway forwarding to its shards — can be
// exercised against the failure modes a real deployment sees — dropped
// connections, latency spikes, and corrupted payloads — both in tests
// and live via the -chaos flag on cmd/capnn-serve.
//
// All randomness flows from Plan.Seed, so a given (plan, connection
// order) always injects the same faults: chaos tests are reproducible.
package faults

import (
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Mode is the fault a single connection injects.
type Mode int

const (
	// Clean passes traffic through untouched (latency still applies).
	Clean Mode = iota
	// Drop black-holes writes after Plan.DropAfter bytes: the peer
	// never sees the rest and must rely on its deadlines. This models
	// a stalled or half-dead connection.
	Drop
	// CloseMidStream hard-closes the connection after Plan.CloseAfter
	// bytes have been written through it, so the peer sees an abrupt
	// EOF / reset mid-message.
	CloseMidStream
	// Corrupt flips one byte in every write, modeling payload
	// corruption in transit.
	Corrupt
	// Refuse severs the connection the moment it is accepted, so the
	// peer sees an immediate reset — the fast-fail face of a network
	// partition (RSTs from a middlebox, a crashed process whose port
	// is still bound). The slow face — silence — is Drop.
	Refuse
)

// String names the mode for logs and test failure messages.
func (m Mode) String() string {
	switch m {
	case Clean:
		return "clean"
	case Drop:
		return "drop"
	case CloseMidStream:
		return "close"
	case Corrupt:
		return "corrupt"
	case Refuse:
		return "refuse"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Plan configures which faults to inject and how often. Per-connection
// probabilities are evaluated in order drop, close, corrupt from a
// single seeded stream, so the fault assignment for the i-th accepted
// connection is a pure function of (Seed, i).
type Plan struct {
	// Seed drives all fault randomness.
	Seed int64
	// Latency is added before every Read and Write on every wrapped
	// connection (including Clean ones).
	Latency time.Duration
	// DropProb is the probability an accepted connection black-holes
	// writes after DropAfter bytes.
	DropProb float64
	// DropAfter is the byte budget before a Drop connection goes
	// silent. Zero means 64.
	DropAfter int64
	// CloseProb is the probability an accepted connection is closed
	// mid-stream after CloseAfter bytes.
	CloseProb float64
	// CloseAfter is the byte budget before a CloseMidStream connection
	// is torn down. Zero means 256.
	CloseAfter int64
	// CorruptProb is the probability an accepted connection flips one
	// byte per write.
	CorruptProb float64
	// RefuseProb is the probability an accepted connection is severed
	// immediately (partition-style fast failure); peers should see a
	// reset before any byte of the response.
	RefuseProb float64
}

// Active reports whether the plan injects any fault at all.
func (p Plan) Active() bool {
	return p.Latency > 0 || p.DropProb > 0 || p.CloseProb > 0 || p.CorruptProb > 0 || p.RefuseProb > 0
}

// Validate checks probabilities are sane and jointly form a
// distribution over connection fates.
func (p Plan) Validate() error {
	for _, pr := range []struct {
		name string
		v    float64
	}{{"drop", p.DropProb}, {"close", p.CloseProb}, {"corrupt", p.CorruptProb}, {"refuse", p.RefuseProb}} {
		if pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("faults: %s probability %v outside [0,1]", pr.name, pr.v)
		}
	}
	if s := p.DropProb + p.CloseProb + p.CorruptProb + p.RefuseProb; s > 1 {
		return fmt.Errorf("faults: fault probabilities sum to %v > 1", s)
	}
	if p.Latency < 0 {
		return fmt.Errorf("faults: negative latency %v", p.Latency)
	}
	return nil
}

func (p Plan) dropAfter() int64 {
	if p.DropAfter > 0 {
		return p.DropAfter
	}
	return 64
}

func (p Plan) closeAfter() int64 {
	if p.CloseAfter > 0 {
		return p.CloseAfter
	}
	return 256
}

// ParsePlan parses a comma-separated chaos spec as accepted by the
// -chaos flag, e.g.
//
//	seed=7,drop=0.1,close=0.2,corrupt=0.2,refuse=0.1,latency=20ms,dropafter=64,closeafter=256
//
// Unknown keys are an error; omitted keys keep their zero defaults.
func ParsePlan(spec string) (Plan, error) {
	var p Plan
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	for _, field := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(field), "=", 2)
		if len(kv) != 2 {
			return p, fmt.Errorf("faults: bad chaos field %q (want key=value)", field)
		}
		key, val := strings.ToLower(kv[0]), kv[1]
		var err error
		switch key {
		case "seed":
			p.Seed, err = strconv.ParseInt(val, 10, 64)
		case "drop":
			p.DropProb, err = strconv.ParseFloat(val, 64)
		case "close":
			p.CloseProb, err = strconv.ParseFloat(val, 64)
		case "corrupt":
			p.CorruptProb, err = strconv.ParseFloat(val, 64)
		case "refuse":
			p.RefuseProb, err = strconv.ParseFloat(val, 64)
		case "latency":
			p.Latency, err = time.ParseDuration(val)
		case "dropafter":
			p.DropAfter, err = strconv.ParseInt(val, 10, 64)
		case "closeafter":
			p.CloseAfter, err = strconv.ParseInt(val, 10, 64)
		default:
			return p, fmt.Errorf("faults: unknown chaos key %q", key)
		}
		if err != nil {
			return p, fmt.Errorf("faults: chaos field %q: %v", field, err)
		}
	}
	if err := p.Validate(); err != nil {
		return p, err
	}
	return p, nil
}

// Listener wraps a net.Listener and assigns each accepted connection a
// fault mode drawn deterministically from the plan's seed.
type Listener struct {
	net.Listener
	plan Plan

	mu  sync.Mutex
	rng *rand.Rand
}

// WrapListener builds a fault-injecting listener around ln.
func WrapListener(ln net.Listener, plan Plan) *Listener {
	return &Listener{Listener: ln, plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
}

// Accept accepts from the underlying listener and wraps the connection.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	mode := pickMode(l.plan, l.rng.Float64())
	connSeed := l.rng.Int63()
	l.mu.Unlock()
	if mode == Refuse {
		_ = c.Close() // sever before any byte moves; reads/writes fail fast
	}
	return WrapConn(c, l.plan, mode, connSeed), nil
}

func pickMode(p Plan, r float64) Mode {
	switch {
	case r < p.DropProb:
		return Drop
	case r < p.DropProb+p.CloseProb:
		return CloseMidStream
	case r < p.DropProb+p.CloseProb+p.CorruptProb:
		return Corrupt
	case r < p.DropProb+p.CloseProb+p.CorruptProb+p.RefuseProb:
		return Refuse
	default:
		return Clean
	}
}

// Conn is a net.Conn that injects the faults of one Mode. Reads and
// writes both pay the plan's latency; the byte budgets count written
// bytes only, since a personalization response is write-dominated.
type Conn struct {
	net.Conn
	plan Plan
	mode Mode

	mu      sync.Mutex
	rng     *rand.Rand
	written int64
	dead    bool // Drop tripped: writes are black-holed
}

// WrapConn wraps c with an explicit fault mode. seed drives per-write
// randomness (which byte Corrupt flips).
func WrapConn(c net.Conn, plan Plan, mode Mode, seed int64) *Conn {
	return &Conn{Conn: c, plan: plan, mode: mode, rng: rand.New(rand.NewSource(seed))}
}

// Read delays by the plan's latency, then reads from the wrapped conn.
func (c *Conn) Read(b []byte) (int, error) {
	if c.plan.Latency > 0 {
		time.Sleep(c.plan.Latency)
	}
	return c.Conn.Read(b)
}

// Write applies the connection's fault mode. Drop pretends the write
// succeeded once the budget is spent (the bytes go nowhere, leaving the
// peer to time out); CloseMidStream tears the connection down at its
// budget; Corrupt flips one byte per write.
func (c *Conn) Write(b []byte) (int, error) {
	if c.plan.Latency > 0 {
		time.Sleep(c.plan.Latency)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.mode {
	case Drop:
		return c.writeDrop(b)
	case CloseMidStream:
		return c.writeClose(b)
	case Corrupt:
		return c.writeCorrupt(b)
	default:
		n, err := c.Conn.Write(b)
		c.written += int64(n)
		return n, err
	}
}

func (c *Conn) writeDrop(b []byte) (int, error) {
	if c.dead {
		return len(b), nil // black hole: claim success
	}
	budget := c.plan.dropAfter() - c.written
	if budget >= int64(len(b)) {
		n, err := c.Conn.Write(b)
		c.written += int64(n)
		return n, err
	}
	if budget > 0 {
		n, err := c.Conn.Write(b[:budget])
		c.written += int64(n)
		if err != nil {
			return n, err
		}
	}
	c.dead = true
	return len(b), nil
}

func (c *Conn) writeClose(b []byte) (int, error) {
	budget := c.plan.closeAfter() - c.written
	if budget >= int64(len(b)) {
		n, err := c.Conn.Write(b)
		c.written += int64(n)
		return n, err
	}
	if budget > 0 {
		n, err := c.Conn.Write(b[:budget])
		c.written += int64(n)
		if err != nil {
			return n, err
		}
	}
	_ = c.Conn.Close()
	return int(max64(budget, 0)), fmt.Errorf("faults: connection closed mid-stream after %d bytes", c.written)
}

func (c *Conn) writeCorrupt(b []byte) (int, error) {
	buf := make([]byte, len(b))
	copy(buf, b)
	if len(buf) > 0 {
		i := c.rng.Intn(len(buf))
		buf[i] ^= 1 << uint(c.rng.Intn(8))
	}
	n, err := c.Conn.Write(buf)
	c.written += int64(n)
	return n, err
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Partition is a test-controlled network partition around one
// listener: while partitioned, every already-established connection is
// severed and every newly accepted one is closed before a byte moves —
// the socket-level signature of a node that fell off the network (or
// was kill -9'd) as seen by its peers. Unlike the probabilistic Plan
// faults it is deterministic and reversible, which is what multi-node
// failover tests need: partition node B, assert the gateway routes
// around it, heal, assert it rejoins.
type Partition struct {
	net.Listener

	mu          sync.Mutex
	partitioned bool
	conns       map[net.Conn]struct{}
}

// PartitionListener wraps ln; the partition starts healed.
func PartitionListener(ln net.Listener) *Partition {
	return &Partition{Listener: ln, conns: map[net.Conn]struct{}{}}
}

// SetPartitioned toggles the partition. Turning it on severs all live
// connections accepted through this wrapper.
func (p *Partition) SetPartitioned(v bool) {
	p.mu.Lock()
	p.partitioned = v
	var sever []net.Conn
	if v {
		for c := range p.conns {
			sever = append(sever, c)
		}
		p.conns = map[net.Conn]struct{}{}
	}
	p.mu.Unlock()
	for _, c := range sever {
		_ = c.Close()
	}
}

// Accept accepts from the underlying listener; while partitioned the
// connection is closed immediately (the server sees an instant EOF, the
// peer a reset).
func (p *Partition) Accept() (net.Conn, error) {
	c, err := p.Listener.Accept()
	if err != nil {
		return nil, err
	}
	pc := &partitionConn{Conn: c, p: p}
	p.mu.Lock()
	if p.partitioned {
		p.mu.Unlock()
		_ = c.Close()
		return pc, nil
	}
	p.conns[pc] = struct{}{}
	p.mu.Unlock()
	return pc, nil
}

// partitionConn untracks itself on Close so healed partitions do not
// accumulate dead handles.
type partitionConn struct {
	net.Conn
	p *Partition
}

func (c *partitionConn) Close() error {
	c.p.mu.Lock()
	delete(c.p.conns, c)
	c.p.mu.Unlock()
	return c.Conn.Close()
}
