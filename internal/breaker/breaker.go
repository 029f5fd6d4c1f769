// Package breaker is the one closed/open/half-open circuit breaker the
// serving tiers share: internal/serve guards ε-guard heals with it (a
// Prune that fails for an entry fails again, and tripped guards must not
// become an unbounded stream of failing prune runs), internal/cluster
// keeps one per shard to answer "should this node receive requests right
// now?" from probe and routed-traffic outcomes.
//
// Closed: attempts run; threshold consecutive failures open the breaker,
// any success resets the streak. Open: attempts are rejected until
// cooldown has elapsed, then the next Allow becomes the half-open probe.
// Half-open: exactly one probe runs; success closes the breaker (streak
// cleared), failure re-opens it for a fresh cooldown.
package breaker

import (
	"sync"
	"time"
)

// State names a breaker state; the string is what stats, events and the
// wire carry.
type State string

const (
	Closed   State = "closed"
	Open     State = "open"
	HalfOpen State = "half-open"
)

// Value maps a state onto the gauge scale the metric surfaces share:
// 0 closed, 1 half-open, 2 open.
func (s State) Value() float64 {
	switch s {
	case HalfOpen:
		return 1
	case Open:
		return 2
	}
	return 0
}

// Snapshot is a breaker's current state and cumulative transition counts.
type Snapshot struct {
	State                    State
	Opens, Closes, HalfOpens uint64
}

// Breaker is safe for concurrent use. OnTransition and Now may be set
// after New and before first use.
type Breaker struct {
	// OnTransition, when set, observes every state change exactly once.
	// It is called after the breaker's lock is released, so it may call
	// back into the breaker.
	OnTransition func(from, to State)
	// Now is the clock the cooldown is judged on; tests inject a fake.
	Now func() time.Time

	threshold int
	cooldown  time.Duration

	mu       sync.Mutex
	snap     Snapshot
	failures int // consecutive failures while closed
	openedAt time.Time
}

// New returns a closed breaker that opens after threshold consecutive
// failures and admits one probe once cooldown has passed.
func New(threshold int, cooldown time.Duration) *Breaker {
	return &Breaker{
		Now:       time.Now,
		threshold: threshold,
		cooldown:  cooldown,
		snap:      Snapshot{State: Closed},
	}
}

// Allow reports whether an attempt may run now. In the open state the
// first Allow after the cooldown claims the half-open probe slot, and the
// breaker stays half-open — rejecting everyone else — until that probe's
// Record. Every allowed attempt must later call Record.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	from := b.snap.State
	ok := from == Closed
	if from == Open && b.Now().Sub(b.openedAt) >= b.cooldown {
		b.snap.State = HalfOpen
		b.snap.HalfOpens++
		ok = true
	}
	to := b.snap.State
	b.mu.Unlock()
	b.fire(from, to)
	return ok
}

// Record reports an attempt's outcome. An outcome that arrives while the
// breaker is open — a straggler allowed before the trip — is ignored.
func (b *Breaker) Record(ok bool) {
	b.mu.Lock()
	from := b.snap.State
	switch {
	case from == HalfOpen && ok:
		b.failures = 0
		b.snap.State = Closed
		b.snap.Closes++
	case from == HalfOpen:
		b.openLocked()
	case from == Closed && ok:
		b.failures = 0
	case from == Closed:
		if b.failures++; b.failures >= b.threshold {
			b.openLocked()
		}
	}
	to := b.snap.State
	b.mu.Unlock()
	b.fire(from, to)
}

func (b *Breaker) openLocked() {
	b.snap.State = Open
	b.snap.Opens++
	b.openedAt = b.Now()
}

func (b *Breaker) fire(from, to State) {
	if from != to && b.OnTransition != nil {
		b.OnTransition(from, to)
	}
}

// Snapshot returns the raw state: an open breaker whose cooldown has
// passed still reads open until an Allow claims the probe.
func (b *Breaker) Snapshot() Snapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.snap
}
