package metrics

import (
	"sync"
	"time"
)

// Event is one structured operational occurrence: a failover, a heal, a
// breaker or guard transition, a QoS shed. Events are the
// narrative the counters can't carry — what happened, to which
// entity, why, and when.
type Event struct {
	// Seq is a monotone per-log sequence number (survives ring
	// wraparound, so consumers can detect dropped history).
	Seq uint64 `json:"seq"`
	// Time is when the event was recorded.
	Time time.Time `json:"time"`
	// Type names the event class, kebab-case: "failover", "heal",
	// "breaker", "guard-trip", "shed", "node-breaker", ...
	Type string `json:"type"`
	// Source is the affected entity: a shard address, a mask-cache key,
	// a tenant/lane stream. Empty when the event is process-wide.
	Source string `json:"source,omitempty"`
	// Cause is the human-readable reason.
	Cause string `json:"cause,omitempty"`
	// Fields carries any extra structured context.
	Fields map[string]string `json:"fields,omitempty"`
}

// EventLog is a bounded in-memory ring of recent events, exposed as
// JSON over /debug/events. When full, the oldest events are overwritten
// — the log answers "what just happened", not "what ever happened"
// (cumulative truth lives in the counters).
type EventLog struct {
	mu   sync.Mutex
	buf  []Event
	next int
	full bool
	seq  uint64
	now  func() time.Time // injectable for tests
}

// DefaultEventLogCapacity bounds the ring when NewEventLog is given a
// non-positive capacity.
const DefaultEventLogCapacity = 512

// NewEventLog returns a ring holding up to capacity events.
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventLogCapacity
	}
	return &EventLog{buf: make([]Event, capacity), now: time.Now}
}

// SetNow installs a clock for tests.
func (l *EventLog) SetNow(now func() time.Time) {
	l.mu.Lock()
	l.now = now
	l.mu.Unlock()
}

// Record appends one event, stamping its time and sequence number.
func (l *EventLog) Record(typ, source, cause string, fields map[string]string) {
	l.mu.Lock()
	l.seq++
	l.buf[l.next] = Event{Seq: l.seq, Time: l.now(), Type: typ, Source: source, Cause: cause, Fields: fields}
	l.next++
	if l.next == len(l.buf) {
		l.next = 0
		l.full = true
	}
	l.mu.Unlock()
}

// Total is the number of events ever recorded (monotone; exposed as a
// counter so a scrape can tell how much history the ring dropped).
func (l *EventLog) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Snapshot returns up to n most recent events, oldest first (n <= 0
// returns everything retained).
func (l *EventLog) Snapshot(n int) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Event
	if l.full {
		out = make([]Event, 0, len(l.buf))
		out = append(out, l.buf[l.next:]...)
		out = append(out, l.buf[:l.next]...)
	} else {
		out = append(out, l.buf[:l.next]...)
	}
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}
