package serve

import (
	"fmt"
	"sync"
	"time"

	"capnn/internal/cloud"
	"capnn/internal/nn"
	"capnn/internal/qos"
)

// gate bounds a shard's forwards and holds no goroutine: each admitted
// request runs its one forward in its caller's goroutine once it holds
// one of the gate's slots, and a released slot goes to a waiting
// interactive request before a bulk one. Admission is bounded: past
// maxQueue requests holding or awaiting a slot new ones shed with
// CodeBusy, and bulk ones already past bulkMax with CodeOverQuota.
// Uncontended, a request takes the lock, forwards and takes the lock
// again: no channel, no timer, no other goroutine.
type gate struct {
	maxQueue, bulkMax int
	st                *stats

	mu      sync.Mutex
	queued  int    // admitted, not yet returned: holding a slot or awaiting one
	free    int    // slots nobody holds
	waiting [2]int // per lane: callers awaiting a slot not yet handed to them
	closed  bool
	// handoff carries released slots to each lane's waiters; it holds as
	// many as there are slots, so a release never blocks under mu.
	handoff [2]chan struct{}
	callers sync.WaitGroup // admitted callers not yet returned

	// hookBeforeForward, when set by tests, runs once a request holds its
	// slot, before the deadline check: a place to stall deterministically.
	hookBeforeForward func(plan *nn.Compiled, lane qos.Lane, x []float64)
}

func newGate(slots, maxQueue, bulkMax int, st *stats) *gate {
	return &gate{maxQueue: maxQueue, bulkMax: bulkMax, st: st, free: slots,
		handoff: [2]chan struct{}{make(chan struct{}, slots), make(chan struct{}, slots)}}
}

// depth reports admitted-but-unreturned requests (the queue gauge).
func (g *gate) depth() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.queued
}

// forward admits one request on its lane, waits for a slot until
// deadline, and answers it with one forward on plan. A request whose
// deadline passes first is answered CodeExpired and never starts a
// forward; a panic after admission fails it with CodeInternal. Either
// way its slot is released.
func (g *gate) forward(plan *nn.Compiled, x []float64, lane qos.Lane, deadline time.Time) (logits []float64, err error) {
	admitted := time.Now()
	if err := g.enter(lane, deadline); err != nil {
		return nil, err
	}
	defer func() {
		if p := recover(); p != nil {
			logits, err = nil, &Error{Code: cloud.CodeInternal, Err: fmt.Errorf("forward: %v", p)}
		}
		g.mu.Lock()
		g.pass()
		g.leave()
	}()
	if g.hookBeforeForward != nil {
		g.hookBeforeForward(plan, lane, x)
	}
	start := time.Now()
	if start.After(deadline) {
		g.st.shedExpired()
		return nil, &Error{Code: cloud.CodeExpired, Err: fmt.Errorf("deadline passed %v before its forward began", start.Sub(deadline))}
	}
	// x is read in place: the plan never mutates it, and the caller's slab
	// is not reused before this returns.
	logits = plan.InferSample(x)
	g.st.forwarded(start.Sub(admitted), time.Since(start))
	return logits, nil
}

// enter admits one request and returns once it holds a slot. Admission
// and joining the lane's wait count share one critical section, so
// depth() ≥ n means n callers hold or await a slot.
func (g *gate) enter(lane qos.Lane, deadline time.Time) error {
	g.mu.Lock()
	switch {
	case g.closed:
		g.mu.Unlock()
		return &Error{Code: cloud.CodeInternal, Err: fmt.Errorf("server closed")}
	case g.queued >= g.maxQueue:
		g.mu.Unlock()
		g.st.shedQueueFull()
		return &Error{Code: cloud.CodeBusy, Err: fmt.Errorf("queue full (%d in flight), retry with backoff", g.maxQueue)}
	case lane == qos.LaneBulk && g.queued >= g.bulkMax:
		// Bulk yields under pressure: interactive traffic may still use
		// the remaining queue headroom, bulk backs off now.
		g.mu.Unlock()
		g.st.shedOverQuota()
		return &Error{Code: cloud.CodeOverQuota,
			Err: fmt.Errorf("bulk lane yielding (%d of %d queue slots in use), retry with backoff", g.bulkMax, g.maxQueue)}
	}
	g.queued++
	g.callers.Add(1)
	g.st.admitted()
	if g.free > 0 {
		g.free--
		g.mu.Unlock()
		return nil
	}
	g.waiting[lane]++
	g.mu.Unlock()

	wait := time.NewTimer(time.Until(deadline))
	defer wait.Stop()
	select {
	case <-g.handoff[lane]:
		return nil
	case <-wait.C:
	}
	// Given up: a slot that reached this lane meanwhile may be the one
	// meant for this caller, so it goes on to the next waiter.
	g.mu.Lock()
	select {
	case <-g.handoff[lane]:
		g.pass()
	default:
		g.waiting[lane]--
	}
	g.leave()
	g.st.shedExpired()
	return &Error{Code: cloud.CodeExpired, Err: fmt.Errorf("deadline passed waiting for a forward slot")}
}

// pass hands a slot to an interactive waiter, else to a bulk one, else
// frees it. g.mu is held.
func (g *gate) pass() {
	for lane, n := range g.waiting {
		if n > 0 {
			g.waiting[lane]--
			g.handoff[lane] <- struct{}{}
			return
		}
	}
	g.free++
}

// leave returns an admitted caller, whether it forwarded or gave up, and
// unlocks g.mu.
func (g *gate) leave() {
	g.queued--
	g.mu.Unlock()
	g.st.completed()
	g.callers.Done()
}

// close stops admission and waits until every admitted caller has
// returned.
func (g *gate) close() {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
	g.callers.Wait()
}
