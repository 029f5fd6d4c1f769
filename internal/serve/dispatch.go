package serve

import (
	"fmt"
	"sync"
	"time"

	"capnn/internal/cloud"
	"capnn/internal/nn"
	"capnn/internal/qos"
)

// request is one admitted inference: its input sample (flattened
// [C,H,W]), the compiled plan it forwards on (captured at admission: its
// entry's, or the server's unpruned one), its QoS envelope, and the
// channel its outcome lands on (buffered; a worker never blocks).
//
// Requests are pooled with their channel and their queue timer, under one
// rule: from submit until its outcome is received, a request — and the
// input slab x points into — belongs to the worker that dequeues it. A
// waiter that gives up at its deadline therefore abandons both: the
// request never goes back to the pool (the worker's late answer lands in
// a channel nobody reuses), and whoever owns the slab must not write it
// again (TestAbandonedRequestKeepsItsInput).
type request struct {
	plan     *nn.Compiled
	x        []float64
	enqueued time.Time
	// deadline is the request's effective absolute deadline (client
	// budget capped by the server's RequestTimeout; never zero). A worker
	// that dequeues the request after it has passed sheds it — expire-in-
	// queue — instead of forwarding.
	deadline time.Time
	lane     qos.Lane
	done     chan outcome
	// timer fires at deadline for the waiter.
	timer *time.Timer
}

var requestPool sync.Pool

// newRequest takes a request from the pool and fills it in, its timer
// armed to fire at deadline.
func newRequest(plan *nn.Compiled, x []float64, deadline time.Time, lane qos.Lane) *request {
	r, ok := requestPool.Get().(*request)
	if ok {
		r.timer.Reset(time.Until(deadline))
	} else {
		r = &request{done: make(chan outcome, 1), timer: time.NewTimer(time.Until(deadline))}
	}
	r.plan, r.x, r.enqueued, r.deadline, r.lane = plan, x, time.Now(), deadline, lane
	return r
}

// release returns a request nobody else references — never submitted, or
// its outcome received — to the pool. One whose timer has already fired
// is dropped instead: its tick may still be on its way into the channel.
func (r *request) release() {
	if r.timer.Stop() {
		r.plan, r.x = nil, nil
		requestPool.Put(r)
	}
}

type outcome struct {
	logits []float64
	err    error
}

// dispatcher hands each admitted request straight to a fixed worker
// pool: one request, one forward on its plan, nothing held back to wait
// for company. Workers drain the interactive lane first; a bulk request
// is only taken when no interactive one is waiting. Admission is
// bounded: more than maxQueue requests in flight and submit sheds with
// CodeBusy; bulk requests yield earlier, shedding with CodeOverQuota once
// the queue passes the bulk threshold. A request whose deadline passes
// while queued is answered with CodeExpired when a worker dequeues it
// and never reaches a forward.
type dispatcher struct {
	sample   int   // flattened per-sample input length
	shape    []int // [1, C, H, W]: one sample as a batch of one
	maxQueue int
	bulkMax  int // bulk lane's queue threshold (≤ maxQueue)
	st       *stats

	mu     sync.Mutex
	queued int // admitted, not yet completed
	closed bool

	hi      chan *request // interactive lane
	lo      chan *request // bulk lane
	workers sync.WaitGroup

	// hookBeforeForward, when set by tests, runs in the worker just before
	// the forward — a place to stall the pool deterministically.
	hookBeforeForward func(*request)
}

func newDispatcher(inShape []int, maxQueue, bulkMax, workers int, st *stats) *dispatcher {
	per := 1
	for _, n := range inShape {
		per *= n
	}
	d := &dispatcher{
		sample:   per,
		shape:    append([]int{1}, inShape...),
		maxQueue: maxQueue,
		bulkMax:  bulkMax,
		st:       st,
		// queued is capped at maxQueue, so maxQueue-deep buffers let submit
		// send while holding d.mu without ever blocking. Sending under the
		// lock is what makes close() safe: once close() has marked the
		// dispatcher closed under the lock, no later sender can race the
		// channel close.
		hi: make(chan *request, maxQueue),
		lo: make(chan *request, maxQueue),
	}
	for i := 0; i < workers; i++ {
		d.workers.Add(1)
		go d.worker()
	}
	return d
}

// depth reports admitted-but-uncompleted requests (the queue gauge).
func (d *dispatcher) depth() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.queued
}

// submit admits one request onto its lane. The returned error is a typed
// *Error (busy, over-quota or closed); on success the caller waits on
// r.done. Admission is counted under the lock, before the send, so a
// scrape can never see a request completed but not yet admitted.
func (d *dispatcher) submit(r *request) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return &Error{Code: cloud.CodeInternal, Err: fmt.Errorf("server closed")}
	}
	if d.queued >= d.maxQueue {
		d.st.shedQueueFull()
		return &Error{Code: cloud.CodeBusy, Err: fmt.Errorf("queue full (%d in flight), retry with backoff", d.maxQueue)}
	}
	if r.lane == qos.LaneBulk && d.queued >= d.bulkMax {
		// Bulk yields under pressure: interactive traffic may still use
		// the remaining queue headroom, bulk backs off now.
		d.st.shedOverQuota()
		return &Error{Code: cloud.CodeOverQuota,
			Err: fmt.Errorf("bulk lane yielding (%d of %d queue slots in use), retry with backoff", d.bulkMax, d.maxQueue)}
	}
	d.queued++
	d.st.admitted()
	if r.lane == qos.LaneBulk {
		d.lo <- r
	} else {
		d.hi <- r
	}
	return nil
}

// worker drains both lanes, always preferring the interactive one: a
// ready interactive request runs before any bulk request, and bulk is
// only taken when no interactive work is waiting. Receiving on a nil
// channel blocks forever, which is exactly the "this lane is closed and
// drained" behavior the local hi/lo copies want.
func (d *dispatcher) worker() {
	defer d.workers.Done()
	hi, lo := d.hi, d.lo
	for hi != nil || lo != nil {
		if hi != nil {
			select {
			case r, ok := <-hi:
				if !ok {
					hi = nil
					continue
				}
				d.run(r)
				continue
			default:
			}
		}
		select {
		case r, ok := <-hi:
			if !ok {
				hi = nil
				continue
			}
			d.run(r)
		case r, ok := <-lo:
			if !ok {
				lo = nil
				continue
			}
			d.run(r)
		}
	}
}

// run answers one dequeued request, exactly once: CodeExpired without a
// forward when its deadline has already passed (the waiter has been
// answered by its own deadline timer, so the work would be pure waste
// heat), otherwise one forward on r.plan. A panic anywhere inside fails
// this request with CodeInternal instead of killing the worker.
func (d *dispatcher) run(r *request) {
	var out outcome
	defer func() {
		if p := recover(); p != nil {
			out = outcome{err: &Error{Code: cloud.CodeInternal, Err: fmt.Errorf("forward: %v", p)}}
		}
		d.mu.Lock()
		d.queued--
		d.mu.Unlock()
		d.st.completed()
		r.done <- out
	}()
	start := time.Now()
	if start.After(r.deadline) {
		d.st.shedExpired()
		out.err = &Error{Code: cloud.CodeExpired,
			Err: fmt.Errorf("deadline passed %v before dequeue (expired in queue)", start.Sub(r.deadline))}
		return
	}
	if d.hookBeforeForward != nil {
		d.hookBeforeForward(r)
	}
	// r.x is read in place, not copied: the plan never mutates its input,
	// and the logits are fresh, so the waiter owns them. Server.infer
	// validated len(r.x) == d.sample.
	fwdStart := time.Now()
	out.logits = r.plan.InferSample(r.x)
	d.st.forwarded(start.Sub(r.enqueued), time.Since(fwdStart))
}

// close stops admission and waits for the workers to drain both lanes,
// so every admitted request is still answered.
func (d *dispatcher) close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	d.mu.Unlock()
	close(d.hi)
	close(d.lo)
	d.workers.Wait()
}
