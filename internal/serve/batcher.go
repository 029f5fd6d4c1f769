package serve

import (
	"fmt"
	"sync"
	"time"

	"capnn/internal/cloud"
	"capnn/internal/nn"
	"capnn/internal/qos"
	"capnn/internal/tensor"
)

// unprunedKey is the shared group key for traffic served through the
// unpruned network (ε-guard fallback and shadow samples). It cannot
// collide with a mask key: those are always "variant/hash".
const unprunedKey = "!unpruned"

// bulkKeyPrefix lane-qualifies a bulk request's group key so interactive
// and bulk traffic for the same personalization never share a flush:
// their deadline profiles differ, and mixing them would let one bulk
// straggler ride (and delay) an interactive batch. The prefix cannot
// collide with a mask key ("variant/hash") or unprunedKey.
const bulkKeyPrefix = "!bulk|"

// request is one admitted inference riding the batcher: its input
// sample (flattened [C,H,W]), the group key and the compiled plan it
// forwards on (captured at admission: its entry's, or the server's
// unpruned one), its QoS envelope, and the channel its outcome lands on
// (buffered; the flusher never blocks).
type request struct {
	gkey     string
	plan     *nn.Compiled
	x        []float64
	enqueued time.Time
	// deadline is the request's effective absolute deadline (client
	// budget capped by the server's RequestTimeout; never zero). The
	// batcher schedules EDF flushes from it and sheds the request —
	// expire-in-queue — when it passes before the flush runs.
	deadline time.Time
	lane     qos.Lane
	done     chan outcome
}

type outcome struct {
	logits []float64
	batch  int // size of the group this request was flushed in
	err    error
}

// group is the pending micro-batch for one (lane, mask key). Its timer
// fires the EDF flush; dispatching marks it flushed so racing paths
// (timer vs MaxBatch vs an earlier re-arm) become no-ops.
type group struct {
	gkey    string
	plan    *nn.Compiled // the first member's; every member's plan for one key computes the same function
	lane    qos.Lane
	reqs    []*request
	timer   *time.Timer
	flushAt time.Time // earliest member's EDF flush point
	flushed bool
}

// edfFlushAt computes when a single request wants its group flushed:
// early enough that the batched forward — estimated from the observed
// per-stage latency stats, padded by slack — still completes inside the
// request's deadline, but never later than the MaxWait tail-latency
// bound. This is the earliest-deadline-first rule: a group's flush point
// is the minimum of its members' values, so the most urgent member
// drives the flush. Pure function of its inputs, so tests judge it on a
// fake clock.
func edfFlushAt(enqueued, deadline time.Time, maxWait, estimate, slack time.Duration) time.Time {
	at := enqueued.Add(maxWait)
	if byDeadline := deadline.Add(-estimate - slack); byDeadline.Before(at) {
		at = byDeadline
	}
	if at.Before(enqueued) {
		// Already urgent (tiny remaining budget): flush immediately
		// rather than scheduling into the past.
		return enqueued
	}
	return at
}

// batcher queues admitted requests, groups them by (lane, mask key), and
// flushes each group — when it reaches maxBatch or its EDF timer fires —
// through a fixed worker pool that runs one batched forward per group
// on its plan. Workers drain the interactive lane first; bulk groups wait
// whenever interactive work is ready. Admission is bounded: more than
// maxQueue requests in flight and submit sheds with CodeBusy; bulk
// requests yield earlier, shedding with CodeOverQuota once the queue
// passes the bulk threshold. A request whose deadline passes while
// queued is answered with CodeExpired at flush time and never reaches a
// forward.
type batcher struct {
	sample   int // flattened per-sample input length
	inShape  []int
	maxBatch int
	maxWait  time.Duration
	maxQueue int
	bulkMax  int // bulk lane's queue threshold (≤ maxQueue)
	edfSlack time.Duration
	st       *stats
	now      func() time.Time // injectable for tests

	mu      sync.Mutex
	pending map[string]*group
	queued  int // admitted, not yet completed
	closed  bool

	flushHi chan *group // interactive lane
	flushLo chan *group // bulk lane
	workers sync.WaitGroup

	// hookBeforeFlush, when set by tests, runs in the worker just before
	// the batched forward — a place to stall the pool deterministically.
	hookBeforeFlush func(*group)
}

func newBatcher(inShape []int, maxBatch int, maxWait time.Duration, maxQueue, bulkMax, workers int, edfSlack time.Duration, st *stats) *batcher {
	per := 1
	for _, d := range inShape {
		per *= d
	}
	b := &batcher{
		sample:   per,
		inShape:  append([]int(nil), inShape...),
		maxBatch: maxBatch,
		maxWait:  maxWait,
		maxQueue: maxQueue,
		bulkMax:  bulkMax,
		edfSlack: edfSlack,
		st:       st,
		now:      time.Now,
		pending:  map[string]*group{},
		// Undrained groups never outnumber queued requests, and queued is
		// capped at maxQueue — so maxQueue-deep buffers let dispatchers
		// send while holding b.mu without ever blocking. Sending under
		// the lock is what makes close() safe: once close() has swept
		// pending under the lock, no later sender can race the channel
		// close.
		flushHi: make(chan *group, maxQueue),
		flushLo: make(chan *group, maxQueue),
	}
	for i := 0; i < workers; i++ {
		b.workers.Add(1)
		go b.worker()
	}
	return b
}

// depth reports admitted-but-uncompleted requests (the queue gauge).
func (b *batcher) depth() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.queued
}

// submit queues one request, flushing its group if that fills it.
// The returned error is a typed *Error (busy, over-quota or closed); on
// success the caller waits on r.done.
func (b *batcher) submit(r *request) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return &Error{Code: cloud.CodeInternal, Err: fmt.Errorf("server closed")}
	}
	if b.queued >= b.maxQueue {
		b.mu.Unlock()
		b.st.shedQueueFull()
		return &Error{Code: cloud.CodeBusy, Err: fmt.Errorf("queue full (%d in flight), retry with backoff", b.maxQueue)}
	}
	if r.lane == qos.LaneBulk && b.queued >= b.bulkMax {
		// Bulk yields under pressure: interactive traffic may still use
		// the remaining queue headroom, bulk backs off now.
		b.mu.Unlock()
		b.st.shedOverQuota()
		return &Error{Code: cloud.CodeOverQuota,
			Err: fmt.Errorf("bulk lane yielding (%d of %d queue slots in use), retry with backoff", b.bulkMax, b.maxQueue)}
	}
	b.queued++
	key := r.gkey
	if r.lane == qos.LaneBulk {
		key = bulkKeyPrefix + key
	}
	reqFlushAt := edfFlushAt(r.enqueued, r.deadline, b.maxWait, b.st.forwardEstimate(), b.edfSlack)
	g, ok := b.pending[key]
	if !ok {
		g = &group{gkey: key, plan: r.plan, lane: r.lane, flushAt: reqFlushAt}
		b.pending[key] = g
		g.timer = time.AfterFunc(time.Until(reqFlushAt), func() { b.flushKey(key, g) })
	} else if reqFlushAt.Before(g.flushAt) {
		// EDF re-arm: this member is more urgent than the group's current
		// flush point. flushKey is idempotent (detachLocked), so the old
		// firing racing the new one is harmless.
		g.flushAt = reqFlushAt
		g.timer.Stop()
		g.timer = time.AfterFunc(time.Until(reqFlushAt), func() { b.flushKey(key, g) })
	}
	g.reqs = append(g.reqs, r)
	if len(g.reqs) >= b.maxBatch {
		if full := b.detachLocked(key, g); full != nil {
			b.dispatchLocked(full)
		}
	}
	b.mu.Unlock()
	return nil
}

// flushKey is the EDF/MaxWait timer path: flush g if it is still pending.
func (b *batcher) flushKey(key string, g *group) {
	b.mu.Lock()
	if detached := b.detachLocked(key, g); detached != nil {
		b.dispatchLocked(detached)
	}
	b.mu.Unlock()
}

// detachLocked removes g from pending and claims it for dispatch; nil if
// another path (timer vs full-batch) already did. Caller holds b.mu.
func (b *batcher) detachLocked(key string, g *group) *group {
	if g.flushed {
		return nil
	}
	g.flushed = true
	if g.timer != nil {
		g.timer.Stop()
	}
	delete(b.pending, key)
	return g
}

// dispatchLocked sends a detached group to its lane's flush channel.
// Caller holds b.mu; the buffers are sized so this never blocks.
func (b *batcher) dispatchLocked(g *group) {
	if g.lane == qos.LaneBulk {
		b.flushLo <- g
	} else {
		b.flushHi <- g
	}
}

// worker drains flushed groups, always preferring the interactive lane:
// a ready interactive group runs before any bulk group, and bulk is
// only taken when no interactive work is waiting. Receiving on a nil
// channel blocks forever, which is exactly the "this lane is closed and
// drained" behavior the local hi/lo copies want.
func (b *batcher) worker() {
	defer b.workers.Done()
	hi, lo := b.flushHi, b.flushLo
	for hi != nil || lo != nil {
		if hi != nil {
			select {
			case g, ok := <-hi:
				if !ok {
					hi = nil
					continue
				}
				b.runGroup(g)
				continue
			default:
			}
		}
		select {
		case g, ok := <-hi:
			if !ok {
				hi = nil
				continue
			}
			b.runGroup(g)
		case g, ok := <-lo:
			if !ok {
				lo = nil
				continue
			}
			b.runGroup(g)
		}
	}
}

// runGroup sheds expired members, executes one batched forward over the
// survivors on g.plan, and fans the logits out. The expiry check is what
// guarantees no request past its deadline ever reaches a forward: the
// waiter has already been answered by its own deadline timer, so the
// work would be pure waste heat. A panic anywhere inside fails the
// group's requests with CodeInternal instead of killing the worker.
func (b *batcher) runGroup(g *group) {
	flushStart := b.now()
	live := g.reqs[:0]
	for _, req := range g.reqs {
		if flushStart.After(req.deadline) {
			b.st.shedExpired()
			req.done <- outcome{err: &Error{Code: cloud.CodeExpired,
				Err: fmt.Errorf("deadline passed %v before flush (expired in queue)", flushStart.Sub(req.deadline))}}
			b.st.completed()
			continue
		}
		live = append(live, req)
	}
	expired := len(g.reqs) - len(live)
	g.reqs = live
	defer func() {
		b.mu.Lock()
		b.queued -= len(g.reqs) + expired
		b.mu.Unlock()
		if r := recover(); r != nil {
			err := &Error{Code: cloud.CodeInternal, Err: fmt.Errorf("batch forward: %v", r)}
			for _, req := range g.reqs {
				req.done <- outcome{err: err}
			}
			for range g.reqs {
				b.st.completed()
			}
		}
	}()
	if len(g.reqs) == 0 {
		return // every member expired in queue: no forward at all
	}
	if b.hookBeforeFlush != nil {
		b.hookBeforeFlush(g)
	}

	n := len(g.reqs)
	waits := make([]time.Duration, n)
	batch := tensor.New(append([]int{n}, b.inShape...)...)
	bd := batch.Data()
	for i, req := range g.reqs {
		copy(bd[i*b.sample:(i+1)*b.sample], req.x)
		waits[i] = flushStart.Sub(req.enqueued)
	}

	fwdStart := time.Now()
	out := g.plan.Infer(batch)
	b.st.flushed(n, waits, time.Since(fwdStart))

	classes := out.Dim(1)
	od := out.Data()
	for i, req := range g.reqs {
		logits := make([]float64, classes)
		copy(logits, od[i*classes:(i+1)*classes])
		req.done <- outcome{logits: logits, batch: n}
		b.st.completed()
	}
}

// close stops admission, flushes every pending group so no admitted
// request is stranded, and waits for the workers to drain both lanes.
func (b *batcher) close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	for key, g := range b.pending {
		if d := b.detachLocked(key, g); d != nil {
			b.dispatchLocked(d)
		}
	}
	b.mu.Unlock()
	close(b.flushHi)
	close(b.flushLo)
	b.workers.Wait()
}
