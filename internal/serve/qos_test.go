package serve

import (
	"encoding/gob"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"capnn/internal/cloud"
	"capnn/internal/core"
	"capnn/internal/qos"
)

// TestEDFFlushAt pins the earliest-deadline-first flush rule on a fake
// clock: MaxWait binds for relaxed deadlines, the deadline (minus
// service estimate and slack) binds for tight ones, and an already-
// urgent request flushes immediately instead of being scheduled into
// the past.
func TestEDFFlushAt(t *testing.T) {
	t0 := time.Unix(1700000000, 0)
	maxWait := 2 * time.Millisecond
	slack := 500 * time.Microsecond
	for _, tc := range []struct {
		name     string
		deadline time.Time
		estimate time.Duration
		want     time.Time
	}{
		{"relaxed deadline: MaxWait binds", t0.Add(time.Second), time.Millisecond, t0.Add(maxWait)},
		{"tight deadline binds", t0.Add(3 * time.Millisecond), time.Millisecond, t0.Add(3*time.Millisecond - time.Millisecond - slack)},
		{"no estimate yet: deadline minus slack", t0.Add(time.Millisecond), 0, t0.Add(time.Millisecond - slack)},
		{"already urgent: flush now, not in the past", t0.Add(time.Millisecond), 5 * time.Millisecond, t0},
		{"deadline already behind: flush now", t0.Add(-time.Millisecond), 0, t0},
	} {
		if got := edfFlushAt(t0, tc.deadline, maxWait, tc.estimate, slack); !got.Equal(tc.want) {
			t.Errorf("%s: edfFlushAt = %v, want %v", tc.name, got.Sub(t0), tc.want.Sub(t0))
		}
	}
}

// A group's flush point is its most urgent member's: a tight-deadline
// request joining an existing relaxed group must re-arm the timer
// earlier, observable end to end as a sub-MaxWait round trip.
func TestEDFFlushBeatsMaxWait(t *testing.T) {
	f := getFixture(t)
	// MaxWait is deliberately huge: only the deadline-driven EDF path
	// can answer inside the assertion window. The slack puts the flush
	// point 2.5s ahead of the 3s deadline, so even a loaded 2-core box
	// answers before the waiter's own expiry timer fires.
	srv := NewServerWith(f.sys, Config{
		Variant: core.VariantW, MaxBatch: 64, MaxWait: 10 * time.Second,
		EDFSlack: 2500 * time.Millisecond, RequestTimeout: 30 * time.Second, DisableGuard: true,
	})
	defer srv.Close()
	prefs := core.Uniform([]int{0, 1})
	if _, err := srv.InferQoS(core.VariantW, prefs, f.sample(t, 0),
		QoS{Deadline: time.Now().Add(3 * time.Second)}); err != nil {
		t.Fatal(err) // warm the cache; the budget still flushes ≪ MaxWait
	}
	start := time.Now()
	res, err := srv.InferQoS(core.VariantW, prefs, f.sample(t, 1),
		QoS{Deadline: time.Now().Add(3 * time.Second)})
	if err != nil {
		t.Fatalf("tight-budget request failed: %v", err)
	}
	if lat := time.Since(start); lat >= 5*time.Second {
		t.Fatalf("request took %v; EDF should flush inside its 3s budget, far before MaxWait=10s", lat)
	}
	if res.Batch < 1 {
		t.Fatalf("bad batch size %d", res.Batch)
	}
}

// Satellite regression: a queued request's timer derives from the
// client's propagated budget, not the server-wide RequestTimeout — a
// 50ms-budget client must get its typed expiry answer in ~50ms, not
// after the 30s server default. Expired is permanent, not retryable.
func TestClientBudgetBoundsQueueWait(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{
		Variant: core.VariantW, MaxBatch: 1, MaxWait: time.Millisecond,
		Workers: 1, MaxQueue: 8, RequestTimeout: 30 * time.Second, DisableGuard: true,
	})
	defer srv.Close()
	prefs := core.Uniform([]int{0, 3})
	if _, err := srv.Infer(prefs, f.sample(t, 0)); err != nil {
		t.Fatal(err) // warm cache so the timed request pays no personalize
	}

	release := make(chan struct{})
	var stall atomic.Bool
	var stalled sync.WaitGroup
	stalled.Add(1)
	var once sync.Once
	srv.batch.hookBeforeFlush = func(*group) {
		if !stall.Load() {
			return
		}
		once.Do(stalled.Done)
		<-release
	}
	stall.Store(true)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // occupies the single worker
		defer wg.Done()
		_, _ = srv.Infer(prefs, f.sample(t, 1))
	}()
	stalled.Wait()

	start := time.Now()
	_, err := srv.InferQoS(core.VariantW, prefs, f.sample(t, 2),
		QoS{Deadline: time.Now().Add(50 * time.Millisecond)})
	waited := time.Since(start)
	var te *Error
	if !errors.As(err, &te) || te.Code != cloud.CodeExpired {
		t.Fatalf("budget-bound queued request got %v, want typed expired error", err)
	}
	if te.Retryable() {
		t.Fatal("expired must not be retryable: the caller's deadline is gone everywhere")
	}
	if waited > 5*time.Second {
		t.Fatalf("waited %v for a 50ms budget — timer still derives from the server RequestTimeout", waited)
	}
	close(release)
	wg.Wait()
	srv.Close()
	if st := srv.Stats(); st.ShedExpired == 0 {
		t.Fatalf("expired shed not counted: %+v", st)
	}
}

// The expire-in-queue guarantee: a request whose deadline passes while
// its group waits for a worker is answered with CodeExpired at flush
// time and its group key never reaches a batched forward.
func TestExpireInQueueNeverReachesForward(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{
		Variant: core.VariantW, MaxBatch: 1, MaxWait: time.Millisecond,
		Workers: 1, MaxQueue: 8, RequestTimeout: 30 * time.Second, DisableGuard: true,
	})
	defer srv.Close()
	stallPrefs := core.Uniform([]int{0, 3})
	doomedPrefs := core.Uniform([]int{1, 2})
	if _, err := srv.Infer(stallPrefs, f.sample(t, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Infer(doomedPrefs, f.sample(t, 0)); err != nil {
		t.Fatal(err)
	}

	var forwarded sync.Map // group key -> true, for groups that reached a forward
	release := make(chan struct{})
	var stall atomic.Bool
	var stalled sync.WaitGroup
	stalled.Add(1)
	var once sync.Once
	srv.batch.hookBeforeFlush = func(g *group) {
		forwarded.Store(g.gkey, true)
		if !stall.Load() {
			return
		}
		once.Do(stalled.Done)
		<-release
	}
	stall.Store(true)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the stall group holds the only worker hostage
		defer wg.Done()
		_, _ = srv.Infer(stallPrefs, f.sample(t, 1))
	}()
	stalled.Wait()
	stall.Store(false)

	// The doomed request's deadline dies while its group sits dispatched
	// behind the stalled worker.
	errCh := make(chan error, 1)
	go func() {
		_, err := srv.InferQoS(core.VariantW, doomedPrefs, f.sample(t, 2),
			QoS{Deadline: time.Now().Add(30 * time.Millisecond)})
		errCh <- err
	}()
	err := <-errCh
	var te *Error
	if !errors.As(err, &te) || te.Code != cloud.CodeExpired {
		t.Fatalf("doomed request got %v, want typed expired error", err)
	}
	time.Sleep(50 * time.Millisecond) // let the deadline age past the flush point
	close(release)
	wg.Wait()
	srv.Close() // drains: the doomed group is force-flushed, post-expiry

	doomedKey := string(core.VariantW) + "/" + doomedPrefs.Key()
	if _, ok := forwarded.Load(doomedKey); ok {
		t.Fatalf("expired group %q reached a batched forward", doomedKey)
	}
	if st := srv.Stats(); st.ShedExpired == 0 {
		t.Fatalf("expire-in-queue not counted: %+v", st)
	}
}

// Bulk yields under pressure: past the bulk queue threshold new bulk
// requests shed with retryable over-quota while interactive traffic
// still uses the remaining headroom, and the counters attribute each
// shed to its reason.
func TestBulkLaneYieldsQueueHeadroom(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{
		Variant: core.VariantW, MaxBatch: 1, MaxWait: time.Millisecond,
		Workers: 1, MaxQueue: 4, BulkQueueFraction: 0.5, // bulk sheds at 2 queued
		RequestTimeout: 5 * time.Second, DisableGuard: true,
	})
	prefs := core.Uniform([]int{0, 3})
	if _, err := srv.Infer(prefs, f.sample(t, 0)); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var stall atomic.Bool
	var stalled sync.WaitGroup
	stalled.Add(1)
	var once sync.Once
	srv.batch.hookBeforeFlush = func(*group) {
		if !stall.Load() {
			return
		}
		once.Do(stalled.Done)
		<-release
	}
	stall.Store(true)

	bulk := QoS{Lane: qos.LaneBulk}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ { // fill the bulk allowance
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := srv.InferQoS(core.VariantW, prefs, f.sample(t, i), bulk); err != nil {
				t.Errorf("bulk request %d within allowance: %v", i, err)
			}
		}(i)
	}
	stalled.Wait()
	waitFor(t, 2*time.Second, func() bool { return srv.batch.depth() >= 2 }, "bulk queue to fill")

	_, err := srv.InferQoS(core.VariantW, prefs, f.sample(t, 2), bulk)
	var te *Error
	if !errors.As(err, &te) || te.Code != cloud.CodeOverQuota {
		t.Fatalf("bulk overflow got %v, want typed over-quota error", err)
	}
	if !te.Retryable() {
		t.Fatal("over-quota must be retryable with backoff")
	}

	// Interactive traffic still owns the remaining headroom.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := srv.Infer(prefs, f.sample(t, 3+i)); err != nil {
				t.Errorf("interactive request %d in bulk-saturated queue: %v", i, err)
			}
		}(i)
	}
	waitFor(t, 2*time.Second, func() bool { return srv.batch.depth() >= 4 }, "interactive headroom to fill")
	if _, err := srv.Infer(prefs, f.sample(t, 5)); err == nil {
		t.Fatal("request past MaxQueue admitted")
	}

	close(release)
	wg.Wait()
	srv.Close()
	st := srv.Stats()
	if st.ShedOverQuota == 0 {
		t.Fatalf("over-quota shed not counted: %+v", st)
	}
	if st.ShedQueueFull == 0 {
		t.Fatalf("queue-full shed not counted: %+v", st)
	}
}

// TestWireQoSRoundTrip drives the v2 QoS fields over real sockets: a
// valid bulk frame with budget and tenant serves normally, an unknown
// lane is malformed, a negative budget is expired on arrival, and a
// byte-faithful v1 frame (encoded from a struct without the QoS fields)
// still decodes and serves — the gob zero-value compatibility the fuzz
// corpus seeds pin.
func TestWireQoSRoundTrip(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{MaxWait: time.Millisecond, DisableGuard: true})
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(addr)
	x, _ := f.sets.Test.Batch([]int{0})

	resp, err := c.Infer(WireRequest{
		Version: cloud.ProtocolVersion, Classes: []int{0, 2}, Input: x.Data(),
		BudgetMicros: (2 * time.Second).Microseconds(), Tenant: "batch", Lane: int(qos.LaneBulk),
	})
	if err != nil || resp.Code != cloud.CodeOK {
		t.Fatalf("bulk QoS frame: %v / %+v", err, resp)
	}

	_, err = c.Infer(WireRequest{
		Version: cloud.ProtocolVersion, Classes: []int{0, 2}, Input: x.Data(), Lane: 7,
	})
	var te *Error
	if !errors.As(err, &te) || te.Code != cloud.CodeBadRequest {
		t.Fatalf("unknown lane got %v, want typed bad-request error", err)
	}

	_, err = c.Infer(WireRequest{
		Version: cloud.ProtocolVersion, Classes: []int{0, 2}, Input: x.Data(), BudgetMicros: -50,
	})
	if !errors.As(err, &te) || te.Code != cloud.CodeExpired {
		t.Fatalf("negative budget got %v, want typed expired error", err)
	}
	if st := srv.Stats(); st.ShedExpired == 0 {
		t.Fatalf("arrival expiry not counted: %+v", st)
	}

	// v1 frame: same field names minus the QoS trio. Gob matches fields
	// by name, so this decodes with zero QoS — interactive, no deadline.
	type legacyWireRequest struct {
		Version int
		Op      Op
		Variant string
		Classes []int
		Weights []float64
		Input   []float64
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := gob.NewEncoder(conn).Encode(&legacyWireRequest{
		Version: 1, Classes: []int{0, 2}, Input: x.Data(),
	}); err != nil {
		t.Fatal(err)
	}
	var legacyResp WireResponse
	if err := gob.NewDecoder(conn).Decode(&legacyResp); err != nil {
		t.Fatal(err)
	}
	if legacyResp.Code != cloud.CodeOK {
		t.Fatalf("v1 frame rejected: [%s] %s", legacyResp.Code, legacyResp.Err)
	}
}
