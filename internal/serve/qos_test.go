package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"capnn/internal/cloud"
	"capnn/internal/core"
	"capnn/internal/nn"
	"capnn/internal/qos"
	"capnn/internal/tensor"
)

// Satellite regression: a queued request's timer derives from the
// client's propagated budget, not the server-wide RequestTimeout — a
// 50ms-budget client must get its typed expiry answer in ~50ms, not
// after the 30s server default. Expired is permanent, not retryable.
func TestClientBudgetBoundsQueueWait(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{
		Workers: 1, MaxQueue: 8, RequestTimeout: 30 * time.Second, DisableGuard: true,
	})
	defer srv.Close()
	prefs := core.Uniform([]int{0, 3})
	if _, err := srv.InferVariant(core.VariantW, prefs, f.sample(t, 0)); err != nil {
		t.Fatal(err) // warm cache so the timed request pays no personalize
	}

	release := make(chan struct{})
	var stall atomic.Bool
	var stalled sync.WaitGroup
	stalled.Add(1)
	var once sync.Once
	srv.gate.hookBeforeForward = func(*nn.Compiled, qos.Lane, []float64) {
		if !stall.Load() {
			return
		}
		once.Do(stalled.Done)
		<-release
	}
	stall.Store(true)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // occupies the single slot
		defer wg.Done()
		_, _ = srv.InferVariant(core.VariantW, prefs, f.sample(t, 1))
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
	if te.Code.Retryable() {
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
// it waits for a forward slot is answered with CodeExpired and its plan
// never reaches a forward.
func TestExpireInQueueNeverReachesForward(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{
		Workers: 1, MaxQueue: 8, RequestTimeout: 30 * time.Second, DisableGuard: true,
	})
	defer srv.Close()
	stallPrefs := core.Uniform([]int{0, 3})
	doomedPrefs := core.Uniform([]int{1, 2})
	if _, err := srv.InferVariant(core.VariantW, stallPrefs, f.sample(t, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.InferVariant(core.VariantW, doomedPrefs, f.sample(t, 0)); err != nil {
		t.Fatal(err)
	}

	var doomedPlan *nn.Compiled
	for _, e := range srv.cache.snapshot() {
		if e.key == string(core.VariantW)+"/"+doomedPrefs.Key() {
			doomedPlan = e.plan
		}
	}
	if doomedPlan == nil {
		t.Fatal("warm-up left the doomed entry without a compiled plan")
	}

	var forwarded sync.Map // plan -> true, for requests that reached a forward
	release := make(chan struct{})
	var stall atomic.Bool
	var stalled sync.WaitGroup
	stalled.Add(1)
	var once sync.Once
	srv.gate.hookBeforeForward = func(plan *nn.Compiled, _ qos.Lane, _ []float64) {
		forwarded.Store(plan, true)
		if !stall.Load() {
			return
		}
		once.Do(stalled.Done)
		<-release
	}
	stall.Store(true)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the stall request holds the only slot hostage
		defer wg.Done()
		_, _ = srv.InferVariant(core.VariantW, stallPrefs, f.sample(t, 1))
	}()
	stalled.Wait()
	stall.Store(false)

	// The doomed request's deadline dies while it sits queued behind the
	// stalled slot.
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
	time.Sleep(50 * time.Millisecond) // let the deadline age well past
	close(release)
	wg.Wait()
	srv.Close() // waits for every admitted caller

	if _, ok := forwarded.Load(doomedPlan); ok {
		t.Fatal("expired request reached a forward")
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
		Workers: 1, MaxQueue: 4, BulkQueueFraction: 0.5, // bulk sheds at 2 queued
		RequestTimeout: 5 * time.Second, DisableGuard: true,
	})
	prefs := core.Uniform([]int{0, 3})
	if _, err := srv.InferVariant(core.VariantW, prefs, f.sample(t, 0)); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var stall atomic.Bool
	var stalled sync.WaitGroup
	stalled.Add(1)
	var once sync.Once
	srv.gate.hookBeforeForward = func(*nn.Compiled, qos.Lane, []float64) {
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
	waitFor(t, 2*time.Second, func() bool { return srv.gate.depth() >= 2 }, "bulk queue to fill")

	_, err := srv.InferQoS(core.VariantW, prefs, f.sample(t, 2), bulk)
	var te *Error
	if !errors.As(err, &te) || te.Code != cloud.CodeOverQuota {
		t.Fatalf("bulk overflow got %v, want typed over-quota error", err)
	}
	if !te.Code.Retryable() {
		t.Fatal("over-quota must be retryable with backoff")
	}

	// Interactive traffic still owns the remaining headroom.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := srv.InferVariant(core.VariantW, prefs, f.sample(t, 3+i)); err != nil {
				t.Errorf("interactive request %d in bulk-saturated queue: %v", i, err)
			}
		}(i)
	}
	waitFor(t, 2*time.Second, func() bool { return srv.gate.depth() >= 4 }, "interactive headroom to fill")
	if _, err := srv.InferVariant(core.VariantW, prefs, f.sample(t, 5)); err == nil {
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

// TestWireQoSRoundTrip drives the QoS fields over real sockets: a valid
// bulk frame with budget and tenant serves normally, an unknown lane is
// malformed, and a negative budget is expired on arrival.
func TestWireQoSRoundTrip(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{DisableGuard: true})
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

}

// Only the tests call InferQoS; the wire path passes its QoS to infer
// directly.

// InferQoS is InferVariant with an explicit QoS envelope: the request
// waits for a forward slot no longer than its remaining deadline budget
// (capped by the server's RequestTimeout), and a bulk-lane request
// yields queue headroom and slot priority to interactive traffic.
func (s *Server) InferQoS(v core.Variant, prefs core.Preferences, x *tensor.Tensor, q QoS) (Result, error) {
	return s.infer(v, prefs, x.Data(), q)
}
