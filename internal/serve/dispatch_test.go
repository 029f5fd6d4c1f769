package serve

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"capnn/internal/cloud"
	"capnn/internal/core"
	"capnn/internal/nn"
	"capnn/internal/qos"
)

// Lane priority: with the only slot stalled and two bulk requests
// already waiting, an interactive request that arrives last still runs
// first once the slot frees up.
func TestInteractiveBeforeBulk(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{
		Workers: 1, MaxQueue: 8, BulkQueueFraction: 1,
		RequestTimeout: 30 * time.Second, DisableGuard: true,
	})
	defer srv.Close()
	prefs := core.Uniform([]int{0, 3})
	if _, err := srv.InferVariant(core.VariantW, prefs, f.sample(t, 0)); err != nil {
		t.Fatal(err) // warm cache: the ordered requests go straight to the queue
	}

	release := make(chan struct{})
	stalled := make(chan struct{})
	var stall atomic.Bool
	var mu sync.Mutex
	var order []qos.Lane
	srv.gate.hookBeforeForward = func(_ *nn.Compiled, lane qos.Lane, _ []float64) {
		if stall.CompareAndSwap(true, false) {
			close(stalled)
			<-release
			return
		}
		mu.Lock()
		order = append(order, lane)
		mu.Unlock()
	}
	stall.Store(true)

	var wg sync.WaitGroup
	enqueue := func(q QoS, depth int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := srv.InferQoS(core.VariantW, prefs, f.sample(t, depth), q); err != nil {
				t.Errorf("lane %v request: %v", q.Lane, err)
			}
		}()
		waitFor(t, 2*time.Second, func() bool { return srv.gate.depth() >= depth }, "request to be admitted")
	}
	enqueue(QoS{}, 1) // occupies the single slot
	<-stalled
	enqueue(QoS{Lane: qos.LaneBulk}, 2)
	enqueue(QoS{Lane: qos.LaneBulk}, 3)
	enqueue(QoS{}, 4)
	close(release)
	wg.Wait()

	want := []qos.Lane{qos.LaneInteractive, qos.LaneBulk, qos.LaneBulk}
	if !slices.Equal(order, want) {
		t.Fatalf("forward order %v, want %v: interactive must run before queued bulk", order, want)
	}
}

// The gate's bookkeeping under timeouts racing releases: callers on both
// lanes with 0–2ms budgets give up while slots are handed on. Every
// caller gets exactly one answer, and afterwards every slot is free and
// nobody is counted waiting or in flight.
func TestGateSlotsSurviveTimeouts(t *testing.T) {
	f := getFixture(t)
	prefs := core.Uniform([]int{0, 3})
	for _, workers := range []int{1, 2, 3} {
		srv := NewServerWith(f.sys, Config{
			Workers: workers, MaxQueue: 64, BulkQueueFraction: 1, DisableGuard: true,
		})
		if _, err := srv.InferVariant(core.VariantW, prefs, f.sample(t, 0)); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(workers)))
		hold := make([]time.Duration, 64)
		for i := range hold {
			hold[i] = time.Duration(rng.Intn(200)) * time.Microsecond
		}
		var held atomic.Int64
		srv.gate.hookBeforeForward = func(*nn.Compiled, qos.Lane, []float64) {
			time.Sleep(hold[held.Add(1)%int64(len(hold))])
		}
		const callers = 300
		x := f.sample(t, 1)
		var ok, expired, busy atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			lane, budget := qos.Lane(rng.Intn(2)), time.Duration(rng.Intn(2000))*time.Microsecond
			if i%10 == 0 {
				time.Sleep(100 * time.Microsecond)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, err := srv.InferQoS(core.VariantW, prefs, x, QoS{Lane: lane, Deadline: time.Now().Add(budget)})
				var te *Error
				switch {
				case err == nil:
					ok.Add(1)
				case errors.As(err, &te) && te.Code == cloud.CodeExpired:
					expired.Add(1)
				case errors.As(err, &te) && te.Code == cloud.CodeBusy:
					busy.Add(1)
				default:
					t.Errorf("workers=%d: caller got %v, want a Result, expired or busy", workers, err)
				}
			}()
		}
		wg.Wait()
		if n := ok.Load() + expired.Load() + busy.Load(); n != callers {
			t.Errorf("workers=%d: %d answers for %d callers", workers, n, callers)
		}
		g := srv.gate
		g.mu.Lock()
		free, waiting, queued, handed := g.free, g.waiting, g.queued, len(g.handoff[0])+len(g.handoff[1])
		g.mu.Unlock()
		if free != workers || waiting != [2]int{} || queued != 0 || handed != 0 {
			t.Errorf("workers=%d: free=%d waiting=%v queued=%d handed=%d, want every slot free and nothing counted",
				workers, free, waiting, queued, handed)
		}
		srv.Close()
		if st := srv.Stats(); st.Requests != st.Completed || st.QueueDepth != 0 {
			t.Errorf("workers=%d: requests %d, completed %d, depth %d", workers, st.Requests, st.Completed, st.QueueDepth)
		}
		t.Logf("workers=%d: ok=%d expired=%d busy=%d", workers, ok.Load(), expired.Load(), busy.Load())
	}
}

// Exactly-once across close: callers hammer Infer while Shutdown runs.
// Every call returns a Result or a typed busy (draining) / internal
// (closed) error, none hangs, and every admitted request was answered.
func TestExactlyOnceAcrossShutdown(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{DisableGuard: true})
	prefs := core.Uniform([]int{1, 2})
	if _, err := srv.InferVariant(core.VariantW, prefs, f.sample(t, 0)); err != nil {
		t.Fatal(err)
	}

	var served atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				_, err := srv.InferVariant(core.VariantW, prefs, f.sample(t, (g+i)%8))
				if err == nil {
					served.Add(1)
					continue
				}
				var te *Error
				if !errors.As(err, &te) || (te.Code != cloud.CodeBusy && te.Code != cloud.CodeInternal) {
					t.Errorf("caller %d got %v, want a Result or a typed busy/internal error", g, err)
				}
				return
			}
		}(g)
	}
	waitFor(t, 5*time.Second, func() bool { return served.Load() >= 200 }, "load to be mid-flight")
	if err := srv.Shutdown(10 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	callers := make(chan struct{})
	go func() { wg.Wait(); close(callers) }()
	select {
	case <-callers:
	case <-time.After(10 * time.Second):
		t.Fatal("a caller is still blocked after Shutdown returned: an admitted request was never answered")
	}
	st := srv.Stats()
	if st.Completed != st.Requests {
		t.Fatalf("completed %d != requests %d after shutdown", st.Completed, st.Requests)
	}
	if st.Requests < served.Load() {
		t.Fatalf("requests %d < served %d", st.Requests, served.Load())
	}
}

// No hold stage: on an idle warm server a request takes a free slot at
// once, so the median queue wait is a lock — far below what any
// timer-driven hold would cost.
func TestNoHoldStage(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{DisableGuard: true})
	defer srv.Close()
	prefs := core.Uniform([]int{0, 2})
	for i := 0; i < 200; i++ {
		if _, err := srv.InferVariant(core.VariantW, prefs, f.sample(t, i%8)); err != nil {
			t.Fatal(err)
		}
	}
	wait := srv.st.waitH.Snapshot()
	if wait.Count != 200 {
		t.Fatalf("queue-wait observations %d, want 200", wait.Count)
	}
	if p50 := time.Duration(wait.Quantile(0.5)); p50 >= 500*time.Microsecond {
		t.Fatalf("idle-server queue-wait p50 = %v, want < 500µs: something is holding requests back", p50)
	}
}

// The dispatch path owns no timers: a request is never parked waiting
// for one to fire.
func TestNoAfterFuncInServe(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("glob: %v (%d files)", err, len(files))
	}
	needle := []byte("time." + "AfterFunc")
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(src, needle) {
			t.Errorf("%s uses %s", name, needle)
		}
	}
}
