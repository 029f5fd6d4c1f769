package serve

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"capnn/internal/cloud"
	"capnn/internal/core"
	"capnn/internal/qos"
)

// Lane priority: with the only worker stalled and two bulk requests
// already queued, an interactive request that arrives last still runs
// first once the worker frees up.
func TestInteractiveBeforeBulk(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{
		Variant: core.VariantW, Workers: 1, MaxQueue: 8, BulkQueueFraction: 1,
		RequestTimeout: 30 * time.Second, DisableGuard: true,
	})
	defer srv.Close()
	prefs := core.Uniform([]int{0, 3})
	if _, err := srv.Infer(prefs, f.sample(t, 0)); err != nil {
		t.Fatal(err) // warm cache: the ordered requests go straight to the queue
	}

	release := make(chan struct{})
	stalled := make(chan struct{})
	var stall atomic.Bool
	var mu sync.Mutex
	var order []qos.Lane
	srv.disp.hookBeforeForward = func(r *request) {
		if stall.CompareAndSwap(true, false) {
			close(stalled)
			<-release
			return
		}
		mu.Lock()
		order = append(order, r.lane)
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
		waitFor(t, 2*time.Second, func() bool { return srv.disp.depth() >= depth }, "request to be admitted")
	}
	enqueue(QoS{}, 1) // occupies the single worker
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

// Exactly-once across close: callers hammer Infer while Shutdown runs.
// Every call returns a Result or a typed busy (draining) / internal
// (closed) error, none hangs, and every admitted request was answered.
func TestExactlyOnceAcrossShutdown(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{Variant: core.VariantW, DisableGuard: true})
	prefs := core.Uniform([]int{1, 2})
	if _, err := srv.Infer(prefs, f.sample(t, 0)); err != nil {
		t.Fatal(err)
	}

	var served atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				_, err := srv.Infer(prefs, f.sample(t, (g+i)%8))
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

// No hold stage: on an idle warm server a request waits only for a
// worker to pick it up, so the median queue wait is a goroutine
// hand-off — far below what any timer-driven hold would cost.
func TestNoHoldStage(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{Variant: core.VariantW, DisableGuard: true})
	defer srv.Close()
	prefs := core.Uniform([]int{0, 2})
	for i := 0; i < 200; i++ {
		if _, err := srv.Infer(prefs, f.sample(t, i%8)); err != nil {
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
