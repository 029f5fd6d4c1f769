package serve

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"capnn/internal/cloud"
	"capnn/internal/core"
	"capnn/internal/data"
	"capnn/internal/nn"
	"capnn/internal/tensor"
	"capnn/internal/train"
)

type fixture struct {
	sys  *core.System
	sets *data.Sets
}

var (
	fixOnce sync.Once
	fix     *fixture
	fixErr  error
)

// getFixture trains the same tiny reference model the cloud tests use:
// big enough to have prunable structure, small enough to train in
// seconds and cache across tests.
func getFixture(t testing.TB) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		gen, err := data.NewGenerator(data.SynthConfig{Classes: 4, Groups: 2, H: 12, W: 12, GroupMix: 0.5, NoiseStd: 0.3, MaxShift: 1, Seed: 51})
		if err != nil {
			fixErr = err
			return
		}
		sets := data.MakeSets(gen, data.SetSizes{TrainPerClass: 15, ValPerClass: 8, TestPerClass: 8, ProfilePerClass: 10})
		net := nn.NewBuilder(1, 12, 12, 61).
			Conv(6).ReLU().Pool().
			Conv(8).ReLU().Pool().
			Flatten().Dense(12).ReLU().Dense(4).MustBuild()
		tc := train.Config{Epochs: 8, BatchSize: 10, LR: 0.05, Momentum: 0.9, Seed: 5}
		if _, err := train.Train(net, sets.Train, nil, tc); err != nil {
			fixErr = err
			return
		}
		params := core.DefaultParams()
		params.Epsilon = 0.1
		sys, err := core.NewSystem(net, sets.Val, sets.Profile, nil, params)
		if err != nil {
			fixErr = err
			return
		}
		fix = &fixture{sys: sys, sets: sets}
	})
	if fixErr != nil {
		t.Fatalf("fixture: %v", fixErr)
	}
	return fix
}

// sample returns test image i as a per-sample tensor.
func (f *fixture) sample(t testing.TB, i int) *tensor.Tensor {
	t.Helper()
	x, _ := f.sets.Test.Batch([]int{i})
	shape := x.Shape()
	return x.MustReshape(shape[1:]...)
}

// Serving must produce exactly the logits of a reference masked forward
// under the same personalization.
func TestServeMatchesMaskedForward(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{Variant: core.VariantW})
	defer srv.Close()

	prefs := core.Uniform([]int{0, 2})
	res, err := srv.Infer(prefs, f.sample(t, 3))
	if err != nil {
		t.Fatal(err)
	}

	masks, err := f.sys.Prune(core.VariantW, prefs)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := f.sets.Test.Batch([]int{3})
	want := f.sys.Net.Infer(x, masks)
	if len(res.Logits) != want.Dim(1) {
		t.Fatalf("logit count %d, want %d", len(res.Logits), want.Dim(1))
	}
	for i, w := range want.Data() {
		if math.Abs(w-res.Logits[i]) > 1e-12 {
			t.Fatalf("logit %d: served %v, reference %v", i, res.Logits[i], w)
		}
	}
	if res.Class != tensor.Argmax(want.Data()) {
		t.Fatalf("class %d, want %d", res.Class, tensor.Argmax(want.Data()))
	}
}

// Acceptance criterion: 16 concurrent first-requests with identical
// preferences run exactly one Personalize; the other 15 join the flight.
func TestSingleflightCollapse(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{Variant: core.VariantW})
	defer srv.Close()
	var personalizes atomic.Int64
	srv.hookPersonalize = func(core.Preferences) { personalizes.Add(1) }

	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Permuted classes and scaled weights on purpose: the canonical
			// key must collapse them all onto one personalization.
			var prefs core.Preferences
			var err error
			if i%2 == 0 {
				prefs, err = core.Weighted([]int{1, 3}, []float64{0.5, 0.5})
			} else {
				prefs, err = core.Weighted([]int{3, 1}, []float64{2, 2})
			}
			if err != nil {
				errs[i] = err
				return
			}
			_, errs[i] = srv.Infer(prefs, f.sample(t, i%8))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got := personalizes.Load(); got != 1 {
		t.Fatalf("16 concurrent identical-preference requests ran %d personalizations, want 1", got)
	}
	st := srv.Stats()
	if st.CacheMisses != 1 {
		t.Fatalf("cache misses %d, want 1", st.CacheMisses)
	}
	if st.CacheHits+st.SingleflightShared != n-1 {
		t.Fatalf("hits %d + shared %d, want %d combined", st.CacheHits, st.SingleflightShared, n-1)
	}
	if st.Completed != n {
		t.Fatalf("completed %d, want %d", st.Completed, n)
	}
}

// Admission control: with the workers stalled and the queue full, new
// requests shed immediately with the typed busy code, exactly like the
// cloud server's in-flight limit.
func TestBusySheddingWhenQueueFull(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{
		Variant: core.VariantW, Workers: 1, MaxQueue: 2, RequestTimeout: 5 * time.Second,
	})
	prefs := core.Uniform([]int{0, 3})
	release := make(chan struct{})
	var stall atomic.Bool
	var stalled sync.WaitGroup
	stalled.Add(1)
	var once sync.Once
	srv.disp.hookBeforeForward = func(*request) {
		if !stall.Load() {
			return
		}
		once.Do(stalled.Done)
		<-release
	}
	if _, err := srv.Infer(prefs, f.sample(t, 0)); err != nil { // warm cache
		t.Fatal(err)
	}
	stall.Store(true)

	// Fill the queue: these block in the stalled worker / channel.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := srv.Infer(prefs, f.sample(t, i)); err != nil {
				t.Errorf("queued request %d: %v", i, err)
			}
		}(i)
	}
	stalled.Wait() // worker is inside a forward; queue holds the rest

	waitFor(t, 2*time.Second, func() bool { return srv.disp.depth() >= 2 }, "queue to fill")
	_, err := srv.Infer(prefs, f.sample(t, 3))
	var te *Error
	if !errors.As(err, &te) || te.Code != cloud.CodeBusy {
		t.Fatalf("overflow request got %v, want typed busy error", err)
	}
	if !te.Retryable() {
		t.Fatal("busy must be retryable")
	}
	close(release)
	wg.Wait()
	srv.Close()
	if st := srv.Stats(); st.Shed == 0 {
		t.Fatalf("stats recorded no shed requests: %+v", st)
	}
}

// A panic inside a forward must fail that one request with a typed
// internal error and leave the worker pool alive.
func TestFlushPanicRecovered(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{Variant: core.VariantW})
	defer srv.Close()
	prefs := core.Uniform([]int{1, 2})
	var boom atomic.Bool
	srv.disp.hookBeforeForward = func(*request) {
		if boom.CompareAndSwap(true, false) {
			panic("injected forward fault")
		}
	}
	if _, err := srv.Infer(prefs, f.sample(t, 0)); err != nil {
		t.Fatal(err)
	}
	boom.Store(true)
	_, err := srv.Infer(prefs, f.sample(t, 1))
	var te *Error
	if !errors.As(err, &te) || te.Code != cloud.CodeInternal {
		t.Fatalf("poisoned forward got %v, want typed internal error", err)
	}
	// The pool survived: the next request is served normally.
	if _, err := srv.Infer(prefs, f.sample(t, 2)); err != nil {
		t.Fatalf("worker pool did not survive the panic: %v", err)
	}
}

// The satellite race regression end-to-end: cache misses personalize on
// the shared system (stateful suffix forwards, mask churn) while cache
// hits forward concurrently through the same weights. Run with -race.
func TestPersonalizeWhileServing(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{Variant: core.VariantW, CacheCap: 3})
	defer srv.Close()

	// Distinct two-class subsets of 4 classes: enough keys to overflow
	// the 3-entry cache and force personalization to overlap serving.
	combos := [][]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				prefs := core.Uniform(combos[(g+i)%len(combos)])
				if _, err := srv.Infer(prefs, f.sample(t, (g*7+i)%16)); err != nil {
					t.Errorf("worker %d iter %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := srv.Stats()
	if st.CacheEvictions == 0 {
		t.Fatalf("expected cache pressure; stats: %+v", st)
	}
}

// waitFor polls cond until it holds or the window elapses.
func waitFor(t *testing.T, window time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(window)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for: %s", msg)
}
