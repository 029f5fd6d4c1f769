package device

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"capnn/internal/cloud"
	"capnn/internal/cluster"
	"capnn/internal/core"
	"capnn/internal/data"
	"capnn/internal/nn"
	"capnn/internal/serve"
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

func getFixture(t *testing.T) *fixture {
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

// startShard serves sys on a loopback port until the test ends.
func startShard(t *testing.T, sys *core.System, cfg serve.Config) (*serve.Server, string) {
	t.Helper()
	srv := serve.NewServerWith(sys, cfg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, addr
}

// newDevice is a device on its own copy of base (sharing no memory with
// the shard's) talking to addr over a client closed when the test ends.
func newDevice(t *testing.T, addr string, base *nn.Network, variant string) *Device {
	t.Helper()
	cl := serve.NewClient(addr)
	t.Cleanup(cl.Close)
	dev, err := New(cl, modelCopy(t, base), 4, variant)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// modelCopy round-trips a network through its serialized form.
func modelCopy(t *testing.T, net *nn.Network) *nn.Network {
	t.Helper()
	m, err := nn.Load(bytes.NewReader(saved(t, net)))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func saved(t *testing.T, net *nn.Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := nn.Save(&buf, net); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// observe feeds the device n test images of class cls.
func observe(t *testing.T, f *fixture, dev *Device, cls, n int) {
	t.Helper()
	byClass := f.sets.Test.ByClass()
	for i := 0; i < n; i++ {
		x, _ := f.sets.Test.Batch([]int{byClass[cls][i%len(byClass[cls])]})
		if _, err := dev.Classify(x); err != nil {
			t.Fatal(err)
		}
	}
}

// DESIGN.md invariant 8: the device's model is CompactMasked(base, the
// masks the shard serves the key with) — bit for bit the model local
// pruning builds, under every variant — and its logits match the
// shard's own answer within invariant 1's 1e-9, whether the device talks
// to the shard directly or through a gateway over two shards.
func TestPersonalizeMatchesLocalPruning(t *testing.T) {
	f := getFixture(t)
	cfg := serve.Config{DisableGuard: true} // every inference on the key's own plan
	_, direct := startShard(t, f.sys, cfg)
	_, a := startShard(t, f.sys, cfg)
	_, b := startShard(t, f.sys, cfg)
	g, err := cluster.NewGateway([]string{a, b}, cluster.Config{Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw, err := g.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for _, route := range []struct{ name, addr string }{{"direct", direct}, {"gateway", gw}} {
		for _, v := range []core.Variant{core.VariantB, core.VariantW, core.VariantM} {
			t.Run(route.name+"/"+v.Letter(), func(t *testing.T) {
				dev := newDevice(t, route.addr, f.sys.Net, v.Letter())
				observe(t, f, dev, 0, 6)
				observe(t, f, dev, 2, 2)
				changed, st, err := dev.Repersonalize(true)
				if err != nil || !changed {
					t.Fatalf("repersonalize: changed=%v err=%v", changed, err)
				}
				prefs := dev.Current()
				masks, err := f.sys.Prune(v, prefs)
				if err != nil {
					t.Fatal(err)
				}
				local, err := nn.CompactMasked(f.sys.Net, masks)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(saved(t, dev.Model()), saved(t, local)) {
					t.Fatal("the device's model is not CompactMasked(base, System.Prune masks)")
				}
				if st.TotalUnits == 0 || st.RelativeSize != nn.RelativeSize(f.sys.Net, local) {
					t.Fatalf("stats %+v, local relative size %v", st, nn.RelativeSize(f.sys.Net, local))
				}

				cl := serve.NewClient(route.addr)
				defer cl.Close()
				for _, i := range []int{0, 5, 9} {
					x, _ := f.sets.Test.Batch([]int{i})
					resp, err := cl.Infer(serve.WireRequest{Variant: v.Letter(), Classes: prefs.Classes, Weights: prefs.Weights, Input: x.Data()})
					if err != nil {
						t.Fatal(err)
					}
					if !resp.CacheHit {
						t.Fatal("the shard answering the inference had not personalized the key")
					}
					for c, want := range dev.Model().Infer(x, nil).Data() {
						if math.Abs(resp.Logits[c]-want) > 1e-9 {
							t.Fatalf("image %d logit %d: device %v, shard %v", i, c, want, resp.Logits[c])
						}
					}
				}
			})
		}
	}
}

func TestDeviceLifecycleRepersonalizes(t *testing.T) {
	f := getFixture(t)
	_, addr := startShard(t, f.sys, serve.Config{})
	dev := newDevice(t, addr, f.sys.Net, "W")
	// Before observations: no drift, no refetch.
	if dev.Drift() != 0 {
		t.Fatalf("initial drift %v", dev.Drift())
	}
	changed, _, err := dev.Repersonalize(false)
	if err != nil || changed {
		t.Fatalf("repersonalized with no observations: %v %v", changed, err)
	}

	// The user only ever sees class 1 (with a little class 3).
	observe(t, f, dev, 1, 9)
	observe(t, f, dev, 3, 3)
	if dev.Drift() <= driftThreshold {
		t.Fatalf("drift %v not above threshold with unpersonalized model", dev.Drift())
	}
	origParams := dev.Model().ParamCount()
	changed, stats, err := dev.Repersonalize(false)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("high drift did not trigger repersonalization")
	}
	if stats.RelativeSize >= 1 || dev.Model().ParamCount() >= origParams {
		t.Fatalf("personalized model not smaller: %+v", stats)
	}
	if dev.Current().K() == 0 {
		t.Fatal("current preferences not recorded")
	}

	// Force a second personalization (preferences change scenario).
	changed, _, err = dev.Repersonalize(true)
	if err != nil || !changed {
		t.Fatalf("forced repersonalization failed: %v %v", changed, err)
	}
}

// Classify is the stateless Infer plus a locked monitor update: any
// number of goroutines may classify on one device, beside a refetch that
// swaps the model under them. Meaningful under -race.
func TestDeviceClassifyConcurrent(t *testing.T) {
	f := getFixture(t)
	_, addr := startShard(t, f.sys, serve.Config{})
	dev := newDevice(t, addr, f.sys.Net, "W")
	const each = 20
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				x, _ := f.sets.Test.Batch([]int{(g*each + i) % f.sets.Test.Len()})
				if _, err := dev.Classify(x); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	observe(t, f, dev, 0, 1) // the refetch needs one observation
	if changed, _, err := dev.Repersonalize(true); err != nil || !changed {
		t.Fatalf("refetch beside classification: changed=%v err=%v", changed, err)
	}
	wg.Wait()
	if dev.Current().K() == 0 {
		t.Fatal("refetch recorded no preferences")
	}
}

func TestDeviceValidation(t *testing.T) {
	if _, err := New(serve.NewClient("x"), nil, 4, "W"); err == nil {
		t.Fatal("nil base model accepted")
	}
	if _, err := New(serve.NewClient("x"), &nn.Network{}, 1, "W"); err == nil {
		t.Fatal("single-class device accepted")
	}
}

// A dead shard is a transport fault: the fetch fails with a retryable
// serve.Error after MaxAttempts tries, and the device keeps its model.
func TestFetchDialFailure(t *testing.T) {
	f := getFixture(t)
	dead := serve.NewClient("127.0.0.1:1") // nothing listens here
	dead.DialTimeout = 500 * time.Millisecond
	dev, err := New(dead, f.sys.Net, 4, "W")
	if err != nil {
		t.Fatal(err)
	}
	dev.Retry = Retry{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}
	retries := 0
	dev.OnRetry = func(int, error) { retries++ }
	observe(t, f, dev, 0, 1)
	_, _, err = dev.Repersonalize(true)
	var se *serve.Error
	if !errors.As(err, &se) || !se.Code.Retryable() || retries != 2 {
		t.Fatalf("dead shard: err=%v retries=%d, want a retryable serve.Error tried 3 times", err, retries)
	}
	if dev.Model() != dev.base {
		t.Fatal("a failed fetch replaced the model")
	}
}

// Fetch errors keep the serve.Error code that decided the retry: a bad
// request is permanent and tried once.
func TestFetchErrorTyping(t *testing.T) {
	f := getFixture(t)
	_, addr := startShard(t, f.sys, serve.Config{})
	bad := newDevice(t, addr, f.sys.Net, "X")
	bad.Retry = Retry{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}
	retries := 0
	bad.OnRetry = func(int, error) { retries++ }
	observe(t, f, bad, 0, 1)
	_, _, err := bad.Repersonalize(true)
	var se *serve.Error
	if !errors.As(err, &se) || se.Code != cloud.CodeBadRequest || retries != 0 {
		t.Fatalf("unknown variant: err=%v retries=%d, want a bad request tried once", err, retries)
	}
	if bad.Model() != bad.base {
		t.Fatal("a failed fetch replaced the model")
	}
}

// Every wire spelling of a variant personalizes the device: the
// lower-case letter fetches the model the upper-case one does, and the
// empty variant the shard's default, bit for bit.
func TestAllVariantsServed(t *testing.T) {
	f := getFixture(t)
	_, addr := startShard(t, f.sys, serve.Config{})
	fetched := func(variant string) []byte {
		t.Helper()
		dev := newDevice(t, addr, f.sys.Net, variant)
		observe(t, f, dev, 1, 6)
		observe(t, f, dev, 3, 2)
		changed, st, err := dev.Repersonalize(true)
		if err != nil || !changed {
			t.Fatalf("variant %q: changed=%v err=%v", variant, changed, err)
		}
		if st.TotalUnits == 0 || st.RelativeSize <= 0 || st.RelativeSize > 1 {
			t.Fatalf("variant %q: stats %+v", variant, st)
		}
		return saved(t, dev.Model())
	}
	for _, v := range []core.Variant{core.VariantB, core.VariantW, core.VariantM} {
		upper := fetched(v.Letter())
		if !bytes.Equal(upper, fetched(strings.ToLower(v.Letter()))) {
			t.Fatalf("%s: the lower-case spelling fetched another model", v.Letter())
		}
		if v == core.DefaultVariant && !bytes.Equal(upper, fetched("")) {
			t.Fatalf("the empty variant did not fetch the default %s", v.Letter())
		}
	}
}

// Devices with different preferences fetching at once each install
// their own personalization: no fetch gets another device's masks.
func TestConcurrentFetchesStayPerDevice(t *testing.T) {
	f := getFixture(t)
	_, addr := startShard(t, f.sys, serve.Config{})
	devs := make([]*Device, 4)
	for i := range devs {
		devs[i] = newDevice(t, addr, f.sys.Net, "W")
		observe(t, f, devs[i], i, 4)
	}
	errs := make([]error, len(devs))
	var wg sync.WaitGroup
	for i, dev := range devs {
		wg.Add(1)
		go func(i int, dev *Device) {
			defer wg.Done()
			_, _, errs[i] = dev.Repersonalize(true)
		}(i, dev)
	}
	wg.Wait()
	for i, dev := range devs {
		if errs[i] != nil {
			t.Fatalf("device %d: %v", i, errs[i])
		}
		masks, err := f.sys.Prune(core.VariantW, dev.Current())
		if err != nil {
			t.Fatal(err)
		}
		local, err := nn.CompactMasked(f.sys.Net, masks)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved(t, dev.Model()), saved(t, local)) {
			t.Fatalf("device %d (classes %v) installed a model not pruned for its own preferences", i, dev.Current().Classes)
		}
	}
}

// N devices × M refetches against one shard under -race; every model
// installed is a valid, runnable personalization.
func TestConcurrentFetchRace(t *testing.T) {
	f := getFixture(t)
	_, addr := startShard(t, f.sys, serve.Config{})
	x, _ := f.sets.Test.Batch([]int{0, 5})
	const N, M = 6, 4
	errCh := make(chan error, N*M)
	var wg sync.WaitGroup
	for g := 0; g < N; g++ {
		dev := newDevice(t, addr, f.sys.Net, "W")
		observe(t, f, dev, g%4, 3)
		observe(t, f, dev, (g+1)%4, 1)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for m := 0; m < M; m++ {
				changed, st, err := dev.Repersonalize(true)
				if err != nil || !changed {
					errCh <- fmt.Errorf("device %d fetch %d: changed=%v err=%w", g, m, changed, err)
					return
				}
				if st.RelativeSize <= 0 || st.RelativeSize > 1 {
					errCh <- fmt.Errorf("device %d fetch %d: relative size %v", g, m, st.RelativeSize)
					return
				}
				logits := dev.Model().Forward(x)
				if logits.Dim(1) != 4 {
					errCh <- fmt.Errorf("device %d fetch %d: model emits %d classes", g, m, logits.Dim(1))
					return
				}
				for _, v := range logits.Data() {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						errCh <- fmt.Errorf("device %d fetch %d: non-finite logits", g, m)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// The backoff ceiling saturates instead of wrapping: with no MaxBackoff a
// long base doubled 20 times overflowed int64, and a ceiling near the top
// made the jitter draw panic, crashing a device that should sleep.
func TestBackoffSaturates(t *testing.T) {
	for _, c := range []struct{ base, limit time.Duration }{
		{0, 0},
		{time.Millisecond, 0},
		{3 * time.Hour, 0},
		{1 << 62, 0},
		{math.MaxInt64, 0},
		{3 * time.Hour, time.Minute},
		{1 << 62, math.MaxInt64},
		{math.MaxInt64, -1},
	} {
		d := &Device{Retry: Retry{BaseBackoff: c.base, MaxBackoff: c.limit}}
		prev := time.Duration(0)
		for n := 0; n <= 25; n++ {
			ceil := doubling(c.base, time.Millisecond, c.limit, n)
			if ceil < prev {
				t.Fatalf("base %v limit %v: ceiling fell from %v to %v at attempt %d", c.base, c.limit, prev, ceil, n)
			}
			prev = ceil
			if sleep := d.backoff(n); sleep < 0 || sleep > ceil {
				t.Fatalf("base %v limit %v: backoff(%d) = %v, want within [0, %v]", c.base, c.limit, n, sleep, ceil)
			}
		}
	}
}

// Drift returns the total-variation distance between the monitored usage
// distribution and the usage the current model was personalized for.
// Before any personalization it returns 1 (maximal drift) once there is
// at least one observation. The monitoring window restarts after each
// successful repersonalization, so drift measures usage since the
// current model was installed, not the device's whole history.
func (d *Device) Drift() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.drift()
}
