package cloud

import (
	"math"
	"sync"
	"testing"

	"capnn/internal/core"
	"capnn/internal/data"
	"capnn/internal/nn"
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

// DESIGN.md invariant 8: the model served over TCP reproduces local
// pruning exactly.
func TestRoundTripMatchesLocalPruning(t *testing.T) {
	f := getFixture(t)
	srv := NewServer(f.sys)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	req := Request{Variant: "W", Classes: []int{0, 2}, Weights: []float64{0.8, 0.2}}
	model, stats, err := NewClient(addr).Fetch(req)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RelativeSize <= 0 || stats.RelativeSize > 1 {
		t.Fatalf("relative size %v", stats.RelativeSize)
	}

	// Local reference: same pruning applied directly.
	prefs, _ := core.Weighted(req.Classes, req.Weights)
	masks, err := f.sys.Prune(core.VariantW, prefs)
	if err != nil {
		t.Fatal(err)
	}
	local, err := nn.CompactMasked(f.sys.Net, masks)
	if err != nil {
		t.Fatal(err)
	}

	x, _ := f.sets.Test.Batch([]int{0, 5, 9})
	a, b := local.Forward(x), model.Forward(x)
	for i, v := range a.Data() {
		if math.Abs(v-b.Data()[i]) > 1e-12 {
			t.Fatal("served model diverges from local pruning")
		}
	}
	if model.ParamCount() != local.ParamCount() {
		t.Fatalf("param counts differ: %d vs %d", model.ParamCount(), local.ParamCount())
	}
}

func TestAllVariantsServed(t *testing.T) {
	f := getFixture(t)
	srv := NewServer(f.sys)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient(addr)
	for _, v := range []string{"B", "W", "M"} {
		model, stats, err := cl.Fetch(Request{Variant: v, Classes: []int{1, 3}})
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if model == nil || stats.TotalUnits == 0 {
			t.Fatalf("%s: empty response", v)
		}
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	f := getFixture(t)
	srv := NewServer(f.sys)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient(addr)
	cases := []Request{
		{Variant: "X", Classes: []int{0}},
		{Variant: "W", Classes: nil},
		{Variant: "W", Classes: []int{99}},
		{Variant: "W", Classes: []int{0, 0}},
		{Variant: "W", Classes: []int{0}, Weights: []float64{1, 2}},
	}
	for i, req := range cases {
		if _, _, err := cl.Fetch(req); err == nil {
			t.Errorf("case %d accepted: %+v", i, req)
		}
	}
}

func TestPersonalizeDirectCall(t *testing.T) {
	f := getFixture(t)
	srv := NewServer(f.sys)
	resp := srv.Personalize(Request{Variant: "B", Classes: []int{0}})
	if resp.Err != "" {
		t.Fatalf("direct personalize failed: %s", resp.Err)
	}
	if len(resp.Model) == 0 {
		t.Fatal("no model bytes")
	}
}

func TestConcurrentRequests(t *testing.T) {
	f := getFixture(t)
	srv := NewServer(f.sys)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = NewClient(addr).Fetch(Request{Variant: "W", Classes: []int{i % 4}, Weights: nil})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}

func TestClientDialFailure(t *testing.T) {
	cl := NewClient("127.0.0.1:1") // nothing listens on port 1
	if _, _, err := cl.Fetch(Request{Variant: "W", Classes: []int{0}}); err == nil {
		t.Fatal("dial to dead port succeeded")
	}
}

func TestDeviceLifecycleRepersonalizes(t *testing.T) {
	f := getFixture(t)
	srv := NewServer(f.sys)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	dev, err := NewDevice(NewClient(addr), f.sys.Net, 4, "W")
	if err != nil {
		t.Fatal(err)
	}
	// Before observations: no drift, no refetch.
	if dev.Drift() != 0 {
		t.Fatalf("initial drift %v", dev.Drift())
	}
	changed, _, err := dev.Repersonalize(false)
	if err != nil || changed {
		t.Fatalf("repersonalized with no observations: %v %v", changed, err)
	}

	// The user only ever sees class 1 (with a little class 3).
	byClass := f.sets.Test.ByClass()
	for i := 0; i < 12; i++ {
		cls := 1
		if i%4 == 3 {
			cls = 3
		}
		x, _ := f.sets.Test.Batch([]int{byClass[cls][i%len(byClass[cls])]})
		if _, err := dev.Classify(x); err != nil {
			t.Fatal(err)
		}
	}
	if dev.Drift() <= dev.DriftThreshold {
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
	srv := NewServer(f.sys)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dev, err := NewDevice(NewClient(addr), f.sys.Net, 4, "W")
	if err != nil {
		t.Fatal(err)
	}
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
	x, _ := f.sets.Test.Batch([]int{0})
	if _, err := dev.Classify(x); err != nil { // the refetch needs one observation
		t.Fatal(err)
	}
	if changed, _, err := dev.Repersonalize(true); err != nil || !changed {
		t.Fatalf("refetch beside classification: changed=%v err=%v", changed, err)
	}
	wg.Wait()
	if dev.Current().K() == 0 {
		t.Fatal("refetch recorded no preferences")
	}
}

func TestDeviceValidation(t *testing.T) {
	if _, err := NewDevice(NewClient("x"), nil, 4, "W"); err == nil {
		t.Fatal("nil initial model accepted")
	}
	if _, err := NewDevice(NewClient("x"), &nn.Network{}, 1, "W"); err == nil {
		t.Fatal("single-class device accepted")
	}
}
