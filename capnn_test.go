package capnn

import (
	"bytes"
	"testing"

	"capnn/internal/baselines"
	"capnn/internal/core"
	"capnn/internal/energy"
	"capnn/internal/firing"
	"capnn/internal/nn"
)

// TestFacadeEndToEnd exercises the public API exactly as the README
// quickstart does: build → train → profile → personalize → compact →
// serialize, plus a device personalizing from a served shard.
func TestFacadeEndToEnd(t *testing.T) {
	synth := DefaultSynthConfig(6)
	synth.H, synth.W = 12, 12
	synth.Seed = 77
	gen, err := NewGenerator(synth)
	if err != nil {
		t.Fatal(err)
	}
	sets := MakeSets(gen, SetSizes{TrainPerClass: 15, ValPerClass: 8, TestPerClass: 8, ProfilePerClass: 10})

	net := NewBuilder(1, 12, 12, 5).
		Conv(6).ReLU().Pool().
		Conv(8).ReLU().Pool().
		Flatten().Dense(12).ReLU().Dense(6).MustBuild()
	tc := DefaultTrainConfig()
	tc.Optimizer = "adam"
	tc.LR = 0.002
	tc.Epochs = 6
	if err := Train(net, sets.Train, sets.Val, tc); err != nil {
		t.Fatal(err)
	}
	base := Evaluate(net, nil, sets.Test)
	if base.Top1 <= 0 {
		t.Fatal("training produced a dead model")
	}

	params := DefaultParams()
	params.Epsilon = 0.15
	sys, err := NewSystem(net, sets.Val, sets.Profile, nil, params)
	if err != nil {
		t.Fatal(err)
	}
	prefs, err := Weighted([]int{1, 4}, []float64{0.7, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []Variant{VariantB, VariantW, VariantM} {
		res, err := sys.Personalize(v, prefs, sets.Test)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if res.RelativeSize <= 0 || res.RelativeSize > 1 {
			t.Fatalf("%s: relative size %v", v, res.RelativeSize)
		}
	}

	// Compact + serialize round trip through the facade.
	masks, err := sys.Prune(VariantM, prefs)
	if err != nil {
		t.Fatal(err)
	}
	compact, err := CompactMasked(net, masks)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := nn.Save(&buf, compact); err != nil {
		t.Fatal(err)
	}
	loaded, err := nn.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ParamCount() != compact.ParamCount() {
		t.Fatal("facade serialize round trip changed the model")
	}

	// Device + energy facade.
	counts, err := SimulateDevice(compact, DefaultDevice())
	if err != nil {
		t.Fatal(err)
	}
	if counts.MACs <= 0 {
		t.Fatal("device simulation empty")
	}
	e, err := EnergyOf(compact, DefaultDevice(), PaperEnergies())
	if err != nil || e <= 0 {
		t.Fatalf("energy %v (%v)", e, err)
	}
	rel, err := energy.RelativeOfMasks(net, masks, DefaultDevice(), PaperEnergies())
	if err != nil || rel <= 0 || rel > 1 {
		t.Fatalf("relative energy %v (%v)", rel, err)
	}

	// Device ↔ shard round trip through the facade.
	srv := NewServer(sys)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dev, err := NewDevice(addr, net, 6, "M")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		x, _ := sets.Test.Batch([]int{i})
		if _, err := dev.Classify(x); err != nil {
			t.Fatal(err)
		}
	}
	changed, stats, err := dev.Repersonalize(true)
	if err != nil || !changed {
		t.Fatalf("device personalization: changed=%v err=%v", changed, err)
	}
	devMasks, err := sys.Prune(VariantM, dev.Current())
	if err != nil {
		t.Fatal(err)
	}
	local, err := CompactMasked(net, devMasks)
	if err != nil {
		t.Fatal(err)
	}
	if dev.Model().ParamCount() != local.ParamCount() {
		t.Fatalf("device model %d params, local %d", dev.Model().ParamCount(), local.ParamCount())
	}
	if stats.PrunedUnits == 0 && stats.RelativeSize >= 1 {
		t.Fatal("device personalization pruned nothing")
	}

	// Monitoring facade.
	mon, err := core.NewMonitor(6)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := mon.Observe(1); err != nil {
			t.Fatal(err)
		}
	}
	mp, err := mon.Preferences(2)
	if err != nil || mp.K() != 1 || mp.Classes[0] != 1 {
		t.Fatalf("monitor prefs %+v (%v)", mp, err)
	}

	// Baselines facade.
	um, err := PruneUnaware(net, []int{0, 1}, 0.25, baselines.ByWeightNorm, nil)
	if err != nil || len(um) != 2 {
		t.Fatalf("unaware masks %v (%v)", um, err)
	}
}

// A system built without rates profiles them over the paper's prunable
// stages (the last-6-layers rule) when its params name none.
func TestFacadeProfileRatesDefaultsToPrunableStages(t *testing.T) {
	synth := DefaultSynthConfig(4)
	synth.H, synth.W = 12, 12
	gen, err := NewGenerator(synth)
	if err != nil {
		t.Fatal(err)
	}
	ds := gen.Generate(3, 1)
	net := NewBuilder(1, 12, 12, 9).
		Conv(4).ReLU().Pool().
		Flatten().Dense(8).ReLU().Dense(4).MustBuild()
	sys, err := NewSystem(net, ds, ds, nil, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	want := firing.PrunableStages(net)
	if len(sys.Rates.Layers) != len(want) {
		t.Fatalf("profiled %d stages, want %d", len(sys.Rates.Layers), len(want))
	}
}
