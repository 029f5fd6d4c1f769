package capnn

import (
	"math"
	"testing"

	"capnn/internal/firing"
)

// TestQuantizedCloudDeployment exercises the §V-C deployment path end to
// end: profile → quantize to the 3-bit rates the cloud stores →
// personalize from them → verify ε on the measured split and that the
// compacted model matches masked inference.
func TestQuantizedCloudDeployment(t *testing.T) {
	synth := DefaultSynthConfig(6)
	synth.H, synth.W = 12, 12
	synth.Seed = 123
	gen, err := NewGenerator(synth)
	if err != nil {
		t.Fatal(err)
	}
	sets := MakeSets(gen, SetSizes{TrainPerClass: 15, ValPerClass: 10, TestPerClass: 8, ProfilePerClass: 10})
	net := NewBuilder(1, 12, 12, 9).
		Conv(6).ReLU().Pool().
		Conv(8).ReLU().Pool().
		Flatten().Dense(16).ReLU().Dense(6).MustBuild()
	tc := DefaultTrainConfig()
	tc.Optimizer = "adam"
	tc.LR = 0.002
	tc.Epochs = 8
	if err := Train(net, sets.Train, sets.Val, tc); err != nil {
		t.Fatal(err)
	}

	// Profile and quantize the rates to the cloud's 3 bits.
	rates, err := firing.Compute(net, sets.Profile, firing.PrunableStages(net))
	if err != nil {
		t.Fatal(err)
	}
	dq, err := firing.Quantize(rates, 3)
	if err != nil {
		t.Fatal(err)
	}

	// Personalize from the quantized rates.
	params := DefaultParams()
	params.Epsilon = 0.15
	sys, err := NewSystem(net, sets.Val, sets.Profile, dq, params)
	if err != nil {
		t.Fatal(err)
	}
	prefs, err := Weighted([]int{1, 4}, []float64{0.8, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Personalize(VariantM, prefs, sets.Test)
	if err != nil {
		t.Fatal(err)
	}
	if res.RelativeSize <= 0 || res.RelativeSize > 1 {
		t.Fatalf("relative size %v", res.RelativeSize)
	}

	// Masked vs compacted equivalence on the quantized-rate masks.
	x, _ := sets.Test.Batch([]int{0, 1, 2})
	masked := net.Infer(x, res.Masks)
	compact, err := CompactMasked(net, res.Masks)
	if err != nil {
		t.Fatal(err)
	}
	got := compact.Forward(x)
	for i, v := range masked.Data() {
		if math.Abs(v-got.Data()[i]) > 1e-9 {
			t.Fatal("compacted model diverges from masked inference")
		}
	}
}
