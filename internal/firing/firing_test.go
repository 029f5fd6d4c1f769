package firing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"capnn/internal/data"
	"capnn/internal/nn"
)

func smallNetAndData(t *testing.T) (*nn.Network, *data.Dataset) {
	t.Helper()
	gen, err := data.NewGenerator(data.SynthConfig{Classes: 3, Groups: 1, H: 8, W: 8, NoiseStd: 0.3, MaxShift: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ds := gen.Generate(6, 1)
	net := nn.NewBuilder(1, 8, 8, 4).
		Conv(4).ReLU().Pool().
		Flatten().Dense(6).ReLU().Dense(3).MustBuild()
	return net, ds
}

func TestComputeRatesInRange(t *testing.T) {
	net, ds := smallNetAndData(t)
	rates, err := Compute(net, ds, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rates.Layers) != 2 {
		t.Fatalf("got %d layers, want 2", len(rates.Layers))
	}
	for si, lr := range rates.Layers {
		if lr.Stage != si {
			t.Fatalf("stage mismatch %d vs %d", lr.Stage, si)
		}
		for _, v := range lr.F {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("rate %v outside [0,1]", v)
			}
		}
	}
}

func TestComputeRejectsBadStage(t *testing.T) {
	net, ds := smallNetAndData(t)
	if _, err := Compute(net, ds, []int{99}); err == nil {
		t.Fatal("bad stage accepted")
	}
	// Output stage (no ReLU) must be rejected.
	if _, err := Compute(net, ds, []int{2}); err == nil {
		t.Fatal("output stage accepted")
	}
}

func TestComputeRemovesHooks(t *testing.T) {
	net, ds := smallNetAndData(t)
	if _, err := Compute(net, ds, []int{0}); err != nil {
		t.Fatal(err)
	}
	for _, st := range net.Stages() {
		if st.Act != nil && st.Act.Hook != nil {
			t.Fatal("profiling left a hook installed")
		}
	}
}

func TestRatesDeterministic(t *testing.T) {
	net, ds := smallNetAndData(t)
	a, _ := Compute(net, ds, []int{0, 1})
	b, _ := Compute(net, ds, []int{0, 1})
	for si := range a.Layers {
		for i, v := range a.Layers[si].F {
			if b.Layers[si].F[i] != v {
				t.Fatal("profiling not deterministic")
			}
		}
	}
}

// A unit that cannot fire — pruned to an all-zero filter and bias, the
// values a masked unit outputs — profiles at rate 0 for every class.
func TestPrunedUnitNeverFires(t *testing.T) {
	net, ds := smallNetAndData(t)
	conv := net.Stages()[0].Unit.(*nn.Conv2D)
	per := conv.Weights().Len() / conv.Units()
	clear(conv.Weights().Data()[:per])
	conv.Bias().Data()[0] = 0
	rates, err := Compute(net, ds, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	lr := rates.Layers[0]
	for c := 0; c < lr.Classes; c++ {
		if lr.At(0, c) != 0 {
			t.Fatal("pruned channel shows nonzero firing rate")
		}
	}
}

func TestRatesCloneIsDeep(t *testing.T) {
	net, ds := smallNetAndData(t)
	rates, _ := Compute(net, ds, []int{0})
	c := rates.Clone()
	c.Layers[0].Set(0, 0, 0.123456)
	if rates.Layers[0].At(0, 0) == 0.123456 {
		t.Fatal("Clone shares storage")
	}
}

func TestPrunableStagesVGG(t *testing.T) {
	net, err := nn.BuildVGG(nn.DefaultVGGConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	ps := PrunableStages(net)
	want := []int{10, 11, 12, 13, 14}
	if len(ps) != len(want) {
		t.Fatalf("prunable stages %v, want %v", ps, want)
	}
	for i := range want {
		if ps[i] != want[i] {
			t.Fatalf("prunable stages %v, want %v", ps, want)
		}
	}
}

func TestPrunableStagesTinyNet(t *testing.T) {
	net := nn.NewBuilder(1, 8, 8, 1).Conv(2).ReLU().Pool().Flatten().Dense(3).MustBuild()
	ps := PrunableStages(net)
	// 2 unit layers → only the first (conv) is prunable.
	if len(ps) != 1 || ps[0] != 0 {
		t.Fatalf("prunable stages %v, want [0]", ps)
	}
}

func TestQuantizeRoundTripWithinOneBin(t *testing.T) {
	lr := &LayerRates{Stage: 0, Units: 4, Classes: 3, F: []float64{
		0, 0.1, 0.2, 0.33, 0.4, 0.5, 0.66, 0.7, 0.85, 0.9, 0.99, 1,
	}}
	q, err := Quantize(lr, 3)
	if err != nil {
		t.Fatal(err)
	}
	dq := q.Dequantize()
	halfBin := 0.5 / 7.0
	for i, v := range lr.F {
		if math.Abs(dq.F[i]-v) > halfBin+1e-12 {
			t.Fatalf("entry %d: %v → %v, beyond half a bin", i, v, dq.F[i])
		}
	}
}

func TestQuantizeClampsAndValidates(t *testing.T) {
	lr := &LayerRates{Units: 1, Classes: 2, F: []float64{-0.5, 1.5}}
	q, err := Quantize(lr, 3)
	if err != nil {
		t.Fatal(err)
	}
	if q.Codes[0] != 0 || q.Codes[1] != 7 {
		t.Fatalf("clamping failed: %v", q.Codes)
	}
	if _, err := Quantize(lr, 0); err == nil {
		t.Fatal("bits=0 accepted")
	}
	if _, err := Quantize(lr, 9); err == nil {
		t.Fatal("bits=9 accepted")
	}
}

// Property: quantization error is bounded by half a bin for any rate in
// [0,1] and any bit width.
func TestQuantizeErrorBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bits := 1 + rng.Intn(8)
		n := 1 + rng.Intn(20)
		lr := &LayerRates{Units: n, Classes: 1, F: make([]float64, n)}
		for i := range lr.F {
			lr.F[i] = rng.Float64()
		}
		q, err := Quantize(lr, bits)
		if err != nil {
			return false
		}
		dq := q.Dequantize()
		halfBin := 0.5 / float64(int(1)<<bits-1)
		for i := range lr.F {
			if math.Abs(dq.F[i]-lr.F[i]) > halfBin+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPackedBytes(t *testing.T) {
	q := &Quantized{Bits: 3, Codes: make([]uint8, 1000)}
	// 3000 bits → 375 bytes.
	if q.PackedBytes() != 375 {
		t.Fatalf("PackedBytes = %d, want 375", q.PackedBytes())
	}
}

func TestMemoryOverheadAccounting(t *testing.T) {
	r := &Rates{Classes: 10, Layers: map[int]*LayerRates{
		0: {Units: 8, Classes: 10, F: make([]float64, 80)},
		1: {Units: 4, Classes: 10, F: make([]float64, 40)},
	}}
	ov, err := MemoryOverhead(r, 3, 10000)
	if err != nil {
		t.Fatal(err)
	}
	// (80+40) entries × 3 bits = 360 bits = 45 bytes; model = 20000 bytes.
	if ov.RateBytes != 45 || ov.ModelBytes != 20000 {
		t.Fatalf("overhead = %+v", ov)
	}
	if math.Abs(ov.Ratio-45.0/20000.0) > 1e-12 {
		t.Fatalf("ratio = %v", ov.Ratio)
	}
}

// Paper §V-C check at full VGG-16 scale: 3 conv layers × 512 channels +
// 2 FC × 4096 neurons, 1000 classes, 3-bit codes ≈ 3.6 MB ≈ 1.3% of the
// 276 MB 16-bit model.
func TestMemoryOverheadPaperScale(t *testing.T) {
	mk := func(units int) *LayerRates {
		return &LayerRates{Units: units, Classes: 1000, F: make([]float64, units*1000)}
	}
	r := &Rates{Classes: 1000, Layers: map[int]*LayerRates{
		0: mk(512), 1: mk(512), 2: mk(512), 3: mk(4096), 4: mk(4096),
	}}
	const vgg16Params = 138_344_128 // weights+biases of standard VGG-16
	ov, err := MemoryOverhead(r, 3, vgg16Params)
	if err != nil {
		t.Fatal(err)
	}
	mb := float64(ov.RateBytes) / (1 << 20)
	if mb < 3.0 || mb > 4.2 {
		t.Fatalf("rate storage %.2f MB, paper reports ≈3.6 MB", mb)
	}
	if ov.Ratio < 0.010 || ov.Ratio > 0.016 {
		t.Fatalf("overhead ratio %.4f, paper reports ≈1.3%%", ov.Ratio)
	}
}
