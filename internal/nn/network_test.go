package nn

import (
	"math"
	"math/rand"
	"testing"

	"capnn/internal/tensor"
)

func TestBuilderShapeThreading(t *testing.T) {
	net := NewBuilder(3, 8, 8, 1).
		Conv(4).ReLU().Pool().
		Conv(6).ReLU().Pool().
		Flatten().Dense(10).ReLU().Dense(5).MustBuild()
	out := net.Forward(randInput([]int{2, 3, 8, 8}, 1))
	if out.Dim(0) != 2 || out.Dim(1) != 5 {
		t.Fatalf("output shape %v, want [2 5]", out.Shape())
	}
	// conv 8x8 → pool 4x4 → conv → pool 2x2 → flatten 6*2*2 = 24.
	fl := net.Layers[6].(*Flatten)
	if fl.OutShape()[0] != 24 {
		t.Fatalf("flatten out = %v, want 24", fl.OutShape())
	}
}

func TestBuilderPropagatesErrors(t *testing.T) {
	_, err := NewBuilder(1, 2, 2, 1).Pool().Pool().Build() // 2x2 → 1x1 → empty
	if err == nil {
		t.Fatal("expected builder error for empty pooling output")
	}
	if _, err := NewBuilder(1, 4, 4, 1).Dense(3).Build(); err == nil {
		t.Fatal("dense on unflattened input should error")
	}
	if _, err := NewBuilder(1, 4, 4, 1).Build(); err == nil {
		t.Fatal("empty network should error")
	}
}

func TestStagesPairsUnitsWithReLU(t *testing.T) {
	net := NewBuilder(1, 8, 8, 2).
		Conv(4).ReLU().Pool().
		Flatten().Dense(6).ReLU().Dense(3).MustBuild()
	stages := net.Stages()
	if len(stages) != 3 {
		t.Fatalf("got %d stages, want 3", len(stages))
	}
	if stages[0].Act == nil || stages[1].Act == nil {
		t.Fatal("hidden stages should have a ReLU")
	}
	if stages[2].Act != nil {
		t.Fatal("output stage must not have a ReLU")
	}
	for i, at := range []int{0, 4, 6} { // conv, fc, fc: the unit layers in order
		if stages[i].Unit != net.Layers[at] {
			t.Fatalf("stage %d is %s, want layer %d (%s)", i, stages[i].Unit.Name(), at, net.Layers[at].Name())
		}
	}
}

func TestDensePrunedNeuronSilent(t *testing.T) {
	net := NewBuilder(1, 1, 4, 4).Flatten().Dense(3).MustBuild()
	out := net.Infer(randInput([]int{2, 1, 1, 4}, 5), map[int][]bool{0: {false, true, false}})
	for s := 0; s < 2; s++ {
		if out.At(s, 1) != 0 {
			t.Fatal("pruned neuron fired")
		}
	}
}

func TestParamCount(t *testing.T) {
	net := NewBuilder(2, 4, 4, 1).Conv(3).ReLU().Flatten().Dense(5).MustBuild()
	// conv: 3*2*3*3 + 3 = 57; dense: 5*48 + 5 = 245.
	if got := net.ParamCount(); got != 57+245 {
		t.Fatalf("ParamCount = %d, want %d", got, 57+245)
	}
}

func TestZeroGrad(t *testing.T) {
	net := NewBuilder(1, 1, 3, 2).Flatten().Dense(2).MustBuild()
	x := randInput([]int{1, 1, 1, 3}, 9)
	out := net.Forward(x)
	net.Backward(out)
	sum := 0.0
	for _, p := range net.Params() {
		sum += absMax(p.G)
	}
	if sum == 0 {
		t.Fatal("expected nonzero gradients after backward")
	}
	net.ZeroGrad()
	for _, p := range net.Params() {
		if absMax(p.G) != 0 {
			t.Fatal("ZeroGrad left nonzero gradient")
		}
	}
}

// The observer sees each stage's post-ReLU output, the values Forward's
// ReLU returns, while the observed walk writes no layer state.
func TestInferObservedSeesPostReLU(t *testing.T) {
	net := NewBuilder(1, 1, 4, 3).Flatten().Dense(4).ReLU().MustBuild()
	x := randInput([]int{1, 1, 1, 4}, 3)
	var seen []float64
	out := net.InferObserved(x, func(stage int, post *tensor.Tensor) {
		if stage != 0 {
			t.Errorf("observed stage %d, want 0", stage)
		}
		seen = append(seen, post.Data()...)
	})
	if seen == nil {
		t.Fatal("observer not invoked")
	}
	sameBits(t, "observed against the returned output", out.Data(), seen)
	sameBits(t, "observed against Forward", net.Forward(x).Data(), seen)
}

func TestMaxPoolForwardValues(t *testing.T) {
	p, err := NewMaxPool2D("p", []int{1, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustFromSlice([]float64{
		1, 2, 5, 6,
		3, 4, 7, 8,
		-1, -2, 0, 0,
		-3, -4, 0, 9,
	}, 1, 1, 4, 4)
	out := p.Forward(x)
	want := []float64{4, 8, -1, 9}
	for i, v := range out.Data() {
		if v != want[i] {
			t.Fatalf("pool out = %v, want %v", out.Data(), want)
		}
	}
}

func TestVGGBuildsAndRuns(t *testing.T) {
	cfg := DefaultVGGConfig(10)
	net, err := BuildVGG(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stages := net.Stages()
	if len(stages) != NumUnitLayers {
		t.Fatalf("VGG has %d unit layers, want %d", len(stages), NumUnitLayers)
	}
	out := net.Forward(randInput([]int{1, 1, 32, 32}, 11))
	if out.Dim(1) != 10 {
		t.Fatalf("VGG output dim %d, want 10", out.Dim(1))
	}
	// Block 5 convs must see 2×2 spatial maps (paper's last-6-layer set).
	conv11 := stages[10].Unit.(*Conv2D)
	if conv11.inH != 2 || conv11.inW != 2 {
		t.Fatalf("conv11 input %dx%d, want 2x2", conv11.inH, conv11.inW)
	}
}

func TestVGGConfigValidation(t *testing.T) {
	cfg := DefaultVGGConfig(10)
	cfg.Widths = cfg.Widths[:5]
	if _, err := BuildVGG(cfg); err == nil {
		t.Fatal("short widths accepted")
	}
	cfg = DefaultVGGConfig(10)
	cfg.FC = []int{3}
	if _, err := BuildVGG(cfg); err == nil {
		t.Fatal("short FC accepted")
	}
	cfg = DefaultVGGConfig(1)
	if _, err := BuildVGG(cfg); err == nil {
		t.Fatal("single-class net accepted")
	}
}

func TestVGGDeterministicInit(t *testing.T) {
	a, _ := BuildVGG(DefaultVGGConfig(5))
	b, _ := BuildVGG(DefaultVGGConfig(5))
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		for j, v := range pa[i].W.Data() {
			if pb[i].W.Data()[j] != v {
				t.Fatal("same seed produced different weights")
			}
		}
	}
	cfg := DefaultVGGConfig(5)
	cfg.Seed = 2
	c, _ := BuildVGG(cfg)
	same := true
	for i, p := range c.Params() {
		for j, v := range p.W.Data() {
			if pa[i].W.Data()[j] != v {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical weights")
	}
}

func TestForwardDeterministic(t *testing.T) {
	net := NewBuilder(1, 6, 6, 42).Conv(3).ReLU().Pool().Flatten().Dense(4).MustBuild()
	x := randInput([]int{3, 1, 6, 6}, 8)
	a := net.Forward(x).Clone()
	b := net.Forward(x)
	for i, v := range a.Data() {
		if math.Abs(v-b.Data()[i]) != 0 {
			t.Fatal("forward pass not deterministic")
		}
	}
}

func TestConvMatchesManualComputation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c, err := NewConv2D("c", []int{1, 3, 3}, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	fill(c.w.W, 1) // 3×3 all-ones kernel: output = sum of 3×3 neighborhood
	c.b.W.Data()[0] = 0.5
	x := tensor.MustFromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	out := c.Forward(x)
	// Center output = sum of all 9 + bias.
	if got := out.At(0, 0, 1, 1); got != 45.5 {
		t.Fatalf("center = %v, want 45.5", got)
	}
	// Corner (0,0) sees the 2×2 top-left block: 1+2+4+5 = 12 + bias.
	if got := out.At(0, 0, 0, 0); got != 12.5 {
		t.Fatalf("corner = %v, want 12.5", got)
	}
}
