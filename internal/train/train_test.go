package train

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"capnn/internal/data"
	"capnn/internal/nn"
	"capnn/internal/tensor"
)

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	logits := tensor.New(4, 7)
	logits.FillNormal(rng, 0, 3)
	p := Softmax(logits)
	for s := 0; s < 4; s++ {
		sum := 0.0
		for c := 0; c < 7; c++ {
			v := p.At(s, c)
			if v < 0 || v > 1 {
				t.Fatalf("prob %v outside [0,1]", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", s, sum)
		}
	}
}

func TestSoftmaxNumericallyStable(t *testing.T) {
	logits := tensor.MustFromSlice([]float64{1000, 1001, 999}, 1, 3)
	p := Softmax(logits)
	for _, v := range p.Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("unstable softmax: %v", p.Data())
		}
	}
	if p.At(0, 1) < p.At(0, 0) {
		t.Fatal("ordering lost")
	}
}

func TestCrossEntropyKnownValue(t *testing.T) {
	// Uniform logits over 4 classes → loss = ln 4.
	logits := tensor.New(2, 4)
	loss, grad, err := SoftmaxCrossEntropy(logits, []int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(loss-math.Log(4)) > 1e-12 {
		t.Fatalf("loss = %v, want ln4 = %v", loss, math.Log(4))
	}
	// Gradient rows sum to zero (softmax minus one-hot).
	for s := 0; s < 2; s++ {
		sum := 0.0
		for c := 0; c < 4; c++ {
			sum += grad.At(s, c)
		}
		if math.Abs(sum) > 1e-12 {
			t.Fatalf("grad row %d sums to %v", s, sum)
		}
	}
}

func TestCrossEntropyGradientNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	logits := tensor.New(3, 5)
	logits.FillNormal(rng, 0, 1)
	labels := []int{1, 4, 0}
	_, grad, err := SoftmaxCrossEntropy(logits, labels)
	if err != nil {
		t.Fatal(err)
	}
	const h = 1e-6
	for i := range logits.Data() {
		orig := logits.Data()[i]
		logits.Data()[i] = orig + h
		lp, _, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data()[i] = orig - h
		lm, _, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data()[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-grad.Data()[i]) > 1e-6 {
			t.Fatalf("grad[%d]: analytic %v vs numeric %v", i, grad.Data()[i], num)
		}
	}
}

func TestCrossEntropyRejectsBadInput(t *testing.T) {
	logits := tensor.New(2, 3)
	if _, _, err := SoftmaxCrossEntropy(logits, []int{0}); err == nil {
		t.Fatal("label count mismatch accepted")
	}
	if _, _, err := SoftmaxCrossEntropy(logits, []int{0, 9}); err == nil {
		t.Fatal("out-of-range label accepted")
	}
}

func TestSGDStepDirection(t *testing.T) {
	p := &nn.Param{Name: "w", W: tensor.MustFromSlice([]float64{1}, 1), G: tensor.MustFromSlice([]float64{2}, 1)}
	opt := NewSGD(0.1, 0, 0)
	opt.Step([]*nn.Param{p})
	if math.Abs(p.W.At(0)-0.8) > 1e-12 {
		t.Fatalf("w = %v, want 0.8", p.W.At(0))
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	p := &nn.Param{Name: "w", W: tensor.New(1), G: tensor.MustFromSlice([]float64{1}, 1)}
	opt := NewSGD(0.1, 0.9, 0)
	opt.Step([]*nn.Param{p}) // v = -0.1, w = -0.1
	opt.Step([]*nn.Param{p}) // v = -0.19, w = -0.29
	if math.Abs(p.W.At(0)+0.29) > 1e-12 {
		t.Fatalf("w = %v, want -0.29", p.W.At(0))
	}
}

func TestSGDWeightDecayShrinks(t *testing.T) {
	p := &nn.Param{Name: "w", W: tensor.MustFromSlice([]float64{1}, 1), G: tensor.New(1)}
	opt := NewSGD(0.1, 0, 0.5)
	opt.Step([]*nn.Param{p})
	if p.W.At(0) >= 1 {
		t.Fatal("weight decay did not shrink weight")
	}
}

// Training a small net on a tiny separable dataset must drive loss down
// and reach high train accuracy — the substrate's end-to-end smoke test.
func TestTrainingLearnsSeparableData(t *testing.T) {
	cfg := data.SynthConfig{Classes: 3, Groups: 3, H: 8, W: 8, GroupMix: 0, NoiseStd: 0.1, MaxShift: 1, Seed: 5}
	gen, err := data.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trainSet := gen.Generate(20, 1)
	valSet := gen.Generate(10, 2)
	net := nn.NewBuilder(1, 8, 8, 7).
		Conv(4).ReLU().Pool().
		Flatten().Dense(16).ReLU().Dense(3).MustBuild()
	tc := Config{Epochs: 12, BatchSize: 8, LR: 0.05, Momentum: 0.9, Seed: 3}
	hist, err := Train(net, trainSet, valSet, tc)
	if err != nil {
		t.Fatal(err)
	}
	first, last := hist[0], hist[len(hist)-1]
	if last.Loss >= first.Loss {
		t.Fatalf("loss did not decrease: %v → %v", first.Loss, last.Loss)
	}
	ev := Evaluate(net, nil, valSet)
	if ev.Top1 < 0.8 {
		t.Fatalf("val top-1 %.3f below 0.8 on separable data", ev.Top1)
	}
	if ev.Top5 < ev.Top1 {
		t.Fatal("top-5 below top-1")
	}
}

func TestTrainRejectsBadConfig(t *testing.T) {
	net := nn.NewBuilder(1, 4, 4, 1).Flatten().Dense(2).MustBuild()
	gen, _ := data.NewGenerator(data.SynthConfig{Classes: 2, Groups: 1, H: 4, W: 4, NoiseStd: 0.1, Seed: 1})
	ds := gen.Generate(2, 1)
	if _, err := Train(net, ds, nil, Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestEvaluatePerClassCounts(t *testing.T) {
	gen, _ := data.NewGenerator(data.SynthConfig{Classes: 3, Groups: 1, H: 8, W: 8, NoiseStd: 0.1, Seed: 2})
	ds := gen.Generate(4, 1)
	net := nn.NewBuilder(1, 8, 8, 1).Flatten().Dense(3).MustBuild()
	ev := Evaluate(net, nil, ds)
	for c, n := range ev.Count {
		if n != 4 {
			t.Fatalf("class %d counted %d times, want 4", c, n)
		}
	}
	// Per-class accuracies must average (with equal counts) to Top1.
	mean := (ev.PerClass[0] + ev.PerClass[1] + ev.PerClass[2]) / 3
	if math.Abs(mean-ev.Top1) > 1e-12 {
		t.Fatalf("per-class mean %v ≠ top1 %v", mean, ev.Top1)
	}
}

func TestTop5WithFewClasses(t *testing.T) {
	// With only 2 classes, top-5 must be 1 for any model (label always
	// among all classes).
	gen, _ := data.NewGenerator(data.SynthConfig{Classes: 2, Groups: 1, H: 8, W: 8, NoiseStd: 0.1, Seed: 3})
	ds := gen.Generate(3, 1)
	net := nn.NewBuilder(1, 8, 8, 2).Flatten().Dense(2).MustBuild()
	ev := Evaluate(net, nil, ds)
	if ev.Top5 != 1 {
		t.Fatalf("top-5 = %v with 2 classes, want 1", ev.Top5)
	}
}

func TestMeanAccuracyOver(t *testing.T) {
	e := Eval{PerClass: []float64{0.5, 1.0, 0.0}, PerClassTop5: []float64{0.6, 1.0, 0.2}}
	if got := MeanAccuracyOver(e, []int{0, 1}); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("mean = %v, want 0.75", got)
	}
	if got := MeanTop5Over(e, []int{0, 2}); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("mean top5 = %v, want 0.4", got)
	}
	if MeanAccuracyOver(e, nil) != 0 {
		t.Fatal("empty subset should give 0")
	}
}

// Property: cross-entropy loss is non-negative and finite for any finite
// logits.
func TestCrossEntropyNonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, c := 1+rng.Intn(4), 2+rng.Intn(5)
		logits := tensor.New(n, c)
		logits.FillNormal(rng, 0, 5)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(c)
		}
		loss, _, err := SoftmaxCrossEntropy(logits, labels)
		return err == nil && loss >= 0 && !math.IsInf(loss, 0) && !math.IsNaN(loss)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Fine-tuning the compacted network is the arithmetic fine-tuning the
// full network under masks was: the pinned hashes were taken by
// installing the same masks on the uncompacted network, fine-tuning it
// and compacting afterwards. One topology is the stacked-pruning
// example's (both convs and the first dense stage pruned, no dropout),
// the other VGG-mini with dropout 0.3 on its FC head and every third
// channel of convs 11–13 pruned.
func TestFineTuneCompactedMatchesMasked(t *testing.T) {
	everyThird := func(net *nn.Network, stages ...int) map[int][]bool {
		masks := map[int][]bool{}
		for _, si := range stages {
			m := make([]bool, net.Stages()[si].Unit.Units())
			for u := 0; u < len(m); u += 3 {
				m[u] = true
			}
			masks[si] = m
		}
		return masks
	}
	stackedCfg := data.DefaultSynthConfig(8)
	stackedCfg.H, stackedCfg.W, stackedCfg.Seed = 12, 12, 13
	for _, tc := range []struct {
		name   string
		net    *nn.Network
		synth  data.SynthConfig
		stages []int
		want   uint64
	}{
		{"stacked-pruning", nn.NewBuilder(1, 12, 12, 5).
			Conv(8).ReLU().Pool().
			Conv(12).ReLU().Pool().
			Flatten().Dense(24).ReLU().Dense(16).ReLU().Dense(8).MustBuild(),
			stackedCfg, []int{0, 1, 2}, 0x35072ca31b956288},
		{"vgg-mini", mustVGG(t, 4), data.DefaultSynthConfig(4), []int{10, 11, 12}, 0xc0cdd40597c83c43},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gen, err := data.NewGenerator(tc.synth)
			if err != nil {
				t.Fatal(err)
			}
			compacted, err := nn.CompactMasked(tc.net, everyThird(tc.net, tc.stages...))
			if err != nil {
				t.Fatal(err)
			}
			if err := FineTune(compacted, gen.Generate(6, 1), nil, 2, 3); err != nil {
				t.Fatal(err)
			}
			if got := hashParams(compacted); got != tc.want {
				t.Fatalf("fine-tuned compacted weights hash to %#x, want %#x (the masked network's)", got, tc.want)
			}
		})
	}
}

func mustVGG(t *testing.T, classes int) *nn.Network {
	t.Helper()
	net, err := nn.BuildVGG(nn.DefaultVGGConfig(classes))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// hashParams is FNV-64a over the bits of every parameter, in layer order.
func hashParams(net *nn.Network) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range net.Params() {
		for _, v := range p.W.Data() {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

func TestAdamLearnsSeparableData(t *testing.T) {
	cfg := data.SynthConfig{Classes: 3, Groups: 3, H: 8, W: 8, GroupMix: 0, NoiseStd: 0.1, MaxShift: 1, Seed: 8}
	gen, err := data.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trainSet := gen.Generate(20, 1)
	valSet := gen.Generate(10, 2)
	net := nn.NewBuilder(1, 8, 8, 9).
		Conv(4).ReLU().Pool().
		Flatten().Dense(16).ReLU().Dense(3).MustBuild()
	tc := Config{Epochs: 8, BatchSize: 8, LR: 0.003, Optimizer: "adam", Seed: 3}
	if _, err := Train(net, trainSet, valSet, tc); err != nil {
		t.Fatal(err)
	}
	if ev := Evaluate(net, nil, valSet); ev.Top1 < 0.8 {
		t.Fatalf("adam val top-1 %.3f below 0.8", ev.Top1)
	}
}

func TestTrainRejectsUnknownOptimizer(t *testing.T) {
	gen, _ := data.NewGenerator(data.SynthConfig{Classes: 2, Groups: 1, H: 4, W: 4, NoiseStd: 0.1, Seed: 1})
	ds := gen.Generate(2, 1)
	net := nn.NewBuilder(1, 4, 4, 1).Flatten().Dense(2).MustBuild()
	tc := Config{Epochs: 1, BatchSize: 2, LR: 0.01, Optimizer: "adagrad"}
	if _, err := Train(net, ds, nil, tc); err == nil {
		t.Fatal("unknown optimizer accepted")
	}
}

func TestAdamStepMovesAgainstGradient(t *testing.T) {
	p := &nn.Param{Name: "w", W: tensor.MustFromSlice([]float64{1}, 1), G: tensor.MustFromSlice([]float64{2}, 1)}
	opt := NewAdam(0.1, 0)
	opt.Step([]*nn.Param{p})
	// First Adam step moves by ≈ lr in the negative gradient direction.
	if p.W.At(0) >= 1 || p.W.At(0) < 0.85 {
		t.Fatalf("w = %v after first adam step, want ≈ 0.9", p.W.At(0))
	}
}

func TestAdamAdaptsStepToGradientScale(t *testing.T) {
	// Two parameters with gradients of very different magnitude receive
	// nearly equal step sizes — Adam's per-parameter normalization.
	big := &nn.Param{Name: "big", W: tensor.New(1), G: tensor.MustFromSlice([]float64{100}, 1)}
	small := &nn.Param{Name: "small", W: tensor.New(1), G: tensor.MustFromSlice([]float64{0.01}, 1)}
	opt := NewAdam(0.1, 0)
	opt.Step([]*nn.Param{big, small})
	rb, rs := -big.W.At(0), -small.W.At(0)
	if rb <= 0 || rs <= 0 {
		t.Fatalf("steps not against gradient: %v %v", rb, rs)
	}
	if rb/rs > 1.5 || rs/rb > 1.5 {
		t.Fatalf("adam steps differ too much: %v vs %v", rb, rs)
	}
}
