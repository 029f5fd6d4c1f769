package nn

import (
	"math"
	"math/rand"
	"testing"

	"capnn/internal/tensor"
)

// numericalGrad estimates d(loss)/d(param) by central differences, where
// loss(x) = Σ out² / 2 so that dLoss/dOut = out.
func lossAndGrad(net *Network, x *tensor.Tensor) (float64, *tensor.Tensor) {
	out := net.Forward(x)
	loss := 0.0
	for _, v := range out.Data() {
		loss += v * v / 2
	}
	return loss, out
}

func checkGradients(t *testing.T, net *Network, x *tensor.Tensor, tol float64) {
	t.Helper()
	net.ZeroGrad()
	_, out := lossAndGrad(net, x)
	net.Backward(out.Clone()) // dLoss/dOut = out

	const h = 1e-5
	for _, p := range net.Params() {
		w, g := p.W.Data(), p.G.Data()
		// Spot-check a deterministic sample of entries to keep runtime low.
		step := len(w)/7 + 1
		for i := 0; i < len(w); i += step {
			orig := w[i]
			w[i] = orig + h
			lp, _ := lossAndGrad(net, x)
			w[i] = orig - h
			lm, _ := lossAndGrad(net, x)
			w[i] = orig
			num := (lp - lm) / (2 * h)
			if diff := math.Abs(num - g[i]); diff > tol*(1+math.Abs(num)) {
				t.Errorf("param %s[%d]: analytic %.8f vs numeric %.8f", p.Name, i, g[i], num)
			}
		}
	}
}

func randInput(shape []int, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(shape...)
	x.FillNormal(rng, 0, 1)
	return x
}

func TestConvGradients(t *testing.T) {
	net := NewBuilder(2, 5, 5, 3).ConvK(3, 3, 1, 1).MustBuild()
	checkGradients(t, net, randInput([]int{2, 2, 5, 5}, 1), 1e-5)
}

func TestConvGradientsStride2NoPad(t *testing.T) {
	net := NewBuilder(2, 6, 6, 4).ConvK(3, 3, 2, 0).MustBuild()
	checkGradients(t, net, randInput([]int{1, 2, 6, 6}, 2), 1e-5)
}

func TestDenseGradients(t *testing.T) {
	net := NewBuilder(1, 1, 6, 5).Flatten().Dense(4).MustBuild()
	checkGradients(t, net, randInput([]int{3, 1, 1, 6}, 3), 1e-5)
}

func TestReluGradients(t *testing.T) {
	net := NewBuilder(1, 1, 8, 6).Flatten().Dense(5).ReLU().Dense(3).MustBuild()
	checkGradients(t, net, randInput([]int{2, 1, 1, 8}, 4), 1e-5)
}

func TestPoolGradients(t *testing.T) {
	net := NewBuilder(2, 4, 4, 7).ConvK(2, 3, 1, 1).ReLU().Pool().Flatten().Dense(3).MustBuild()
	checkGradients(t, net, randInput([]int{2, 2, 4, 4}, 5), 1e-4)
}

func TestFullStackGradients(t *testing.T) {
	net := NewBuilder(1, 8, 8, 8).
		Conv(3).ReLU().Pool().
		Conv(4).ReLU().Pool().
		Flatten().Dense(6).ReLU().Dense(3).MustBuild()
	checkGradients(t, net, randInput([]int{2, 1, 8, 8}, 6), 1e-4)
}

// A pruned model is fine-tuned compacted: the compacted conv's analytic
// gradient for each surviving weight must be the numeric derivative of
// the masked network's loss (net.Infer under the masks), and the pruned
// channels have no weights left to receive any.
func TestMaskedConvGradientsSkipPrunedChannels(t *testing.T) {
	net := NewBuilder(1, 4, 4, 9).Conv(4).MustBuild()
	masks := map[int][]bool{0: {false, true, false, true}}
	x := randInput([]int{1, 1, 4, 4}, 7)
	cnet, err := CompactMasked(net, masks)
	if err != nil {
		t.Fatal(err)
	}
	conv, cconv := net.Layers[0].(*Conv2D), cnet.Layers[0].(*Conv2D)
	if cconv.outC != 2 {
		t.Fatalf("compacted conv keeps %d channels, want 2", cconv.outC)
	}
	checkGradients(t, cnet, x, 1e-5)
	maskedLoss := func() float64 {
		loss := 0.0
		for _, v := range net.Infer(x, masks).Data() {
			loss += v * v / 2
		}
		return loss
	}
	const h = 1e-5
	w, g := conv.w.W.Data(), cconv.w.G.Data()
	per := conv.inC * conv.k * conv.k
	for ci, oc := range []int{0, 2} { // the surviving channels
		for i := 0; i < per; i++ {
			orig := w[oc*per+i]
			w[oc*per+i] = orig + h
			lp := maskedLoss()
			w[oc*per+i] = orig - h
			lm := maskedLoss()
			w[oc*per+i] = orig
			num := (lp - lm) / (2 * h)
			if diff := math.Abs(num - g[ci*per+i]); diff > 1e-5*(1+math.Abs(num)) {
				t.Errorf("channel %d weight %d: compacted gradient %.8f vs masked numeric %.8f", oc, i, g[ci*per+i], num)
			}
		}
	}
}
