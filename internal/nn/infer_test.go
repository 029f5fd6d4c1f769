package nn

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"capnn/internal/tensor"
)

// inferTestNet builds a small conv/pool/dense stack with deterministic
// weights, shaped like the reference model's tail.
func inferTestNet(t testing.TB) *Network {
	t.Helper()
	net, err := NewBuilder(1, 12, 12, 7).
		Conv(6).ReLU().Pool().
		Conv(8).ReLU().Pool().
		Flatten().Dense(12).ReLU().Dropout(0.3).Dense(4).Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func randBatch(n int, shape []int, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(append([]int{n}, shape...)...)
	x.FillNormal(rng, 0, 1)
	return x
}

// checkerMasks prunes every other unit of every stage except the output
// layer (which CAP'NN never prunes).
func checkerMasks(net *Network) map[int][]bool {
	stages := net.Stages()
	masks := map[int][]bool{}
	for _, st := range stages[:len(stages)-1] {
		m := make([]bool, st.Unit.Units())
		for u := range m {
			m[u] = u%2 == 1
		}
		masks[st.Index] = m
	}
	return masks
}

// compactedForward is Forward on the network CompactMasked builds under
// masks — the network a pruned model is fine-tuned as.
func compactedForward(t *testing.T, net *Network, masks map[int][]bool, x *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	cnet, err := CompactMasked(net, masks)
	if err != nil {
		t.Fatal(err)
	}
	return cnet.Forward(x)
}

// Infer must reproduce Forward bit for bit, masked and unmasked — masked
// through the compacted network: both paths route through the one kernel
// layer (kernels.go), so the same accumulation order — and a pruned
// input's term being exactly a `w·(+0)` addition — is not approximate
// but exact.
func TestInferMatchesForward(t *testing.T) {
	net := inferTestNet(t)
	x := randBatch(5, net.InShape, 11)
	for name, masks := range map[string]map[int][]bool{
		"unmasked": nil,
		"masked":   checkerMasks(net),
	} {
		want := compactedForward(t, net, masks, x)
		got := net.Infer(x, masks)
		if !want.SameShape(got) {
			t.Fatalf("%s: shape %v vs %v", name, want.Shape(), got.Shape())
		}
		for i, w := range want.Data() {
			if w != got.Data()[i] {
				t.Fatalf("%s: logit %d diverges: Forward %v, Infer %v (want bit-identical)", name, i, w, got.Data()[i])
			}
		}
	}
}

// InferLayers (the suffix-replay primitive) must match Forward of the
// network compacted under the same masks, bit for bit, wherever the
// layer slice is cut: firstStage keeps the whole network's mask indexing.
func TestInferLayersMatchesForward(t *testing.T) {
	net := inferTestNet(t)
	x := randBatch(4, net.InShape, 13)
	masks := checkerMasks(net)
	want := compactedForward(t, net, masks, x)
	stage := 0
	for cut, l := range net.Layers {
		got := InferLayers(net.Layers[cut:], stage, masks, InferLayers(net.Layers[:cut], 0, masks, x))
		for i, w := range want.Data() {
			if w != got.Data()[i] {
				t.Fatalf("cut at layer %d: logit %d diverges: Forward %v, InferLayers %v", cut, i, w, got.Data()[i])
			}
		}
		if _, ok := l.(UnitLayer); ok {
			stage++
		}
	}
}

// A batched Infer must equal the concatenation of per-sample Infers, bit
// for bit: a sample's answer does not depend on the batch it rides in,
// whichever kernel path the batch size picks (a dense layer runs its
// rows as a 1×1 conv from four up, the Go loop below).
// SuffixEvaluator's class-subset replay rests on it. The nets: this
// file's, random VGG-ish ones under random masks, and the cifar10
// fixture under its real M masks, whose 128-wide dense layers a 16-row
// replay shard runs on the ZMM tile.
func TestInferBatchEqualsPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mMasks, _ := parseMasks(forwardGoldens[0].mMasks)
	own := inferTestNet(t)
	type netCase struct {
		net   *Network
		masks map[int][]bool
	}
	cases := []netCase{{own, checkerMasks(own)}, {loadFixtureNet(t, "cifar10"), mMasks}}
	for trial := 0; trial < 6; trial++ {
		net := randVGGNet(rng)
		cases = append(cases, netCase{net, randMasks(rng, net, trial)})
	}
	for i, c := range cases {
		per := shapeElems(c.net.InShape)
		for _, n := range []int{2, 3, 4, 5, 6, 7, 8, 15, 16, 17, 32} {
			batch := randBatch(n, c.net.InShape, rng.Int63())
			got := c.net.Infer(batch, c.masks)
			classes := got.Len() / n
			for s := 0; s < n; s++ {
				one := tensor.MustFromSlice(batch.Data()[s*per:(s+1)*per], append([]int{1}, c.net.InShape...)...)
				sameBits(t, fmt.Sprintf("net %d n=%d sample %d", i, n, s), c.net.Infer(one, c.masks).Data(), got.Data()[s*classes:(s+1)*classes])
			}
		}
	}
}

func TestInferMaskLengthPanics(t *testing.T) {
	net := inferTestNet(t)
	defer func() {
		if recover() == nil {
			t.Fatal("short mask did not panic")
		}
	}()
	net.Infer(randBatch(1, net.InShape, 1), map[int][]bool{0: {true}})
}

// Stateful Forward writes per-layer caches; Infer reads only the weights
// and takes its masks as an argument. Run Infer from many goroutines
// while another drives stateful Forwards and compacts under masks, and
// let -race be the judge.
func TestInferConcurrentWithMaskMutation(t *testing.T) {
	net := inferTestNet(t)
	masks := checkerMasks(net)
	x := randBatch(2, net.InShape, 5)
	stop := make(chan struct{})
	var mutator, servers sync.WaitGroup
	mutator.Add(1)
	go func() { // the stateful side: layer caches written on every pass
		defer mutator.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			net.Forward(x)
			if _, err := CompactMasked(net, masks); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		servers.Add(1)
		go func(seed int64) { // the serving side: stateless, mask-as-argument
			defer servers.Done()
			mine := randBatch(3, net.InShape, seed)
			for i := 0; i < 50; i++ {
				out := net.Infer(mine, masks)
				if out.Dim(0) != 3 {
					t.Errorf("bad output shape %v", out.Shape())
					return
				}
			}
		}(int64(g))
	}
	servers.Wait() // serving goroutines finish first; then stop the mutator
	close(stop)
	mutator.Wait()
}

func BenchmarkInferVsForward(b *testing.B) {
	net := inferTestNet(b)
	masks := checkerMasks(net)
	x := randBatch(8, net.InShape, 2)
	b.Run("forward", func(b *testing.B) { // the compacted network, as fine-tuning runs it
		cnet, err := CompactMasked(net, masks)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cnet.Forward(x)
		}
	})
	b.Run("infer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			net.Infer(x, masks)
		}
	})
}
