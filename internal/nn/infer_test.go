package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
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
		Flatten().Dense(12).ReLU().Dense(4).Build()
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
	for s, st := range stages[:len(stages)-1] {
		m := make([]bool, st.Unit.Units())
		for u := range m {
			m[u] = u%2 == 1
		}
		masks[s] = m
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
		if !slices.Equal(want.Shape(), got.Shape()) {
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

// withForm runs f with the masked walk's form chosen by form in place of
// minorFrom's rule.
func withForm(form func(l unitForward, n int) bool, f func()) {
	defer func(rule func(unitForward, int) bool) { minorFrom = rule }(minorFrom)
	minorFrom = form
	f()
}

// The walk's two forms — sample by sample, and sample-minor from a unit
// layer on — must agree bit for bit, on every rung this CPU has: forced
// per-image throughout, sample-minor from the first narrow unit layer
// (the rule, whatever the rows and rung) and from the first unit layer
// (wide planes too). Nets: random VGG-ish ones, one of odd plane sizes
// (13×11, pooled to 6×5 and 3×2) with a lone ReLU after a pool and a conv
// without ReLU, and the cifar10 fixture under its real M masks; each also
// under masks that prune every other unit — whole conv channels — and a
// logits unit, and under masks that leave one unit a stage. Every other
// batch seeds one input in five with NaN, ±0, ±Inf or subnormals: the
// per-image walk may run a geometry on the Go loop that the sample-minor
// one runs on the tiles, and which NaN payload the two return is open
// (sameValues), so those batches compare NaN as NaN. The observed
// post-ReLU slabs are compared too.
func TestInferMinorMatchesPerImage(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	odd := NewBuilder(2, 13, 11, 5).Conv(5).ReLU().Pool().ReLU().Conv(6).ReLU().Pool().Conv(7).Flatten().Dense(9).ReLU().Dense(4).MustBuild()
	nets := []*Network{loadFixtureNet(t, "cifar10"), odd}
	for i := 0; i < 3; i++ {
		nets = append(nets, randVGGNet(rng))
	}
	mMasks, _ := parseMasks(forwardGoldens[0].mMasks)
	type netCase struct {
		net   *Network
		masks map[int][]bool
	}
	var cases []netCase
	for i, net := range nets {
		checker := checkerMasks(net)
		last := len(net.Stages()) - 1
		checker[last] = make([]bool, net.Stages()[last].Unit.Units())
		checker[last][1] = true
		cases = append(cases, netCase{net, checker}, netCase{net, randMasks(rng, net, 2)})
		if i == 0 {
			cases = append(cases, netCase{net, mMasks})
		}
	}
	forms := []struct {
		name string
		from func(l unitForward, n int) bool
	}{
		{"narrow", func(l unitForward, _ int) bool { return l.planeW() < minorBelow }},
		{"first", func(unitForward, int) bool { return true }},
	}
	forEachRung(t, isaRungs, func(t *testing.T, l isaRung) {
		for i, c := range cases {
			for k, n := range []int{8, 9, 15, 16, 17, 32, 33} {
				x := randBatch(n, c.net.InShape, rng.Int63())
				same := sameBits
				if k%2 == 1 {
					fillSpecial(rng, x.Data(), 5)
					same = sameValues
				}
				run := func(from func(unitForward, int) bool) (all []float64) {
					withForm(from, func() {
						logits := inferLayers(c.net.Layers, 0, c.masks, x, func(_ int, post *tensor.Tensor) { all = append(all, post.Data()...) })
						all = append(all, logits.Data()...)
					})
					return all
				}
				want := run(func(unitForward, int) bool { return false })
				for _, f := range forms {
					same(t, fmt.Sprintf("case %d n=%d: sample-minor from the %s unit layer against per-image", i, n, f.name), want, run(f.from))
				}
			}
		}
	})
}

// The walk's activations live in slabs from floatScratch, which arrive
// holding whatever their last user left, and the kernels skip pruned
// units. Under masks that prune whole conv channels, dense neurons and a
// logits unit, Infer, InferLayers and the observed walk (its post-ReLU
// slabs included) on a pool of NaN slabs must match their run on an
// emptied pool bit for bit, and the pruned logit must read +0 in both.
// Rows: 3 runs the dense layers on the Go loop, 16 as a 1×1 conv; on a
// CPU with AVX2, 16 and 17 run the second conv on sample-minor.
func TestInferDirtySlabs(t *testing.T) {
	net := inferTestNet(t)
	masks := checkerMasks(net)
	stages := net.Stages()
	out := len(stages) - 1
	masks[out] = make([]bool, stages[out].Unit.Units())
	masks[out][1] = true
	const split = 3 // InferLayers from the second conv (stage 1) on
	for _, n := range []int{3, 16, 17} {
		x := randBatch(n, net.InShape, int64(n))
		run := func() []float64 {
			var all []float64
			logits := inferLayers(net.Layers, 0, masks, x, func(_ int, post *tensor.Tensor) { all = append(all, post.Data()...) })
			for o := 0; o < n; o++ {
				if v := logits.At(o, 1); math.Float64bits(v) != 0 {
					t.Fatalf("n=%d row %d: pruned logit %v, want +0", n, o, v)
				}
			}
			all = append(all, logits.Data()...)
			all = append(all, net.Infer(x, masks).Data()...)
			return append(all, InferLayers(net.Layers[split:], 1, masks, InferLayers(net.Layers[:split], 0, masks, x)).Data()...)
		}
		for floatScratch.Get() != nil { // empty the pool
		}
		want := run()
		for i := 0; i < 8; i++ {
			slab := make([]float64, 1<<15)
			for j := range slab {
				slab[j] = math.NaN()
			}
			floatScratch.Put(&slab)
		}
		sameBits(t, fmt.Sprintf("n=%d on NaN slabs", n), want, run())
	}
}

// A 16-row suffix replay shard allocates the same few objects whatever
// the depth it starts at — the result tensor; every activation lives in
// a pooled slab. The cifar10 fixture under its real M masks, from each
// unit layer on.
func TestInferLayersAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts")
	}
	net := loadFixtureNet(t, "cifar10")
	masks, _ := parseMasks(forwardGoldens[0].mMasks)
	x := randBatch(16, net.InShape, 1)
	stage := 0
	for at, l := range net.Layers {
		if _, ok := l.(UnitLayer); !ok {
			continue
		}
		in := InferLayers(net.Layers[:at], 0, nil, x)
		for i := 0; i < 4; i++ { // let the pooled slabs grow to this walk's sizes
			InferLayers(net.Layers[at:], stage, masks, in)
		}
		if got := allocsNoGC(10, func() { InferLayers(net.Layers[at:], stage, masks, in) }); got > 6 {
			t.Fatalf("InferLayers from layer %d (stage %d) makes %.1f allocations per 16-row shard, want ≤ 6 at any depth", at, stage, got)
		}
		stage++
	}
}

// allocsNoGC is testing.AllocsPerRun with the collector held off: a GC
// cycle mid-measurement can empty the scratch sync.Pool, and the slabs it
// drops are then allocated again.
func allocsNoGC(runs int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}

// A mask of the wrong length panics at any stage, sample-minor (16 rows
// on a CPU with AVX2, from the second conv on) as well as per-image.
func TestInferMaskLengthPanics(t *testing.T) {
	net := inferTestNet(t)
	for s := range net.Stages() {
		for _, n := range []int{1, 16} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("short mask at stage %d, %d rows, did not panic", s, n)
					}
				}()
				net.Infer(randBatch(n, net.InShape, 1), map[int][]bool{s: {true}})
			}()
		}
	}
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
