package nn

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"capnn/internal/tensor"
)

// bitEqual reports whether two tensors are bit-for-bit identical —
// the compiled-inference invariant is exact equality, not tolerance.
func bitEqual(t *testing.T, want, got *tensor.Tensor) {
	t.Helper()
	if !slices.Equal(want.Shape(), got.Shape()) {
		t.Fatalf("shapes differ: want %v, got %v", want.Shape(), got.Shape())
	}
	wd, gd := want.Data(), got.Data()
	for i := range wd {
		if math.Float64bits(wd[i]) != math.Float64bits(gd[i]) {
			t.Fatalf("elem %d differs bitwise: masked %v (%#x) vs compiled %v (%#x)",
				i, wd[i], math.Float64bits(wd[i]), gd[i], math.Float64bits(gd[i]))
		}
	}
}

// randVGGNet builds a random small VGG-ish network: conv/relu/pool blocks,
// flatten, then a dense tail.
func randVGGNet(rng *rand.Rand) *Network {
	inC := 1 + rng.Intn(3)
	hw := []int{8, 12}[rng.Intn(2)]
	b := NewBuilder(inC, hw, hw, rng.Int63())
	blocks := 1 + rng.Intn(2)
	for i := 0; i < blocks; i++ {
		b.Conv(2 + rng.Intn(5)).ReLU()
		if i == blocks-1 || rng.Intn(2) == 0 {
			b.Pool()
		}
	}
	b.Flatten()
	if rng.Intn(2) == 0 {
		b.Dense(3 + rng.Intn(8)).ReLU()
	}
	b.Dense(2 + rng.Intn(5))
	return b.MustBuild()
}

// randMasks draws a random structured mask set for net, cycling through
// the shapes the issue calls out: nil (nothing pruned), random, a
// single-unit survivor, and all-clear (explicit all-false masks).
func randMasks(rng *rand.Rand, net *Network, variant int) map[int][]bool {
	stages := net.Stages()
	switch variant % 4 {
	case 0:
		return nil
	case 1: // random ~40% pruning, at least one survivor per stage
		masks := map[int][]bool{}
		for _, st := range stages {
			m := make([]bool, st.Unit.Units())
			for j := range m {
				m[j] = rng.Float64() < 0.4
			}
			m[rng.Intn(len(m))] = false
			masks[st.Index] = m
		}
		return masks
	case 2: // single-unit survivor in every stage
		masks := map[int][]bool{}
		for _, st := range stages {
			m := make([]bool, st.Unit.Units())
			for j := range m {
				m[j] = true
			}
			m[rng.Intn(len(m))] = false
			masks[st.Index] = m
		}
		return masks
	default: // all-clear: explicit masks that prune nothing
		masks := map[int][]bool{}
		for _, st := range stages {
			masks[st.Index] = make([]bool, st.Unit.Units())
		}
		return masks
	}
}

// The tentpole property: Compile(net, masks).Infer(x) is bit-for-bit
// net.Infer(x, masks), for random VGG-ish nets and random structured
// masks, batched and single-sample.
func TestCompiledInferBitIdenticalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 24; trial++ {
		net := randVGGNet(rng)
		masks := randMasks(rng, net, trial)
		c, err := Compile(net, masks)
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		for _, n := range []int{1, 5} {
			x := randInput(append([]int{n}, net.InShape...), rng.Int63())
			bitEqual(t, net.Infer(x, masks), c.Infer(x))
		}
	}
}

// Compiled inference must also agree with the compacted network a
// pruned model is fine-tuned and shipped as (CompactMasked, then its
// unmasked Forward) — the plan and that network share their weights'
// order and the kernels.
func TestCompileMatchesInstalledMasks(t *testing.T) {
	net := buildSmallNet(11)
	masks := map[int][]bool{
		0: {true, false, false, true},
		1: {false, true, false, false, true},
		2: {false, false, true, true, false, false, true},
	}
	c, err := Compile(net, masks)
	if err != nil {
		t.Fatal(err)
	}
	x := randInput([]int{3, 2, 8, 8}, 12)
	bitEqual(t, compactedForward(t, net, masks, x), c.Infer(x))
}

// A fully-pruned stage cannot compile; callers get an error (and fall
// back to masked inference) instead of a broken plan.
func TestCompileRejectsEmptyLayer(t *testing.T) {
	net := buildSmallNet(13)
	if _, err := Compile(net, map[int][]bool{0: {true, true, true, true}}); err == nil {
		t.Fatal("compiling an emptied stage should error")
	}
}

// Bytes shrinks with pruning and reflects only the compacted parameters.
func TestCompiledBytesShrink(t *testing.T) {
	net := buildSmallNet(14)
	full, err := Compile(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(net.ParamCount()) * 8; full.Bytes() != want {
		t.Fatalf("unpruned Bytes = %d, want %d", full.Bytes(), want)
	}
	pruned, err := Compile(net, map[int][]bool{0: {true, true, false, false}, 2: {true, false, true, false, true, false, true}})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Bytes() >= full.Bytes() {
		t.Fatalf("pruned Bytes %d not below full %d", pruned.Bytes(), full.Bytes())
	}
}

// borderCells lists the arena index of every border cell of every conv's
// padded plane: the cells no op may store to, whose +0 the taps read.
func (c *Compiled) borderCells() []int {
	var cells []int
	for _, op := range c.ops {
		if op.kind != opConv {
			continue
		}
		g := op.g
		ph, pw := g.inH+2*g.pad, g.inW+2*g.pad
		for i := 0; i < g.padSize(); i++ {
			y, x := i/pw%ph-g.pad, i%pw-g.pad
			if y < 0 || y >= g.inH || x < 0 || x >= g.inW {
				cells = append(cells, op.plane+i)
			}
		}
	}
	return cells
}

// poisonScratch fills with NaN every arena cell the next Infer of one of
// the plans could be handed that is not a plane's border — every
// interior and both dense regions — and a kernel-pool slice the next
// masked Infer could be. An op that reads a cell before its producer
// stored it then returns NaN.
func poisonScratch(plans ...*Compiled) {
	for _, c := range plans {
		a := c.pool.Get().(*[]float64)
		border := map[int]bool{}
		for _, i := range c.borderCells() {
			border[i] = true
		}
		for i := range *a {
			if !border[i] {
				(*a)[i] = math.NaN()
			}
		}
		c.pool.Put(a)
	}
	bp := floatScratch.get(1 << 12)
	for i := range *bp {
		(*bp)[i] = math.NaN()
	}
	floatScratch.Put(bp)
}

// Between calls every interior and dense region of each plan's arena is
// NaN, the batch size alternates, two plans of different widths plus the
// masked oracle share the kernel pool, and the convs read 8×8, 4×4 and
// 2×2 planes: whatever the scratch held, the logits are those of masked
// Infer.
func TestCompiledInferDirtyScratch(t *testing.T) {
	net := NewBuilder(2, 8, 8, 19).Conv(4).ReLU().Pool().Conv(5).ReLU().Pool().Conv(6).ReLU().Flatten().Dense(7).ReLU().Dense(3).MustBuild()
	maskSets := []map[int][]bool{nil, {0: {true, false, false, true}, 1: {false, true, false, false, true}, 2: {false, true, true, false, true, false}}}
	var plans []*Compiled
	for _, masks := range maskSets {
		c, err := Compile(net, masks)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, c)
	}
	for round := 0; round < 3; round++ {
		for _, n := range []int{1, 3, 1, 2} {
			x := randInput([]int{n, 2, 8, 8}, int64(20+round*4+n))
			for i, c := range plans {
				poisonScratch(plans...)
				got := c.Infer(x)
				poisonScratch(plans...)
				bitEqual(t, net.Infer(x, maskSets[i]), got)
			}
		}
	}
}

// TestPlanBordersStayZero holds the arena to its one invariant: after
// every forward, on every rung, at batch sizes 1, 3, 1, with no masks and
// with real ones, every border cell of every padded plane is still +0
// bit for bit — a conv whose input arrives dense (op 0's request, a lone
// ReLU's output) rewrites its own border with +0, and no op stores
// outside an interior. It inspects the arena the pool hands back, which
// is the one the forward ran on unless the pool dropped it.
func TestPlanBordersStayZero(t *testing.T) {
	small := NewBuilder(2, 8, 8, 19).Conv(4).ReLU().Conv(4).ReLU().Pool().Conv(5).ReLU().Pool().Conv(6).ReLU().Flatten().Dense(3).MustBuild()
	loneReLU := NewBuilder(2, 8, 8, 23).Conv(4).Pool().ReLU().Conv(5).ReLU().Flatten().Dense(3).MustBuild()
	// The narrow planes' ZMM tiles: 4×4 planes of 1, 8, 7, 9 and 16
	// channels, 2×2 ones of 23, 26, 32 and 3, dense layers of 128, 70, 17
	// and 10 outputs; some with their ReLU, some storing straight into the
	// next conv's plane without one.
	narrow := NewBuilder(2, 8, 8, 29).Conv(4).ReLU().Pool().
		Conv(1).ReLU().Conv(8).Conv(7).ReLU().Conv(9).Conv(16).ReLU().Pool().
		Conv(23).ReLU().Conv(26).Conv(32).ReLU().Conv(3).ReLU().Pool().
		Flatten().Dense(128).ReLU().Dense(70).Dense(17).ReLU().Dense(10).MustBuild()
	narrowMasks := map[int][]bool{6: make([]bool, 23), 7: make([]bool, 26), 10: make([]bool, 128), 11: make([]bool, 70)}
	for s, m := range narrowMasks {
		for u := range m {
			m[u] = (u+s)%3 == 0
		}
	}
	cifar := loadFixtureNet(t, "cifar10")
	mMasks, _ := parseMasks(forwardGoldens[0].mMasks)
	cases := []struct {
		name  string
		net   *Network
		masks map[int][]bool
		split int // compiled on NewPrefix(net, split), or by Compile at 0
	}{
		{"small/unpruned", small, nil, 0},
		{"small/pruned", small, map[int][]bool{0: {true, false, false, true}, 2: {false, true, false, false, true}}, 0},
		{"lone-relu/pruned", loneReLU, map[int][]bool{0: {false, true, false, false}}, 0},
		{"cifar10/unpruned", cifar, nil, 0},
		{"cifar10/prune-M", cifar, mMasks, 0},
		{"narrow/unpruned", narrow, nil, 0},
		{"narrow/pruned", narrow, narrowMasks, 0},
		{"narrow/split-6", narrow, narrowMasks, 6},
		{"cifar10/split-10/unpruned", cifar, nil, 10},
		{"cifar10/split-10/prune-M", cifar, mMasks, 10},
	}
	forEachRung(t, isaRungs, func(t *testing.T, l isaRung) {
		for _, tc := range cases {
			c, err := compileSplit(tc.net, tc.masks, tc.split)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			plans := []*Compiled{c}
			if h := c.prefix.head(); h != nil {
				plans = append(plans, h)
			}
			for round, n := range []int{1, 3, 1} {
				poisonScratch(plans...)
				x := randInput(append([]int{n}, tc.net.InShape...), int64(round))
				bitEqual(t, tc.net.Infer(x, tc.masks), c.Infer(x))
				for _, p := range plans {
					a := p.pool.Get().(*[]float64)
					for _, i := range p.borderCells() {
						if bits := math.Float64bits((*a)[i]); bits != 0 {
							t.Fatalf("%s n=%d: border cell %d of the arena holds %v (%#x)", tc.name, n, i, (*a)[i], bits)
						}
					}
					p.pool.Put(a)
				}
			}
		}
	})
}

// compileSplit compiles net under masks as the serving tier does when its
// first prunable stage is split: on NewPrefix(net, split), or with
// Compile at split 0.
func compileSplit(net *Network, masks map[int][]bool, split int) (*Compiled, error) {
	if split == 0 {
		return Compile(net, masks)
	}
	p, err := NewPrefix(net, split)
	if err != nil {
		return nil, err
	}
	return p.Compile(masks)
}

// Concurrent Infer calls on one Compiled share the scratch pool but must
// not share state — run under -race and check outputs stay bit-stable,
// each call on scratch another goroutine has just poisoned.
func TestCompiledInferConcurrent(t *testing.T) {
	net := buildSmallNet(15)
	masks := map[int][]bool{0: {true, false, false, true}, 1: {false, true, true, false, false}}
	c, err := Compile(net, masks)
	if err != nil {
		t.Fatal(err)
	}
	x := randInput([]int{4, 2, 8, 8}, 16)
	want := net.Infer(x, masks)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				poisonScratch(c)
				got := c.Infer(x)
				for j, v := range want.Data() {
					if math.Float64bits(v) != math.Float64bits(got.Data()[j]) {
						t.Errorf("concurrent infer diverged at elem %d", j)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// A served fill compacts, lowers and probes only the suffix after the
// shared prefix, copying the kept weights slice to slice: one compile of
// the cifar10 fixture's real M plan on its prefix (split at its first
// prunable stage, 10) stays within 300 allocations (≈ 240 measured; the
// whole-network compile this test bounded at 1 000 made ≈ 600).
func TestCompileAllocs(t *testing.T) {
	net := loadFixtureNet(t, "cifar10")
	masks, _ := parseMasks(forwardGoldens[0].mMasks)
	prefix, err := NewPrefix(net, 10)
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(5, func() {
		if _, err := prefix.Compile(masks); err != nil {
			t.Fatal(err)
		}
	})
	if got > 300 {
		t.Fatalf("a suffix compile of the M plan makes %.0f allocations, want ≤ 300", got)
	}
}

// A plan compiled on a prefix is the whole network's masked Infer, bit
// for bit, at every split of random VGG-ish nets under random masks on
// the stages after it, and shares the prefix's plan: Bytes counts only
// the suffix, and masks that prune a stage inside the prefix are refused.
func TestPrefixCompileBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 12; trial++ {
		net := randVGGNet(rng)
		stages := len(net.Stages())
		for split := 1; split < stages; split++ {
			p, err := NewPrefix(net, split)
			if err != nil {
				t.Fatal(err)
			}
			masks := randMasks(rng, net, trial)
			for s := range masks {
				if s < split {
					delete(masks, s)
				}
			}
			c, err := p.Compile(masks)
			if err != nil {
				t.Fatalf("trial %d split %d: %v", trial, split, err)
			}
			if c.prefix != p {
				t.Fatal("the plan does not report its prefix")
			}
			whole, err := Compile(net, masks)
			if err != nil {
				t.Fatal(err)
			}
			if c.Bytes()+p.Bytes() != whole.Bytes() {
				t.Fatalf("trial %d split %d: suffix %d + prefix %d bytes, want the whole plan's %d", trial, split, c.Bytes(), p.Bytes(), whole.Bytes())
			}
			x := randInput(append([]int{1 + trial%3}, net.InShape...), int64(trial*31+split))
			want := net.Infer(x, masks)
			bitEqual(t, want, c.Infer(x))
			for i, v := range c.InferSample(x.Data()[:c.InSize()]) {
				if math.Float64bits(v) != math.Float64bits(want.Data()[i]) {
					t.Fatalf("trial %d split %d: InferSample logit %d is %v, want %v", trial, split, i, v, want.Data()[i])
				}
			}
			pruneHead := map[int][]bool{split - 1: make([]bool, net.Stages()[split-1].Unit.Units())}
			pruneHead[split-1][0] = true
			if _, err := p.Compile(pruneHead); err == nil {
				t.Fatalf("trial %d split %d: masks pruning stage %d inside the prefix compiled", trial, split, split-1)
			}
		}
	}
	if _, err := NewPrefix(buildSmallNet(3), 4); err == nil {
		t.Fatal("a prefix past the last stage was built")
	}
}
