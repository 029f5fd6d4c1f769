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
// single-unit survivor, and all-clear (explicit all-false masks). The
// output stage is never pruned, as no mask source prunes it: all-clear
// gives it an explicit mask that prunes nothing, the others none.
func randMasks(rng *rand.Rand, net *Network, variant int) map[int][]bool {
	stages := net.Stages()
	hidden := stages[:len(stages)-1]
	switch variant % 4 {
	case 0:
		return nil
	case 1: // random ~40% pruning, at least one survivor per stage
		masks := map[int][]bool{}
		for s, st := range hidden {
			m := make([]bool, st.Unit.Units())
			for j := range m {
				m[j] = rng.Float64() < 0.4
			}
			m[rng.Intn(len(m))] = false
			masks[s] = m
		}
		return masks
	case 2: // single-unit survivor in every stage
		masks := map[int][]bool{}
		for s, st := range hidden {
			m := make([]bool, st.Unit.Units())
			for j := range m {
				m[j] = true
			}
			m[rng.Intn(len(m))] = false
			masks[s] = m
		}
		return masks
	default: // all-clear: explicit masks that prune nothing
		masks := map[int][]bool{}
		for s, st := range stages {
			masks[s] = make([]bool, st.Unit.Units())
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
	// Pooled convs storing into the next plane: tiles overlapping on 12×20
	// and 6×10 planes (the 8-wide ZMM tile), on 6×6 (the 4-wide one) and on
	// 6×2 (the lane tile, three row pairs); odd planes (3×5, 3×3) and a
	// pool without its ReLU take the scratch slab.
	pooled := NewBuilder(2, 12, 20, 31).Conv(5).ReLU().Pool().Conv(9).ReLU().Pool().Conv(8).Pool().Flatten().Dense(3).MustBuild()
	pooledNarrow := NewBuilder(3, 6, 6, 37).Conv(9).ReLU().Pool().Conv(4).ReLU().Pool().Flatten().Dense(3).MustBuild()
	lanes := NewBuilder(2, 6, 2, 41).Conv(17).ReLU().Pool().Conv(3).Flatten().Dense(2).MustBuild()
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
		{"pooled/unpruned", pooled, nil, 0},
		{"pooled-narrow/unpruned", pooledNarrow, nil, 0},
		{"lanes/unpruned", lanes, nil, 0},
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

// Every pool of the cifar10 plans, unpruned and under the real M masks,
// is fused into the conv before it: no pool or ReLU op is left, five
// convs store pooled, and the arena holds no full-resolution slab.
func TestPlanFusesPools(t *testing.T) {
	net := loadFixtureNet(t, "cifar10")
	mMasks, _ := parseMasks(forwardGoldens[0].mMasks)
	for _, masks := range []map[int][]bool{nil, mMasks} {
		c, err := Compile(net, masks)
		if err != nil {
			t.Fatal(err)
		}
		pooled := 0
		for i, op := range c.ops {
			if op.kind == opPool || op.kind == opReLU {
				t.Fatalf("op %d is a pass of its own (kind %d)", i, op.kind)
			}
			if op.pool {
				pooled++
			}
		}
		if pooled != 5 {
			t.Fatalf("%d convs store pooled, want 5", pooled)
		}
		// lay puts the two dense regions first, op 0's plane after them.
		if dense := c.ops[0].plane; dense > 2*128 {
			t.Fatalf("the arena's dense regions are %d floats, want the dense ops' 2×128 at most", dense)
		}
	}
}

// TestLaneTilesExact holds the border-free lane tiles to DESIGN §6's
// argument where it is thinnest: convs on 4×4 and 2×2 planes whose biases
// are +0 and −0, on inputs with all-zero channels (+0 and −0) and near
// 1e-300 against weights that include ±0 and ±1e-30 (products underflow
// to ±0 mid-chain), with and without their ReLU, pooled and not. Each net
// is compiled whole and on a prefix (its first conv), and both plans must
// be masked Infer bit for bit on every rung. A conv with a non-finite
// weight must keep every tap, and on AVX-512 both cifar10 plans must send
// convs 7–12, and nothing else, to the lane tiles.
func TestLaneTilesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	var nets []*Network
	for _, relu := range []bool{false, true} {
		for _, pool := range []bool{false, true} {
			for _, c := range [][2]int{{3, 9}, {17, 26}} {
				for _, arch := range []struct{ hw, pool1 int }{{4, 0}, {4, 1}, {2, 0}} {
					b := NewBuilder(3, arch.hw, arch.hw, rng.Int63()).Conv(c[0])
					if relu {
						b.ReLU()
					}
					if arch.pool1 == 1 {
						b.Pool()
					}
					b.Conv(c[1])
					if relu {
						b.ReLU()
					}
					if pool {
						b.Pool()
					}
					net := b.MustBuild()
					for _, st := range net.Stages() {
						conv := st.Unit.(*Conv2D)
						for o := range conv.b.W.Data() {
							conv.b.W.Data()[o] = math.Copysign(0, float64(o/4%2*2-1))
						}
						for i := range conv.w.W.Data() {
							conv.w.W.Data()[i] = laneWeight(rng, i/(conv.inC*9), i%9/3, i%3)
						}
					}
					nets = append(nets, net)
				}
			}
		}
	}
	forEachRung(t, isaRungs, func(t *testing.T, l isaRung) {
		for k, net := range nets {
			x := tensor.New(append([]int{4}, net.InShape...)...)
			hw := net.InShape[1] * net.InShape[2]
			for i, v := range x.Data() {
				s, ch := i/(3*hw), i/hw%3
				switch {
				case s == 0 || s == 1 && ch == 0:
				case s == 1 && ch == 1:
					v = math.Copysign(0, -1)
				case s == 2 && ch != 2:
					v = rng.NormFloat64()
				default:
					v = 1e-300 * rng.NormFloat64()
				}
				x.Data()[i] = v
			}
			want := net.Infer(x, nil)
			for split := 0; split < 2; split++ {
				c, err := compileSplit(net, nil, split)
				if err != nil {
					t.Fatalf("net %d split %d: %v", k, split, err)
				}
				bitEqual(t, want, c.Infer(x))
			}
		}
		// A non-finite weight makes w·(+0) NaN, so its op keeps every tap.
		g := convGeom{inC: 1, inH: 2, inW: 2, outC: 3, outH: 2, outW: 2, k: 3, pad: 1}
		wd := make([]float64, 27)
		wd[0] = math.Inf(1)
		op := newConvOp(g, wd, make([]float64, 3))
		if op.fuseReLU(); op.onLanes() {
			t.Fatal("a conv with an infinite weight takes the lane tiles")
		}
		if !l.avx512 {
			return
		}
		cifar := loadFixtureNet(t, "cifar10")
		mMasks, _ := parseMasks(forwardGoldens[0].mMasks)
		for _, masks := range []map[int][]bool{nil, mMasks} {
			c, err := Compile(cifar, masks)
			if err != nil {
				t.Fatal(err)
			}
			for i := range c.ops {
				if got, want := c.ops[i].onLanes(), i >= 7 && i <= 12; got != want {
					t.Fatalf("cifar10 op %d (%+v) on the lane tiles: %v, want %v", i, c.ops[i].g, got, want)
				}
			}
		}
	})
}

// laneWeight draws tap (ky, kx)'s weight of output channel o. One channel
// in four is drawn whole from N(0, 1) with a ±0 one time in eight and
// ±1e-30 scaling two in eight; the rest are all ±1e-30-scaled, positive on
// the kernel's top row and left column and negative elsewhere, positive
// on its bottom row and right column and negative elsewhere, or of random
// sign. On zero or near-1e-300 inputs their products are ±0, so an
// output's sum is a zero whose sign a border tap decides: +0 where its
// product is +0, −0 where skipping it leaves only −0 terms after a −0 bias.
func laneWeight(rng *rand.Rand, o, ky, kx int) float64 {
	w := rng.NormFloat64()
	switch o % 4 {
	case 0:
		switch rng.Intn(8) {
		case 0:
			return math.Copysign(0, w)
		case 1, 2:
			return w * 1e-30
		}
		return w
	case 1:
		w = math.Copysign(w, float64(btoi(ky == 0 || kx == 0)*2-1))
	case 2:
		w = math.Copysign(w, float64(btoi(ky == 2 || kx == 2)*2-1))
	}
	return w * 1e-30
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
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
