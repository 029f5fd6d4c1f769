package nn

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"capnn/internal/tensor"
)

// bitEqual reports whether two tensors are bit-for-bit identical —
// the compiled-inference invariant is exact equality, not tolerance.
func bitEqual(t *testing.T, want, got *tensor.Tensor) {
	t.Helper()
	if !want.SameShape(got) {
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
// flatten, then a dense tail, with an occasional dropout.
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
	if rng.Intn(3) == 0 {
		b.Dropout(0.3)
	}
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
	cifar := loadFixtureNet(t, "cifar10")
	mMasks, _ := parseMasks(forwardGoldens[0].mMasks)
	cases := []struct {
		name  string
		net   *Network
		masks map[int][]bool
	}{
		{"small/unpruned", small, nil},
		{"small/pruned", small, map[int][]bool{0: {true, false, false, true}, 2: {false, true, false, false, true}}},
		{"lone-relu/pruned", loneReLU, map[int][]bool{0: {false, true, false, false}}},
		{"cifar10/unpruned", cifar, nil},
		{"cifar10/prune-M", cifar, mMasks},
	}
	forEachRung(t, isaRungs, func(t *testing.T, l isaRung) {
		for _, tc := range cases {
			c, err := Compile(tc.net, tc.masks)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			border := c.borderCells()
			for round, n := range []int{1, 3, 1} {
				poisonScratch(c)
				x := randInput(append([]int{n}, tc.net.InShape...), int64(round))
				bitEqual(t, tc.net.Infer(x, tc.masks), c.Infer(x))
				a := c.pool.Get().(*[]float64)
				for _, i := range border {
					if bits := math.Float64bits((*a)[i]); bits != 0 {
						t.Fatalf("%s n=%d: border cell %d of the arena holds %v (%#x)", tc.name, n, i, (*a)[i], bits)
					}
				}
				c.pool.Put(a)
			}
		}
	})
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

// Dropout layers are elided from the plan; a net with dropout still
// compiles and matches the masked path (dropout is identity at infer).
func TestCompileElidesDropout(t *testing.T) {
	net := NewBuilder(1, 8, 8, 17).Conv(3).ReLU().Pool().Flatten().Dropout(0.5).Dense(6).ReLU().Dropout(0.25).Dense(3).MustBuild()
	masks := map[int][]bool{1: {true, false, true, false, false, true}}
	c, err := Compile(net, masks)
	if err != nil {
		t.Fatal(err)
	}
	x := randInput([]int{2, 1, 8, 8}, 18)
	bitEqual(t, net.Infer(x, masks), c.Infer(x))
}
