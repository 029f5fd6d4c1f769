package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// buildSmallNet builds a conv→relu→pool→conv→relu→pool→flatten→fc→relu→fc
// network small enough for exhaustive equivalence checks.
func buildSmallNet(seed int64) *Network {
	return NewBuilder(2, 8, 8, seed).
		Conv(4).ReLU().Pool().
		Conv(5).ReLU().Pool().
		Flatten().Dense(7).ReLU().Dense(4).MustBuild()
}

// Invariant 1 of DESIGN.md: masked inference and compacted inference
// compute identical outputs.
func TestCompactEquivalentToMasking(t *testing.T) {
	net := buildSmallNet(1)
	masks := map[int][]bool{
		0: {true, false, false, true},
		1: {false, true, false, false, true},
		2: {false, false, true, true, false, false, true},
	}
	x := randInput([]int{3, 2, 8, 8}, 2)
	masked := net.Infer(x, masks)
	cnet, err := CompactMasked(net, masks)
	if err != nil {
		t.Fatal(err)
	}
	compact := cnet.Forward(x)
	if !masked.SameShape(compact) {
		t.Fatalf("shapes differ: %v vs %v", masked.Shape(), compact.Shape())
	}
	for i, v := range masked.Data() {
		if math.Abs(v-compact.Data()[i]) > 1e-9 {
			t.Fatalf("output %d differs: masked %v vs compact %v", i, v, compact.Data()[i])
		}
	}
}

// Property test over random masks: equivalence holds for any mask pattern
// that does not empty a layer.
func TestCompactEquivalenceProperty(t *testing.T) {
	net := buildSmallNet(3)
	x := randInput([]int{2, 2, 8, 8}, 4)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		masks := map[int][]bool{}
		for i, units := range []int{4, 5, 7} {
			m := make([]bool, units)
			kept := 0
			for j := range m {
				m[j] = rng.Float64() < 0.4
				if !m[j] {
					kept++
				}
			}
			if kept == 0 {
				m[0] = false // keep at least one unit
			}
			masks[i] = m
		}
		masked := net.Infer(x, masks)
		cnet, err := CompactMasked(net, masks)
		if err != nil {
			return false
		}
		compact := cnet.Forward(x)
		for i, v := range masked.Data() {
			if math.Abs(v-compact.Data()[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCompactReducesParamCount(t *testing.T) {
	net := buildSmallNet(5)
	orig := net.ParamCount()
	cnet, err := CompactMasked(net, map[int][]bool{0: {true, true, false, false}})
	if err != nil {
		t.Fatal(err)
	}
	if cnet.ParamCount() >= orig {
		t.Fatalf("compact params %d not below original %d", cnet.ParamCount(), orig)
	}
	rel := RelativeSize(net, cnet)
	if rel <= 0 || rel >= 1 {
		t.Fatalf("relative size %v outside (0,1)", rel)
	}
}

func TestCompactNoPruningIsIdentity(t *testing.T) {
	net := buildSmallNet(6)
	cnet, err := CompactMasked(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cnet.ParamCount() != net.ParamCount() {
		t.Fatalf("no-op compact changed params %d → %d", net.ParamCount(), cnet.ParamCount())
	}
	if RelativeSize(net, cnet) != 1 {
		t.Fatal("no-op relative size ≠ 1")
	}
}

func TestCompactRejectsEmptyLayer(t *testing.T) {
	net := buildSmallNet(7)
	if _, err := CompactMasked(net, map[int][]bool{0: {true, true, true, true}}); err == nil {
		t.Fatal("compacting an emptied layer should error")
	}
}

// Compacted networks must survive a serialization round trip and still
// agree with the masked original — this is exactly what the cloud sends
// to the device.
func TestCompactSerializeRoundTrip(t *testing.T) {
	net := buildSmallNet(8)
	cnet, err := CompactMasked(net, map[int][]bool{1: {true, false, false, false, true}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, cnet); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := randInput([]int{1, 2, 8, 8}, 9)
	a, b := cnet.Forward(x), loaded.Forward(x)
	for i, v := range a.Data() {
		if math.Abs(v-b.Data()[i]) > 1e-12 {
			t.Fatal("round-tripped compact net diverges")
		}
	}
}

// A deeper chain with two pool/flatten transitions and pruning in every
// prunable stage, mirroring the VGG tail the experiments compact.
func TestCompactDeepVGGTail(t *testing.T) {
	net, err := BuildVGG(DefaultVGGConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	masks := map[int][]bool{}
	for _, si := range []int{10, 11, 12, 13, 14} {
		stages := net.Stages()
		units := stages[si].Unit.Units()
		m := make([]bool, units)
		for j := 0; j < units/3; j++ {
			m[j*2] = true
		}
		masks[si] = m
	}
	x := randInput([]int{2, 1, 32, 32}, 77)
	masked := net.Infer(x, masks)
	cnet, err := CompactMasked(net, masks)
	if err != nil {
		t.Fatal(err)
	}
	compact := cnet.Forward(x)
	for i, v := range masked.Data() {
		if math.Abs(v-compact.Data()[i]) > 1e-9 {
			t.Fatalf("VGG tail compaction diverges at %d", i)
		}
	}
	if cnet.ParamCount() >= net.ParamCount() {
		t.Fatal("compaction did not shrink VGG")
	}
}

func TestCloneNetworkIndependent(t *testing.T) {
	net := buildSmallNet(21)
	clone, err := CloneNetwork(net)
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the clone's weights must not touch the original.
	p0 := clone.Params()[0]
	orig := net.Params()[0].W.At(0, 0, 0, 0)
	p0.W.Set(orig+42, 0, 0, 0, 0)
	if net.Params()[0].W.At(0, 0, 0, 0) != orig {
		t.Fatal("clone shares weight storage")
	}
	x := randInput([]int{1, 2, 8, 8}, 22)
	a := net.Forward(x)
	b := clone.Forward(x)
	same := true
	for i := range a.Data() {
		if a.Data()[i] != b.Data()[i] {
			same = false
		}
	}
	if same {
		t.Fatal("clone mutation had no effect — not a real copy?")
	}
}
