package data

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"
)

func TestGeneratorDeterministic(t *testing.T) {
	cfg := DefaultSynthConfig(8)
	g1, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := NewGenerator(cfg)
	a := g1.Generate(3, 7)
	b := g2.Generate(3, 7)
	if len(a.Images) != len(b.Images) {
		t.Fatal("sizes differ")
	}
	for i := range a.Images {
		if a.Images[i] != b.Images[i] {
			t.Fatal("same seed produced different data")
		}
	}
}

func TestGeneratorSetSeedsDisjoint(t *testing.T) {
	g, _ := NewGenerator(DefaultSynthConfig(4))
	a := g.Generate(2, 1)
	b := g.Generate(2, 2)
	same := true
	for i := range a.Images {
		if a.Images[i] != b.Images[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different set seeds produced identical data")
	}
}

func TestGenerateShapeAndLabels(t *testing.T) {
	cfg := DefaultSynthConfig(5)
	g, _ := NewGenerator(cfg)
	ds := g.Generate(4, 1)
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 20 {
		t.Fatalf("Len = %d, want 20", ds.Len())
	}
	per := ds.ByClass()
	for c, idx := range per {
		if len(idx) != 4 {
			t.Fatalf("class %d has %d samples, want 4", c, len(idx))
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []SynthConfig{
		{Classes: 1, Groups: 1, H: 8, W: 8},
		{Classes: 4, Groups: 0, H: 8, W: 8},
		{Classes: 4, Groups: 5, H: 8, W: 8},
		{Classes: 4, Groups: 2, H: 2, W: 8},
		{Classes: 4, Groups: 2, H: 8, W: 8, GroupMix: 1.0},
		{Classes: 4, Groups: 2, H: 8, W: 8, NoiseStd: -1},
		{Classes: 4, Groups: 2, H: 8, W: 8, MaxShift: 8},
		{Classes: 4, Groups: 2, H: 8, W: 8, GroupMix: math.NaN()},
		{Classes: 4, Groups: 2, H: 8, W: 8, NoiseStd: math.NaN()},
		{Classes: 4, Groups: 2, H: 8, W: 8, NoiseStd: math.Inf(1)},
	}
	for i, cfg := range bad {
		if _, err := NewGenerator(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestPrototypesNormalizedAndGrouped(t *testing.T) {
	cfg := DefaultSynthConfig(8)
	cfg.Groups = 2
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < cfg.Classes; c++ {
		p := g.Prototype(c)
		mean, sq := 0.0, 0.0
		for _, v := range p {
			mean += v
		}
		mean /= float64(len(p))
		for _, v := range p {
			sq += (v - mean) * (v - mean)
		}
		std := math.Sqrt(sq / float64(len(p)))
		if math.Abs(mean) > 1e-9 || math.Abs(std-1) > 1e-9 {
			t.Fatalf("class %d prototype mean=%v std=%v", c, mean, std)
		}
	}
	// First half of classes in group 0, second half in group 1.
	if g.Group(0) != 0 || g.Group(7) != 1 {
		t.Fatalf("grouping wrong: %d %d", g.Group(0), g.Group(7))
	}
}

// Same-group prototypes correlate more strongly than cross-group ones —
// the structural property the miseffectual-neuron experiments rely on.
func TestGroupsInduceCorrelationStructure(t *testing.T) {
	cfg := DefaultSynthConfig(8)
	cfg.Groups = 2
	g, _ := NewGenerator(cfg)
	corr := func(a, b []float64) float64 {
		s := 0.0
		for i := range a {
			s += a[i] * b[i]
		}
		return s / float64(len(a))
	}
	within := corr(g.Prototype(0), g.Prototype(1))  // same group
	between := corr(g.Prototype(0), g.Prototype(7)) // different groups
	if within <= between {
		t.Fatalf("within-group corr %v not above between-group %v", within, between)
	}
	if within < 0.2 {
		t.Fatalf("within-group corr %v too weak for confusion structure", within)
	}
}

func TestBatchAssembly(t *testing.T) {
	g, _ := NewGenerator(DefaultSynthConfig(3))
	ds := g.Generate(2, 1)
	x, labels := ds.Batch([]int{0, 3, 5})
	if x.Dim(0) != 3 || x.Dim(1) != 1 || x.Dim(2) != 32 {
		t.Fatalf("batch shape %v", x.Shape())
	}
	if labels[0] != ds.Labels[0] || labels[2] != ds.Labels[5] {
		t.Fatal("labels misaligned")
	}
	img := ds.Image(3)
	for i, v := range x.Data()[1*ds.ImageSize() : 2*ds.ImageSize()] {
		if v != img[i] {
			t.Fatal("pixels misaligned")
		}
	}
}

func TestSubsetAndFilterClasses(t *testing.T) {
	g, _ := NewGenerator(DefaultSynthConfig(4))
	ds := g.Generate(3, 1)
	sub := ds.Subset([]int{0, 4, 8})
	if sub.Len() != 3 {
		t.Fatalf("subset len %d", sub.Len())
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	f := ds.FilterClasses([]int{1, 3})
	if f.Len() != 6 {
		t.Fatalf("filtered len %d, want 6", f.Len())
	}
	for _, l := range f.Labels {
		if l != 1 && l != 3 {
			t.Fatalf("unexpected label %d", l)
		}
	}
	// Labels are preserved, not re-indexed.
	if f.Classes != 4 {
		t.Fatal("FilterClasses changed class space")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g, _ := NewGenerator(DefaultSynthConfig(3))
	ds := g.Generate(1, 1)
	ds.Labels[0] = 99
	if err := ds.Validate(); err == nil {
		t.Fatal("bad label accepted")
	}
	ds.Labels[0] = 0
	ds.Images = ds.Images[:len(ds.Images)-1]
	if err := ds.Validate(); err == nil {
		t.Fatal("truncated pixels accepted")
	}
}

func TestMakeSetsDisjointSplits(t *testing.T) {
	g, _ := NewGenerator(DefaultSynthConfig(4))
	sets := MakeSets(g, SetSizes{2, 2, 2, 2})
	for _, ds := range []*Dataset{sets.Train, sets.Val, sets.Test, sets.Profile} {
		if err := ds.Validate(); err != nil {
			t.Fatal(err)
		}
		if ds.Len() != 8 {
			t.Fatalf("split len %d, want 8", ds.Len())
		}
	}
	// Train and Val must differ (different set seeds).
	same := true
	for i := range sets.Train.Images {
		if sets.Train.Images[i] != sets.Val.Images[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("train and val splits identical")
	}
}

// Property: every generated sample has finite pixel values.
func TestSamplesFiniteProperty(t *testing.T) {
	g, _ := NewGenerator(DefaultSynthConfig(4))
	f := func(seed int64) bool {
		ds := g.Generate(1, seed)
		for _, v := range ds.Images {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateCountsImbalance(t *testing.T) {
	gen, _ := NewGenerator(DefaultSynthConfig(4))
	ds, err := gen.GenerateCounts([]int{5, 0, 2, 1}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	per := ds.ByClass()
	want := []int{5, 0, 2, 1}
	for c, idx := range per {
		if len(idx) != want[c] {
			t.Fatalf("class %d has %d samples, want %d", c, len(idx), want[c])
		}
	}
	if _, err := gen.GenerateCounts([]int{1, 2}, 1); err == nil {
		t.Fatal("wrong count length accepted")
	}
	if _, err := gen.GenerateCounts([]int{1, -1, 0, 0}, 1); err == nil {
		t.Fatal("negative count accepted")
	}
}

// TestMakeSetsGolden pins every bit of the four splits the cifar10
// reference fixture draws (exp.CIFAR10Config's generator and sizes; this
// package cannot import exp): the FNV-64a of each split's image bits and
// labels, Train, Val, Test, Profile in turn. The hash was recorded when
// the splits were still drawn one after another, so drawing them
// concurrently, or reshaping the sampler's loops, must leave it as is.
func TestMakeSetsGolden(t *testing.T) {
	cfg := DefaultSynthConfig(10)
	cfg.NoiseStd, cfg.GroupMix, cfg.Seed = 1.5, 0.75, 2
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sets := MakeSets(g, SetSizes{TrainPerClass: 50, ValPerClass: 40, TestPerClass: 25, ProfilePerClass: 40})
	h := fnv.New64a()
	var b [8]byte
	for _, ds := range []*Dataset{sets.Train, sets.Val, sets.Test, sets.Profile} {
		for _, v := range ds.Images {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		for _, l := range ds.Labels {
			binary.LittleEndian.PutUint64(b[:], uint64(l))
			h.Write(b[:])
		}
	}
	if got, want := fmt.Sprintf("%016x", h.Sum64()), "91e2c743fe1afb9b"; got != want {
		t.Fatalf("MakeSets hash %s, want %s", got, want)
	}
}

// The accessors below only the tests read.

// Group returns the confusion group of class c.
func (g *Generator) Group(c int) int { return g.group[c] }

// Prototype returns class c's noiseless prototype (a copy).
func (g *Generator) Prototype(c int) []float64 {
	return append([]float64(nil), g.protos[c]...)
}
