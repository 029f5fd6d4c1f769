package energy

import (
	"math"
	"testing"

	"capnn/internal/hw"
	"capnn/internal/nn"
)

func TestPaperTable1Values(t *testing.T) {
	c := PaperTable1()
	if c.AddPJ != 0.4 || c.MulPJ != 1.0 || c.MaxPoolPJ != 1.2 || c.ReLUPJ != 0.9 || c.SRAMPJ != 5 || c.DRAMPJ != 640 {
		t.Fatalf("Table I energies wrong: %+v", c)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsNegative(t *testing.T) {
	c := PaperTable1()
	c.DRAMPJ = -1
	if err := c.Validate(); err == nil {
		t.Fatal("negative energy accepted")
	}
}

func TestEstimateLinear(t *testing.T) {
	c := PaperTable1()
	counts := hw.Counts{MACs: 10, PoolOps: 2, ReLUOps: 3, SRAMReads: 4, SRAMWrites: 1, DRAMReads: 2, DRAMWrites: 1}
	want := 10*(0.4+1.0) + 2*1.2 + 3*0.9 + 5*5.0 + 3*640.0
	if got := Estimate(counts, c); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Estimate = %v, want %v", got, want)
	}
	// DRAM dominates: one DRAM access outweighs hundreds of MACs.
	dramOnly := Estimate(hw.Counts{DRAMReads: 1}, c)
	macsOnly := Estimate(hw.Counts{MACs: 100}, c)
	if dramOnly <= macsOnly {
		t.Fatal("DRAM access should dominate 100 MACs at Table I energies")
	}
}

func TestOfNetworkPositive(t *testing.T) {
	net := nn.NewBuilder(1, 8, 8, 1).Conv(3).ReLU().Pool().Flatten().Dense(4).MustBuild()
	e, err := OfNetwork(net, hw.DefaultConfig(), PaperTable1())
	if err != nil {
		t.Fatal(err)
	}
	if e <= 0 {
		t.Fatalf("energy %v not positive", e)
	}
}

func TestRelative(t *testing.T) {
	r, err := Relative(30, 100)
	if err != nil || r != 0.3 {
		t.Fatalf("Relative = %v (%v)", r, err)
	}
	if _, err := Relative(1, 0); err == nil {
		t.Fatal("zero original accepted")
	}
}

// DESIGN.md invariant 7: pruning can only reduce energy; no pruning gives
// exactly ratio 1.
func TestRelativeOfMasksInvariant(t *testing.T) {
	net := nn.NewBuilder(1, 8, 8, 2).Conv(4).ReLU().Pool().Flatten().Dense(6).ReLU().Dense(3).MustBuild()
	dev, comp := hw.DefaultConfig(), PaperTable1()

	noop := map[int][]bool{0: make([]bool, 4), 1: make([]bool, 6)}
	r, err := RelativeOfMasks(net, noop, dev, comp)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-1) > 1e-12 {
		t.Fatalf("no-op pruning ratio %v, want 1", r)
	}

	masks := map[int][]bool{0: {true, true, false, false}, 1: {true, false, false, true, false, false}}
	r, err = RelativeOfMasks(net, masks, dev, comp)
	if err != nil {
		t.Fatal(err)
	}
	if r >= 1 || r <= 0 {
		t.Fatalf("pruned ratio %v outside (0,1)", r)
	}
}

func TestMorePruningLessEnergy(t *testing.T) {
	net := nn.NewBuilder(1, 8, 8, 3).Conv(8).ReLU().Pool().Flatten().Dense(8).ReLU().Dense(3).MustBuild()
	dev, comp := hw.DefaultConfig(), PaperTable1()
	light := map[int][]bool{0: {true, false, false, false, false, false, false, false}}
	heavy := map[int][]bool{0: {true, true, true, true, true, false, false, false}}
	rLight, err := RelativeOfMasks(net, light, dev, comp)
	if err != nil {
		t.Fatal(err)
	}
	rHeavy, err := RelativeOfMasks(net, heavy, dev, comp)
	if err != nil {
		t.Fatal(err)
	}
	if rHeavy >= rLight {
		t.Fatalf("heavier pruning %v not cheaper than lighter %v", rHeavy, rLight)
	}
}
