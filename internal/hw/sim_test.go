package hw

import (
	"testing"

	"capnn/internal/nn"
)

func smallNet() *nn.Network {
	return nn.NewBuilder(2, 8, 8, 1).
		Conv(4).ReLU().Pool().
		Flatten().Dense(10).ReLU().Dense(3).MustBuild()
}

func TestSimulateCountsKnownValues(t *testing.T) {
	net := smallNet()
	counts, perLayer, err := Simulate(net, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// conv: out 4×8×8 = 256 elems × (2 in × 9) = 4608 MACs.
	// dense1: 160 in? flatten = 4×4×4 = 64 → 10: 640 MACs; dense2: 30.
	wantMACs := int64(256*18 + 64*10 + 10*3)
	if counts.MACs != wantMACs {
		t.Fatalf("MACs = %d, want %d", counts.MACs, wantMACs)
	}
	// ReLU ops: 256 (conv out) + 10 (fc out).
	if counts.ReLUOps != 266 {
		t.Fatalf("ReLUOps = %d, want 266", counts.ReLUOps)
	}
	// Pool ops: 4×4×4 = 64 outputs.
	if counts.PoolOps != 64 {
		t.Fatalf("PoolOps = %d, want 64", counts.PoolOps)
	}
	if len(perLayer) != len(net.Layers) {
		t.Fatalf("per-layer entries %d, want %d", len(perLayer), len(net.Layers))
	}
	// SRAM reads = 2 per MAC plus ReLU (266) and pool-window (256) reads.
	if want := 2*counts.MACs + 266 + 256; counts.SRAMReads != want {
		t.Fatalf("SRAMReads = %d, want %d", counts.SRAMReads, want)
	}
	if counts.Cycles <= 0 || counts.DRAMReads <= 0 {
		t.Fatalf("inconsistent counts %+v", counts)
	}
}

func TestSimulateRejectsBadConfig(t *testing.T) {
	if _, _, err := Simulate(smallNet(), Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestCompactionReducesEveryCount(t *testing.T) {
	net := smallNet()
	full, _, err := Simulate(net, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	compact, err := nn.CompactMasked(net, map[int][]bool{
		0: {true, true, false, false},
		1: {true, true, true, true, true, false, false, false, false, false},
	})
	if err != nil {
		t.Fatal(err)
	}
	pruned, _, err := Simulate(compact, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if pruned.MACs >= full.MACs || pruned.DRAMReads >= full.DRAMReads ||
		pruned.SRAMReads >= full.SRAMReads || pruned.Cycles > full.Cycles {
		t.Fatalf("pruning did not reduce counts: full %+v pruned %+v", full, pruned)
	}
}

func TestWeightTilingIncreasesInputTraffic(t *testing.T) {
	// A dense layer whose weights exceed the weight buffer must refetch
	// the input once per weight tile.
	net := nn.NewBuilder(1, 1, 64, 2).Flatten().Dense(512).MustBuild()
	small := DefaultConfig()
	small.WeightBufBytes = 1 << 10 // 1 KiB: 64×512×2B = 64 KiB → 64 tiles
	small.InputBufBytes = 16       // force input respill
	big := DefaultConfig()
	cSmall, _, err := Simulate(net, small)
	if err != nil {
		t.Fatal(err)
	}
	cBig, _, err := Simulate(net, big)
	if err != nil {
		t.Fatal(err)
	}
	if cSmall.DRAMReads <= cBig.DRAMReads {
		t.Fatalf("tiny buffers did not increase DRAM traffic: %d vs %d", cSmall.DRAMReads, cBig.DRAMReads)
	}
	// Weights are still fetched exactly once in both cases.
	weightWords := int64(64*512 + 512)
	if cBig.DRAMReads < weightWords {
		t.Fatalf("weight words undercounted: %d < %d", cBig.DRAMReads, weightWords)
	}
}

func TestVGGSimulation(t *testing.T) {
	net, err := nn.BuildVGG(nn.DefaultVGGConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	counts, perLayer, err := Simulate(net, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if counts.MACs < 500_000 {
		t.Fatalf("VGG-mini MACs %d suspiciously low", counts.MACs)
	}
	// Early conv layers dominate MACs (large spatial maps).
	var convMACs, fcMACs int64
	for _, lc := range perLayer {
		switch lc.Name[:2] {
		case "co":
			convMACs += lc.Counts.MACs
		case "fc":
			fcMACs += lc.Counts.MACs
		}
	}
	if convMACs <= fcMACs {
		t.Fatalf("conv MACs %d not dominant over FC %d", convMACs, fcMACs)
	}
}

func TestCountsAdd(t *testing.T) {
	a := Counts{MACs: 1, ReLUOps: 2, PoolOps: 3, SRAMReads: 4, SRAMWrites: 5, DRAMReads: 6, DRAMWrites: 7, Cycles: 8}
	b := a
	a.Add(b)
	if a.MACs != 2 || a.Cycles != 16 || a.DRAMWrites != 14 {
		t.Fatalf("Add wrong: %+v", a)
	}
}

func TestCeilDiv(t *testing.T) {
	if ceilDiv(10, 3) != 4 || ceilDiv(9, 3) != 3 || ceilDiv(0, 3) != 0 {
		t.Fatal("ceilDiv wrong")
	}
	if ceilDiv(5, 0) != 0 {
		t.Fatal("ceilDiv by zero should yield 0")
	}
}
