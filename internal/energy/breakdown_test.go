package energy

import (
	"math"
	"testing"

	"capnn/internal/hw"
	"capnn/internal/nn"
)

func TestBreakdownSumsToTotal(t *testing.T) {
	net := nn.NewBuilder(1, 8, 8, 1).Conv(4).ReLU().Pool().Flatten().Dense(5).MustBuild()
	layers, total, err := Breakdown(net, hw.DefaultConfig(), PaperTable1())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, l := range layers {
		sum += l.TotalPJ()
	}
	if math.Abs(sum-total) > 1e-6 {
		t.Fatalf("per-layer sum %v ≠ total %v", sum, total)
	}
	// Matches the aggregate estimator exactly.
	whole, err := OfNetwork(net, hw.DefaultConfig(), PaperTable1())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(total-whole) > 1e-6 {
		t.Fatalf("breakdown total %v ≠ OfNetwork %v", total, whole)
	}
}

func TestBreakdownDRAMDominates(t *testing.T) {
	// At Table I energies (DRAM 640 pJ vs SRAM 5 pJ vs MAC 1.4 pJ), DRAM
	// must dominate the conv layer's energy on any realistically sized
	// buffer configuration.
	net := nn.NewBuilder(2, 16, 16, 2).Conv(8).MustBuild()
	layers, _, err := Breakdown(net, hw.DefaultConfig(), PaperTable1())
	if err != nil {
		t.Fatal(err)
	}
	conv := layers[0]
	if conv.DRAMPJ <= conv.SRAMPJ || conv.DRAMPJ <= conv.ComputePJ {
		t.Fatalf("DRAM %v not dominant (SRAM %v, compute %v)", conv.DRAMPJ, conv.SRAMPJ, conv.ComputePJ)
	}
}

func TestBreakdownRejectsBadComponents(t *testing.T) {
	net := nn.NewBuilder(1, 4, 4, 3).Flatten().Dense(2).MustBuild()
	bad := PaperTable1()
	bad.SRAMPJ = -1
	if _, _, err := Breakdown(net, hw.DefaultConfig(), bad); err == nil {
		t.Fatal("negative component accepted")
	}
}
