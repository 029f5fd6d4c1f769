// Package energy implements the analytical energy model the paper adapts
// from Zhang et al. [14]: per-inference energy is the weighted sum of MAC
// operations, activation/pooling operations, and SRAM/DRAM accesses, with
// per-component energies taken from the paper's Table I (sourced from
// Han et al. [4] and Nazemi et al. [10]).
package energy

import (
	"fmt"

	"capnn/internal/hw"
	"capnn/internal/nn"
)

// Components holds per-operation energies in picojoules.
type Components struct {
	AddPJ     float64 // 16-bit adder
	MulPJ     float64 // 16-bit multiplier
	MaxPoolPJ float64 // max-pool unit, per pooled output
	ReLUPJ    float64 // ReLU unit, per activation
	SRAMPJ    float64 // per SRAM word access
	DRAMPJ    float64 // per DRAM word access
}

// PaperTable1 returns the component energies of the paper's Table I.
func PaperTable1() Components {
	return Components{AddPJ: 0.4, MulPJ: 1.0, MaxPoolPJ: 1.2, ReLUPJ: 0.9, SRAMPJ: 5, DRAMPJ: 640}
}

// Validate rejects non-physical component tables.
func (c Components) Validate() error {
	for _, v := range []float64{c.AddPJ, c.MulPJ, c.MaxPoolPJ, c.ReLUPJ, c.SRAMPJ, c.DRAMPJ} {
		if v < 0 {
			return fmt.Errorf("energy: negative component energy in %+v", c)
		}
	}
	return nil
}

// Estimate converts hardware counts into total picojoules: each MAC costs
// one multiply plus one add; memory accesses cost per word.
func Estimate(counts hw.Counts, c Components) float64 {
	return float64(counts.MACs)*(c.AddPJ+c.MulPJ) +
		float64(counts.PoolOps)*c.MaxPoolPJ +
		float64(counts.ReLUOps)*c.ReLUPJ +
		float64(counts.SRAMReads+counts.SRAMWrites)*c.SRAMPJ +
		float64(counts.DRAMReads+counts.DRAMWrites)*c.DRAMPJ
}

// OfNetwork simulates one inference of net on the device and returns its
// energy in picojoules. The network must be compacted (unmasked).
func OfNetwork(net *nn.Network, dev hw.Config, c Components) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	counts, _, err := hw.Simulate(net, dev)
	if err != nil {
		return 0, err
	}
	return Estimate(counts, c), nil
}

// Relative returns pruned / original energy — the normalized energy the
// paper reports in Table I and Table III.
func Relative(pruned, original float64) (float64, error) {
	if original <= 0 {
		return 0, fmt.Errorf("energy: non-positive original energy %v", original)
	}
	return pruned / original, nil
}

// RelativeOfMasks compacts net under masks and returns the compacted
// model's energy relative to the unmasked model. net is only read.
func RelativeOfMasks(net *nn.Network, masks map[int][]bool, dev hw.Config, c Components) (float64, error) {
	orig, err := OfNetwork(net, dev, c)
	if err != nil {
		return 0, err
	}
	compact, err := nn.CompactMasked(net, masks)
	if err != nil {
		return 0, err
	}
	pruned, err := OfNetwork(compact, dev, c)
	if err != nil {
		return 0, err
	}
	return Relative(pruned, orig)
}
