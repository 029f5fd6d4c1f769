package energy

import (
	"capnn/internal/hw"
	"capnn/internal/nn"
)

// LayerEnergy is one layer's contribution to a network's per-inference
// energy, split by component family.
type LayerEnergy struct {
	Name      string
	ComputePJ float64 // MAC + pool + ReLU units
	SRAMPJ    float64
	DRAMPJ    float64
}

// TotalPJ is the layer's total energy.
func (l LayerEnergy) TotalPJ() float64 { return l.ComputePJ + l.SRAMPJ + l.DRAMPJ }

// Breakdown simulates one inference and returns per-layer energies plus
// the total, letting callers see *where* CAP'NN's savings land (DRAM
// traffic dominates at the paper's Table I energies).
func Breakdown(net *nn.Network, dev hw.Config, c Components) ([]LayerEnergy, float64, error) {
	if err := c.Validate(); err != nil {
		return nil, 0, err
	}
	_, perLayer, err := hw.Simulate(net, dev)
	if err != nil {
		return nil, 0, err
	}
	out := make([]LayerEnergy, len(perLayer))
	total := 0.0
	for i, lc := range perLayer {
		out[i] = price(lc.Name, lc.Counts, c)
		total += out[i].TotalPJ()
	}
	return out, total, nil
}
