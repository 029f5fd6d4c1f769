package firing

import "fmt"

// Quantize returns a copy of r whose every rate is rounded to the nearest
// of 2^bits evenly spaced levels in [0,1] (paper §V-C stores 3-bit rates
// in the cloud), clamped to [0,1] first. Confusion counts are copied
// verbatim. bits must be in [1,8].
func Quantize(r *Rates, bits int) (*Rates, error) {
	if err := checkBits(bits); err != nil {
		return nil, err
	}
	levels := float64(int(1)<<bits - 1)
	q := r.Clone()
	for _, lr := range q.Layers {
		for i, v := range lr.F {
			v = min(max(v, 0), 1)
			lr.F[i] = float64(uint8(v*levels+0.5)) / levels
		}
	}
	return q, nil
}

func checkBits(bits int) error {
	if bits < 1 || bits > 8 {
		return fmt.Errorf("firing: quantize bits %d outside [1,8]", bits)
	}
	return nil
}

// PackedBytes is the storage one rate matrix needs at bits bits per
// entry with dense bit packing: ⌈units × classes × bits / 8⌉.
func PackedBytes(lr *LayerRates, bits int) int {
	return (lr.Units*lr.Classes*bits + 7) / 8
}

// Overhead reports the cloud-side memory overhead of storing firing
// rates, the paper's §V-C accounting.
type Overhead struct {
	// RateBytes is the packed storage for all rate matrices.
	RateBytes int
	// ModelBytes is the unpruned model's weight storage at 16-bit
	// precision, the paper's reference point.
	ModelBytes int
	// Ratio is RateBytes / ModelBytes.
	Ratio float64
}

// MemoryOverhead computes the §V-C overhead of storing the given rates at
// the given bit width against a model with paramCount 16-bit parameters.
func MemoryOverhead(r *Rates, bits int, paramCount int) (Overhead, error) {
	if err := checkBits(bits); err != nil {
		return Overhead{}, err
	}
	ov := Overhead{ModelBytes: paramCount * 2}
	for _, lr := range r.Layers {
		ov.RateBytes += PackedBytes(lr, bits)
	}
	if ov.ModelBytes > 0 {
		ov.Ratio = float64(ov.RateBytes) / float64(ov.ModelBytes)
	}
	return ov, nil
}
