package firing

import "fmt"

// Quantized is a firing-rate matrix compressed with linear b-bit
// quantization (paper §V-C stores 3-bit rates in the cloud).
type Quantized struct {
	Stage   int
	Units   int
	Classes int
	Bits    int
	Codes   []uint8 // one code per (unit, class), values in [0, 2^Bits)
}

// Quantize compresses a rate matrix to bits-bit codes. bits must be in
// [1,8]. Rates are clamped to [0,1] before coding.
func Quantize(lr *LayerRates, bits int) (*Quantized, error) {
	if bits < 1 || bits > 8 {
		return nil, fmt.Errorf("firing: quantize bits %d outside [1,8]", bits)
	}
	levels := float64(int(1)<<bits - 1)
	q := &Quantized{Stage: lr.Stage, Units: lr.Units, Classes: lr.Classes, Bits: bits, Codes: make([]uint8, len(lr.F))}
	for i, v := range lr.F {
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		q.Codes[i] = uint8(v*levels + 0.5)
	}
	return q, nil
}

// Dequantize reconstructs an approximate rate matrix.
func (q *Quantized) Dequantize() *LayerRates {
	levels := float64(int(1)<<q.Bits - 1)
	lr := &LayerRates{Stage: q.Stage, Units: q.Units, Classes: q.Classes, F: make([]float64, len(q.Codes))}
	for i, c := range q.Codes {
		lr.F[i] = float64(c) / levels
	}
	return lr
}

// PackedBytes is the storage the quantized matrix needs with dense bit
// packing: ceil(entries × bits / 8).
func (q *Quantized) PackedBytes() int {
	bits := len(q.Codes) * q.Bits
	return (bits + 7) / 8
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
	p, err := Pack(r, bits)
	if err != nil {
		return Overhead{}, err
	}
	total, model := p.TotalBytes(), paramCount*2
	ov := Overhead{RateBytes: total, ModelBytes: model}
	if model > 0 {
		ov.Ratio = float64(total) / float64(model)
	}
	return ov, nil
}
