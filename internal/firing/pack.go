package firing

import (
	"encoding/gob"
	"fmt"
	"io"
	"slices"
)

// PackedRates is the cloud storage format of §V-C: every rate matrix
// linearly quantized and bit-packed. This is what the paper's 3.6 MB /
// 1.3% overhead figure measures, so the codec packs densely rather than
// byte-aligning each code.
type PackedRates struct {
	Classes   int
	Bits      int
	Layers    []PackedLayer
	Confusion [][]int // Rates.Confusion verbatim: not quantized, not in TotalBytes
}

// PackedLayer is one stage's bit-packed matrix.
type PackedLayer struct {
	Stage   int
	Units   int
	Classes int
	// Data holds Units×Classes codes of Bits bits each, LSB-first.
	Data []byte
}

// Pack quantizes and bit-packs every layer of r.
func Pack(r *Rates, bits int) (*PackedRates, error) {
	if bits < 1 || bits > 8 {
		return nil, fmt.Errorf("firing: pack bits %d outside [1,8]", bits)
	}
	p := &PackedRates{Classes: r.Classes, Bits: bits, Confusion: cloneCounts(r.Confusion)}
	for _, lr := range sortedLayers(r) {
		q, err := Quantize(lr, bits)
		if err != nil {
			return nil, err
		}
		pl := PackedLayer{Stage: lr.Stage, Units: lr.Units, Classes: lr.Classes,
			Data: make([]byte, (len(q.Codes)*bits+7)/8)}
		for i, code := range q.Codes {
			writeBits(pl.Data, i*bits, bits, code)
		}
		p.Layers = append(p.Layers, pl)
	}
	return p, nil
}

// Unpack reconstructs (dequantized) rate matrices and copies the
// confusion counts, checking every shape before sizing anything from it.
func (p *PackedRates) Unpack() (*Rates, error) {
	if p.Bits < 1 || p.Bits > 8 || p.Classes < 1 {
		return nil, fmt.Errorf("firing: unpack %d bits (want [1,8]) of %d classes", p.Bits, p.Classes)
	}
	for k, row := range p.Confusion { // absent counts stay absent
		if len(p.Confusion) != p.Classes || len(row) != len(p.Confusion[0]) || slices.ContainsFunc(row, func(n int) bool { return n < 0 }) {
			return nil, fmt.Errorf("firing: confusion row %d is not one of %d rows of %d non-negative counts", k, p.Classes, len(p.Confusion[0]))
		}
	}
	r := &Rates{Classes: p.Classes, Layers: map[int]*LayerRates{}, Confusion: cloneCounts(p.Confusion)}
	for _, pl := range p.Layers {
		if pl.Units < 1 || pl.Classes != p.Classes {
			return nil, fmt.Errorf("firing: stage %d packs %d units × %d classes, want ≥ 1 × %d", pl.Stage, pl.Units, pl.Classes, p.Classes)
		}
		if codes := len(pl.Data) * 8 / p.Bits; pl.Units > codes/pl.Classes { // no product wraps
			return nil, fmt.Errorf("firing: stage %d packed data %d bytes cannot hold %d units × %d classes", pl.Stage, len(pl.Data), pl.Units, pl.Classes)
		}
		q := &Quantized{Stage: pl.Stage, Units: pl.Units, Classes: pl.Classes, Bits: p.Bits, Codes: make([]uint8, pl.Units*pl.Classes)}
		for i := range q.Codes {
			q.Codes[i] = readBits(pl.Data, i*p.Bits, p.Bits)
		}
		r.Layers[pl.Stage] = q.Dequantize()
	}
	return r, nil
}

// TotalBytes is the packed payload size over all layers.
func (p *PackedRates) TotalBytes() int {
	n := 0
	for _, pl := range p.Layers {
		n += len(pl.Data)
	}
	return n
}

// writeBits stores the low `bits` bits of code at bit offset off,
// LSB-first within each byte.
func writeBits(dst []byte, off, bits int, code uint8) {
	for b := 0; b < bits; b++ {
		if code&(1<<b) != 0 {
			dst[(off+b)/8] |= 1 << uint((off+b)%8)
		}
	}
}

// readBits extracts `bits` bits at bit offset off.
func readBits(src []byte, off, bits int) uint8 {
	var v uint8
	for b := 0; b < bits; b++ {
		if src[(off+b)/8]&(1<<uint((off+b)%8)) != 0 {
			v |= 1 << b
		}
	}
	return v
}

func sortedLayers(r *Rates) []*LayerRates {
	var stages []int
	for s := range r.Layers {
		stages = append(stages, s)
	}
	slices.Sort(stages)
	out := make([]*LayerRates, 0, len(stages))
	for _, s := range stages {
		out = append(out, r.Layers[s])
	}
	return out
}

// LoadPacked reads gob-encoded packed rates (the on-disk / wire format
// the cloud keeps next to the model).
func LoadPacked(r io.Reader) (*PackedRates, error) {
	var p PackedRates
	if err := gob.NewDecoder(r).Decode(&p); err != nil {
		return nil, err
	}
	return &p, nil
}
