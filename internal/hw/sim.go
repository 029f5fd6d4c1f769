// Package hw models the paper's local inference device (Fig. 2): a
// TPU-like accelerator with on-chip weight/input/output SRAM buffers, an
// array of MAC units, activation and pooling units, and off-chip DRAM.
// Simulate walks a network layer by layer and produces the operation and
// memory-access counts the analytical energy model of Zhang et al. [14]
// consumes: MACs, ReLU/pool operations, SRAM accesses, and
// buffer-capacity-aware DRAM traffic.
package hw

import (
	"fmt"

	"capnn/internal/nn"
)

// Config describes the device. All buffer sizes are in bytes.
type Config struct {
	// MACUnits is the number of parallel multiply-accumulate units.
	MACUnits int
	// WeightBufBytes, InputBufBytes, OutputBufBytes are the on-chip
	// SRAM buffer capacities.
	WeightBufBytes, InputBufBytes, OutputBufBytes int
	// BytesPerWord is the storage width of weights and activations
	// (the paper uses 16-bit = 2 bytes).
	BytesPerWord int
	// DRAMWordsPerCycle is the off-chip transfer bandwidth used for the
	// cycle estimate.
	DRAMWordsPerCycle int
}

// DefaultConfig is an edge-scale TPU-like device: 256 MACs, 64 KiB weight
// buffer, 32 KiB input buffer, 32 KiB output buffer, 16-bit words.
func DefaultConfig() Config {
	return Config{
		MACUnits:          256,
		WeightBufBytes:    64 << 10,
		InputBufBytes:     32 << 10,
		OutputBufBytes:    32 << 10,
		BytesPerWord:      2,
		DRAMWordsPerCycle: 4,
	}
}

// Validate rejects impossible device descriptions.
func (c Config) Validate() error {
	if c.MACUnits <= 0 || c.WeightBufBytes <= 0 || c.InputBufBytes <= 0 ||
		c.OutputBufBytes <= 0 || c.BytesPerWord <= 0 || c.DRAMWordsPerCycle <= 0 {
		return fmt.Errorf("hw: non-positive field in config %+v", c)
	}
	return nil
}

// Counts aggregates per-inference operation and access totals.
type Counts struct {
	MACs       int64 // multiply-accumulate operations
	ReLUOps    int64
	PoolOps    int64 // one per pooled output element
	SRAMReads  int64 // on-chip reads (words)
	SRAMWrites int64 // on-chip writes (words)
	DRAMReads  int64 // off-chip reads (words)
	DRAMWrites int64 // off-chip writes (words)
	Cycles     int64 // double-buffered max(compute, memory) per layer
}

// Add accumulates o into c.
func (c *Counts) Add(o Counts) {
	c.MACs += o.MACs
	c.ReLUOps += o.ReLUOps
	c.PoolOps += o.PoolOps
	c.SRAMReads += o.SRAMReads
	c.SRAMWrites += o.SRAMWrites
	c.DRAMReads += o.DRAMReads
	c.DRAMWrites += o.DRAMWrites
	c.Cycles += o.Cycles
}

// LayerCounts pairs a layer with its contribution.
type LayerCounts struct {
	Name   string
	Counts Counts
}

// Simulate estimates one inference of a single sample through net on the
// device. Pass a compacted network (nn.CompactMasked) to see the effect
// of pruning: pruned units are physically absent, so every count shrinks.
func Simulate(net *nn.Network, cfg Config) (Counts, []LayerCounts, error) {
	if err := cfg.Validate(); err != nil {
		return Counts{}, nil, err
	}
	var total Counts
	var perLayer []LayerCounts
	for _, l := range net.Layers {
		var lc Counts
		switch t := l.(type) {
		case *nn.Conv2D:
			lc = c.convCounts(t, cfg)
		case *nn.Dense:
			lc = c.denseCounts(t, cfg)
		case *nn.ReLU:
			elems := int64(shapeElems(t.OutShape()))
			lc.ReLUOps = elems
			lc.SRAMReads = elems
			lc.SRAMWrites = elems
			lc.Cycles = elems / int64(cfg.MACUnits)
		case *nn.MaxPool2D:
			in := int64(shapeElems(t.InShape()))
			out := int64(shapeElems(t.OutShape()))
			lc.PoolOps = out
			lc.SRAMReads = in
			lc.SRAMWrites = out
			lc.Cycles = in / int64(cfg.MACUnits)
		case *nn.Flatten:
			// Pure reindexing: free on the device.
		default:
			return Counts{}, nil, fmt.Errorf("hw: unsupported layer type %T", l)
		}
		total.Add(lc)
		perLayer = append(perLayer, LayerCounts{Name: l.Name(), Counts: lc})
	}
	return total, perLayer, nil
}

// c groups the unit-layer counting rules.
var c counter

type counter struct{}

// convCounts models a weight-stationary pass: every weight is fetched
// from DRAM exactly once; the input feature map is fetched once if it
// fits in the input buffer, otherwise once per weight tile; outputs are
// written back once. SRAM sees two reads per MAC (weight + activation)
// and one write per output element.
func (counter) convCounts(l *nn.Conv2D, cfg Config) Counts {
	in := l.InShape()   // [C, H, W]
	out := l.OutShape() // [C, H, W]
	inWords := int64(in[0] * in[1] * in[2])
	outWords := int64(out[0] * out[1] * out[2])
	weightWords := int64(paramWords(l))
	macsPerOut := int64(in[0]) * int64(l.Kernel()) * int64(l.Kernel())
	macs := outWords * macsPerOut
	return memoryModel(macs, inWords, outWords, weightWords, cfg)
}

func (counter) denseCounts(l *nn.Dense, cfg Config) Counts {
	in := int64(l.InShape()[0])
	out := int64(l.OutShape()[0])
	weightWords := int64(paramWords(l))
	macs := in * out
	return memoryModel(macs, in, out, weightWords, cfg)
}

func memoryModel(macs, inWords, outWords, weightWords int64, cfg Config) Counts {
	var lc Counts
	lc.MACs = macs
	lc.SRAMReads = 2 * macs
	lc.SRAMWrites = outWords
	wBytes := weightWords * int64(cfg.BytesPerWord)
	inBytes := inWords * int64(cfg.BytesPerWord)
	wTiles := ceilDiv(wBytes, int64(cfg.WeightBufBytes))
	inPasses := int64(1)
	if inBytes > int64(cfg.InputBufBytes) {
		inPasses = wTiles
	}
	lc.DRAMReads = weightWords + inWords*inPasses
	lc.DRAMWrites = outWords
	compute := ceilDiv(macs, int64(cfg.MACUnits))
	memory := ceilDiv(lc.DRAMReads+lc.DRAMWrites, int64(cfg.DRAMWordsPerCycle))
	if compute > memory {
		lc.Cycles = compute
	} else {
		lc.Cycles = memory
	}
	return lc
}

func paramWords(l nn.Layer) int {
	n := 0
	for _, p := range l.Params() {
		n += p.W.Len()
	}
	return n
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

func shapeElems(s []int) int {
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}
