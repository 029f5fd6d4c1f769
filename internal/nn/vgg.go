package nn

import "fmt"

// VGGConfig describes a VGG-16-style classifier: 13 convolutional layers
// (3×3, step 1, pad 1) in the canonical 2-2-3-3-3 block pattern with a
// 2×2 max-pool after each block, followed by two hidden fully-connected
// layers and the output layer. Every conv and hidden FC layer is followed
// by a ReLU.
//
// The paper evaluates on full VGG-16 (widths 64..512, FC 4096). This
// repository's reference model keeps the identical topology but narrows
// the widths so the network is trainable from scratch in pure Go on one
// CPU core (see DESIGN.md §1).
type VGGConfig struct {
	InC, InH, InW int
	// Widths are the 13 conv output-channel counts, block pattern
	// [2,2,3,3,3]. len(Widths) must be 13.
	Widths []int
	// FC are the two hidden fully-connected widths.
	FC []int
	// Classes is the output dimension.
	Classes int
	// Seed drives deterministic parameter initialization.
	Seed int64
}

// DefaultVGGConfig returns the repository's reference "VGG-16-mini" for
// the given class count: 32×32 single-channel inputs, conv widths
// [4,4,8,8,12,12,12,16,16,16,32,32,32], FC [128,128]. The original
// trains its FC head with dropout 0.5; this one has none, because
// dropout makes units class-agnostic (DESIGN.md §7.2). Like full VGG-16,
// the parameter mass is concentrated in the last conv block and the FC
// head — the layers CAP'NN prunes — so class-specific redundancy exists
// where the algorithms look for it.
func DefaultVGGConfig(classes int) VGGConfig {
	return VGGConfig{
		InC: 1, InH: 32, InW: 32,
		Widths:  []int{4, 4, 8, 8, 12, 12, 12, 16, 16, 16, 32, 32, 32},
		FC:      []int{128, 128},
		Classes: classes,
		Seed:    1,
	}
}

// vggBlocks is the canonical VGG-16 conv-per-block pattern.
var vggBlocks = []int{2, 2, 3, 3, 3}

// BuildVGG constructs the network described by cfg.
func BuildVGG(cfg VGGConfig) (*Network, error) {
	if len(cfg.Widths) != 13 {
		return nil, fmt.Errorf("nn: VGG needs 13 conv widths, got %d", len(cfg.Widths))
	}
	if len(cfg.FC) != 2 {
		return nil, fmt.Errorf("nn: VGG needs 2 hidden FC widths, got %d", len(cfg.FC))
	}
	if cfg.Classes <= 1 {
		return nil, fmt.Errorf("nn: VGG needs at least 2 classes, got %d", cfg.Classes)
	}
	b := NewBuilder(cfg.InC, cfg.InH, cfg.InW, cfg.Seed)
	w := 0
	for _, blockLen := range vggBlocks {
		for i := 0; i < blockLen; i++ {
			b.Conv(cfg.Widths[w]).ReLU()
			w++
		}
		b.Pool()
	}
	b.Flatten()
	b.Dense(cfg.FC[0]).ReLU()
	b.Dense(cfg.FC[1]).ReLU()
	b.Dense(cfg.Classes)
	return b.Build()
}
