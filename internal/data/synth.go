package data

import (
	"fmt"
	"math"
	"math/rand"
)

// SynthConfig parameterizes the synthetic class-prototype generator.
type SynthConfig struct {
	// Classes is the number of output classes.
	Classes int
	// Groups is the number of confusion groups; classes within a group
	// share a base pattern and are therefore mutually confusable. Must
	// divide into Classes reasonably (the last group absorbs remainders).
	Groups int
	// H, W are the image dimensions (single channel).
	H, W int
	// GroupMix ∈ [0,1) is the fraction of each prototype contributed by
	// its group's shared base pattern. Higher values → more confusion.
	GroupMix float64
	// NoiseStd is the per-pixel Gaussian noise added to every sample.
	NoiseStd float64
	// MaxShift is the maximum circular translation (pixels) per sample.
	MaxShift int
	// Seed drives all randomness; equal seeds give equal datasets.
	Seed int64
}

// DefaultSynthConfig returns the generator settings used by the
// experiment harness: 32×32 images, groups of ~4 classes sharing 55% of
// their pattern, moderate noise and ±2px jitter.
func DefaultSynthConfig(classes int) SynthConfig {
	groups := classes / 4
	if groups < 1 {
		groups = 1
	}
	return SynthConfig{
		Classes:  classes,
		Groups:   groups,
		H:        32,
		W:        32,
		GroupMix: 0.55,
		NoiseStd: 0.35,
		MaxShift: 2,
		Seed:     1,
	}
}

func (c SynthConfig) validate() error {
	if c.Classes < 2 {
		return fmt.Errorf("data: need ≥2 classes, got %d", c.Classes)
	}
	if c.Groups < 1 || c.Groups > c.Classes {
		return fmt.Errorf("data: groups %d outside [1,%d]", c.Groups, c.Classes)
	}
	if c.H < 4 || c.W < 4 {
		return fmt.Errorf("data: image %dx%d too small", c.H, c.W)
	}
	// Negated in-range tests: NaN fails them.
	if !(c.GroupMix >= 0 && c.GroupMix < 1) {
		return fmt.Errorf("data: GroupMix %v outside [0,1)", c.GroupMix)
	}
	if !(c.NoiseStd >= 0 && c.NoiseStd <= math.MaxFloat64) {
		return fmt.Errorf("data: NoiseStd %v not finite and non-negative", c.NoiseStd)
	}
	if c.MaxShift < 0 || c.MaxShift >= c.H || c.MaxShift >= c.W {
		return fmt.Errorf("data: MaxShift %d out of range", c.MaxShift)
	}
	return nil
}

// ClassGroups returns the class→confusion-group mapping NewGenerator
// uses, without building prototypes — the label structure consumers like
// the workload engine correlate preferences over. Classes in the same
// group share a base pattern and are mutually confusable.
func (c SynthConfig) ClassGroups() []int {
	groups := make([]int, c.Classes)
	for cls := range groups {
		groups[cls] = cls * c.Groups / c.Classes
	}
	return groups
}

// Generator produces samples for a fixed set of class prototypes.
type Generator struct {
	cfg    SynthConfig
	protos [][]float64 // per class, H*W, zero mean unit std
	group  []int       // class → group
}

// NewGenerator builds the class prototypes for cfg.
func NewGenerator(cfg SynthConfig) (*Generator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	bases := make([][]float64, cfg.Groups)
	for g := range bases {
		bases[g] = smoothField(rng, cfg.H, cfg.W)
	}
	gen := &Generator{cfg: cfg, protos: make([][]float64, cfg.Classes), group: make([]int, cfg.Classes)}
	for c := 0; c < cfg.Classes; c++ {
		g := c * cfg.Groups / cfg.Classes
		gen.group[c] = g
		unique := smoothField(rng, cfg.H, cfg.W)
		proto := make([]float64, cfg.H*cfg.W)
		for i := range proto {
			proto[i] = cfg.GroupMix*bases[g][i] + (1-cfg.GroupMix)*unique[i]
		}
		normalize(proto)
		gen.protos[c] = proto
	}
	return gen, nil
}

// Generate produces perClass samples for every class, deterministically
// derived from the generator seed plus setSeed, so that train, validation,
// test and profiling sets are disjoint draws from the same distribution.
func (g *Generator) Generate(perClass int, setSeed int64) *Dataset {
	counts := make([]int, g.cfg.Classes)
	for c := range counts {
		counts[c] = perClass
	}
	return g.generate(counts, setSeed)
}

// GenerateCounts produces counts[c] samples for each class c — the
// imbalanced variant of Generate, for workloads where the monitoring
// period should observe skewed traffic. len(counts) must equal the
// generator's class count.
func (g *Generator) GenerateCounts(counts []int, setSeed int64) (*Dataset, error) {
	if len(counts) != g.cfg.Classes {
		return nil, fmt.Errorf("data: %d counts for %d classes", len(counts), g.cfg.Classes)
	}
	for c, n := range counts {
		if n < 0 {
			return nil, fmt.Errorf("data: negative count %d for class %d", n, c)
		}
	}
	return g.generate(counts, setSeed), nil
}

// generate draws counts[c] samples of each class c, class by class, from
// the split's own random source.
func (g *Generator) generate(counts []int, setSeed int64) *Dataset {
	cfg := g.cfg
	total := 0
	for _, n := range counts {
		total += n
	}
	rng := newSetRNG(cfg.Seed, setSeed)
	sz := cfg.H * cfg.W
	ds := &Dataset{C: 1, H: cfg.H, W: cfg.W, Classes: cfg.Classes,
		Images: make([]float64, total*sz),
		Labels: make([]int, 0, total)}
	for c, n := range counts {
		for s := 0; s < n; s++ {
			g.sample(rng, c, ds.Images[len(ds.Labels)*sz:][:sz])
			ds.Labels = append(ds.Labels, c)
		}
	}
	return ds
}

// sample draws one image of class into img: the prototype circularly
// shifted by (dx, dy), scaled, plus per-pixel noise drawn in row-major
// order.
func (g *Generator) sample(rng *rand.Rand, class int, img []float64) {
	cfg := g.cfg
	proto := g.protos[class]
	dx := rng.Intn(2*cfg.MaxShift+1) - cfg.MaxShift
	dy := rng.Intn(2*cfg.MaxShift+1) - cfg.MaxShift
	scale := 0.8 + 0.4*rng.Float64()
	// Column x reads source column x+ox, wrapping at the right edge.
	ox := (dx%cfg.W + cfg.W) % cfg.W
	for y := 0; y < cfg.H; y++ {
		sy := ((y+dy)%cfg.H + cfg.H) % cfg.H
		src, dst := proto[sy*cfg.W:(sy+1)*cfg.W], img[y*cfg.W:(y+1)*cfg.W]
		for x := range dst {
			sx := x + ox
			if sx >= cfg.W {
				sx -= cfg.W
			}
			dst[x] = scale*src[sx] + cfg.NoiseStd*rng.NormFloat64()
		}
	}
}

// newSetRNG derives a split-specific random source so that train, val,
// test and profiling sets are disjoint draws.
func newSetRNG(genSeed, setSeed int64) *rand.Rand {
	return rand.New(rand.NewSource(genSeed*1_000_003 + setSeed))
}

// smoothField synthesizes a low-frequency random field: a sum of 2-D
// cosine waves with frequencies ≤ 3 cycles per image, which gives the
// blob-like spatial structure a small CNN can latch onto.
func smoothField(rng *rand.Rand, h, w int) []float64 {
	const waves = 6
	type wave struct{ fx, fy, amp, phase float64 }
	ws := make([]wave, waves)
	for i := range ws {
		ws[i] = wave{
			fx:    float64(rng.Intn(4)),
			fy:    float64(rng.Intn(4)),
			amp:   rng.NormFloat64(),
			phase: 2 * math.Pi * rng.Float64(),
		}
		if ws[i].fx == 0 && ws[i].fy == 0 {
			ws[i].fx = 1
		}
	}
	f := make([]float64, h*w)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 0.0
			for _, wv := range ws {
				v += wv.amp * math.Cos(2*math.Pi*(wv.fx*float64(x)/float64(w)+wv.fy*float64(y)/float64(h))+wv.phase)
			}
			f[y*w+x] = v
		}
	}
	normalize(f)
	return f
}

// normalize rescales v in place to zero mean, unit standard deviation.
func normalize(v []float64) {
	mean := 0.0
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	std := 0.0
	for _, x := range v {
		std += (x - mean) * (x - mean)
	}
	std = math.Sqrt(std / float64(len(v)))
	if std == 0 {
		std = 1
	}
	for i := range v {
		v[i] = (v[i] - mean) / std
	}
}
