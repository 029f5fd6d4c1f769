// Package exp is the experiment harness: it owns the trained reference
// models (cached on disk so training happens once per configuration) and
// one runner per figure/table of the paper's evaluation section. Each
// runner returns structured rows and can print them in the paper's
// layout; bench_test.go at the repository root exposes one benchmark per
// artifact.
package exp

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"capnn/internal/core"
	"capnn/internal/data"
	"capnn/internal/firing"
	"capnn/internal/nn"
	"capnn/internal/train"
)

// FixtureConfig fully determines a reference model: dataset generator,
// split sizes, architecture, and training settings. Equal configs hash to
// the same cache file.
type FixtureConfig struct {
	Name  string
	Synth data.SynthConfig
	Sizes data.SetSizes
	VGG   nn.VGGConfig
	Train train.Config
	// Epsilon is the CAP'NN degradation bound used with this fixture.
	Epsilon float64
}

// ImageNet20Config is the main evaluation model: the paper's VGG-16 on
// ImageNet scaled to a 20-class synthetic stand-in (see DESIGN.md §1).
// K values 2..20 here play the role of the paper's 2..100-of-1000.
func ImageNet20Config() FixtureConfig {
	tc := train.DefaultConfig()
	tc.Optimizer = "adam"
	tc.LR = 0.002
	tc.Epochs = 26
	tc.LRDecayEvery = 10
	synth := data.DefaultSynthConfig(20)
	// Harder than the generator default so the trained model lands near
	// the paper's VGG-16 accuracy regime (~70-85%% top-1) with genuine
	// inter-class confusion for CAP'NN-M to exploit.
	synth.NoiseStd = 1.5
	synth.GroupMix = 0.75
	return FixtureConfig{
		Name:  "imagenet20",
		Synth: synth,
		Sizes: data.SetSizes{TrainPerClass: 50, ValPerClass: 40, TestPerClass: 25, ProfilePerClass: 40},
		VGG:   nn.DefaultVGGConfig(20),
		Train: tc,
		// The paper uses ε = 3%% on full VGG-16/ImageNet. This model is
		// three orders of magnitude smaller, so individual units carry
		// more per-class accuracy; ε is scaled accordingly (see
		// EXPERIMENTS.md).
		Epsilon: 0.12,
	}
}

// CIFAR10Config is the Table III model: the paper trains VGG-16 on
// CIFAR-10 to compare with CAPTOR; here the same VGG-16-mini is trained
// on a 10-class synthetic set.
func CIFAR10Config() FixtureConfig {
	tc := train.DefaultConfig()
	tc.Optimizer = "adam"
	tc.LR = 0.002
	tc.Epochs = 26
	tc.LRDecayEvery = 10
	synth := data.DefaultSynthConfig(10)
	synth.NoiseStd = 1.5
	synth.GroupMix = 0.75
	cfg := FixtureConfig{
		Name:    "cifar10",
		Synth:   synth,
		Sizes:   data.SetSizes{TrainPerClass: 50, ValPerClass: 40, TestPerClass: 25, ProfilePerClass: 40},
		VGG:     nn.DefaultVGGConfig(10),
		Train:   tc,
		Epsilon: 0.12,
	}
	cfg.Synth.Seed = 2
	cfg.VGG.Seed = 2
	return cfg
}

// FixtureByName returns the fixture config whose Name is name: the
// lookup behind every binary's -model flag.
func FixtureByName(name string) (FixtureConfig, error) {
	for _, cfg := range []FixtureConfig{ImageNet20Config(), CIFAR10Config()} {
		if cfg.Name == name {
			return cfg, nil
		}
	}
	return FixtureConfig{}, fmt.Errorf("unknown model %q (want imagenet20 or cifar10)", name)
}

// Fixture is a trained model with all the assets CAP'NN needs.
type Fixture struct {
	Config FixtureConfig
	Net    *nn.Network
	Gen    *data.Generator
	Sets   *data.Sets
	Rates  *firing.Rates
	Sys    *core.System
}

// fixtureDir resolves <repo>/testdata/fixtures relative to this source
// file, so cached models survive across test runs and working dirs.
func fixtureDir() (string, error) {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "", fmt.Errorf("exp: cannot locate source dir")
	}
	dir := filepath.Join(filepath.Dir(file), "..", "..", "testdata", "fixtures")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

func fnv(s string) string {
	h := uint64(1469598103934665603) // FNV-1a
	for _, b := range []byte(s) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return fmt.Sprintf("%016x", h)
}

// hash keys artifacts that depend on every knob (e.g. the B matrices,
// which embed ε).
func (c FixtureConfig) hash() string { return fnv(fmt.Sprintf("%+v", c)) }

// modelHash keys the trained model, which does not depend on ε — so
// tuning the pruning budget never retrains.
func (c FixtureConfig) modelHash() string {
	c.Epsilon = 0
	return fnv(fmt.Sprintf("%+v", c))
}

// Load builds (or loads from cache) the fixture. Progress lines go to
// log when non-nil; first-time training of the reference model takes a
// few minutes on one core.
func Load(cfg FixtureConfig, log io.Writer) (*Fixture, error) {
	logf := func(format string, args ...any) {
		if log != nil {
			fmt.Fprintf(log, format+"\n", args...)
		}
	}
	gen, err := data.NewGenerator(cfg.Synth)
	if err != nil {
		return nil, err
	}
	sets := data.MakeSets(gen, cfg.Sizes)

	dir, err := fixtureDir()
	if err != nil {
		return nil, err
	}
	modelPath := filepath.Join(dir, fmt.Sprintf("%s-%s.model", cfg.Name, cfg.modelHash()))

	var net *nn.Network
	if cached, err := nn.LoadFile(modelPath); err == nil {
		logf("exp: loaded cached model %s", modelPath)
		net = cached
	} else {
		logf("exp: training %s from scratch (cache miss at %s)", cfg.Name, modelPath)
		net, err = nn.BuildVGG(cfg.VGG)
		if err != nil {
			return nil, err
		}
		tc := cfg.Train
		if log != nil {
			tc.Logf = logf
		}
		if _, err := train.Train(net, sets.Train, sets.Val, tc); err != nil {
			return nil, err
		}
		if err := nn.SaveFile(modelPath, net); err != nil {
			return nil, fmt.Errorf("exp: caching model: %w", err)
		}
		logf("exp: cached model to %s", modelPath)
	}

	params := core.DefaultParams()
	params.Epsilon = cfg.Epsilon
	sys, err := core.NewSystem(net, sets.Val, sets.Profile, nil, params)
	if err != nil {
		return nil, err
	}
	return &Fixture{Config: cfg, Net: net, Gen: gen, Sets: sets, Rates: sys.Rates, Sys: sys}, nil
}

// EnsureB returns Algorithm 1's matrices, loading them from the disk
// cache when present (they are the expensive offline phase).
func (f *Fixture) EnsureB(log io.Writer) (*core.BMatrices, error) {
	dir, err := fixtureDir()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s.bmat", f.Config.Name, f.Config.hash()))
	if b, err := loadBMatrices(path); err == nil {
		f.Sys.SetBMatrices(b)
		if log != nil {
			fmt.Fprintf(log, "exp: loaded cached B matrices %s\n", path)
		}
		return b, nil
	}
	if log != nil {
		fmt.Fprintf(log, "exp: computing Algorithm 1 matrices (offline phase)...\n")
	}
	b, err := f.Sys.BMatrices()
	if err != nil {
		return nil, err
	}
	if err := saveBMatrices(path, b); err != nil {
		return nil, fmt.Errorf("exp: caching B matrices: %w", err)
	}
	return b, nil
}
