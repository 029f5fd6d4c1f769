// Command capnn-prune personalizes a saved model for a class subset and
// writes the compacted result.
//
//	capnn-prune -in model.gob -out pruned.gob -variant M -classes 3,7,12 -weights 0.6,0.3,0.1
//
// The tool regenerates the fixture's synthetic validation/profiling sets
// (the model file stores only weights), so it is intended for models
// produced by capnn-train.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"capnn/internal/core"
	"capnn/internal/exp"
	"capnn/internal/nn"
)

func main() {
	in := flag.String("in", "", "input model file (from capnn-train's cache); empty = train/load the imagenet20 fixture")
	out := flag.String("out", "pruned.gob", "output path for the compacted personalized model")
	variant := flag.String("variant", "M", "pruning variant: B, W or M")
	classesArg := flag.String("classes", "", "comma-separated user classes, e.g. 3,7,12")
	weightsArg := flag.String("weights", "", "comma-separated usage weights (optional; uniform when empty)")
	model := flag.String("model", "imagenet20", "fixture whose data/config to use: imagenet20 or cifar10")
	flag.Parse()

	if err := run(*in, *out, *variant, *classesArg, *weightsArg, *model); err != nil {
		fmt.Fprintln(os.Stderr, "capnn-prune:", err)
		os.Exit(1)
	}
}

func run(in, out, variant, classesArg, weightsArg, model string) error {
	classes, err := parseInts(classesArg)
	if err != nil || len(classes) == 0 {
		return fmt.Errorf("need -classes (got %q): %v", classesArg, err)
	}
	var cfg exp.FixtureConfig
	switch model {
	case "imagenet20":
		cfg = exp.ImageNet20Config()
	case "cifar10":
		cfg = exp.CIFAR10Config()
	default:
		return fmt.Errorf("unknown -model %q", model)
	}
	fx, err := exp.Load(cfg, os.Stderr)
	if err != nil {
		return err
	}
	sys := fx.Sys
	if in != "" {
		net, err := nn.LoadFile(in)
		if err != nil {
			return err
		}
		params := core.DefaultParams()
		params.Epsilon = cfg.Epsilon
		sys, err = core.NewSystem(net, fx.Sets.Val, fx.Sets.Profile, nil, params)
		if err != nil {
			return err
		}
	}

	var weights []float64
	if weightsArg != "" {
		if weights, err = parseFloats(weightsArg); err != nil {
			return err
		}
	}
	prefs, err := core.NewPreferences(classes, weights)
	if err != nil {
		return err
	}
	v, err := core.ParseVariant(variant, core.DefaultVariant)
	if err != nil {
		return err
	}

	res, err := sys.Personalize(v, prefs, fx.Sets.Test)
	if err != nil {
		return err
	}
	compact, err := nn.CompactMasked(sys.Net, res.Masks)
	if err != nil {
		return err
	}
	if err := nn.SaveFile(out, compact); err != nil {
		return err
	}
	fmt.Printf("%s pruned for classes %v: size %.1f%% of original, top-1 %.3f (was %.3f), top-5 %.3f (was %.3f) → %s\n",
		v, prefs.Classes, 100*res.RelativeSize, res.Top1, res.BaseTop1, res.Top5, res.BaseTop5, out)
	return nil
}

func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
