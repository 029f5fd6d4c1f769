// Command capnn-inspect dumps a saved model's architecture, parameter
// distribution, and estimated per-inference energy on the
// default TPU-like device — or, given no model, the imagenet20 fixture's
// firing rates and Algorithm 1 matrices per prunable stage.
//
//	capnn-inspect -model path/to/model.gob
//	capnn-inspect
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"capnn/internal/energy"
	"capnn/internal/exp"
	"capnn/internal/hw"
	"capnn/internal/nn"
)

func main() {
	path := flag.String("model", "", "path to a model saved with nn.Save / capnn.SaveModel; empty = the imagenet20 fixture's rates and B matrices")
	flag.Parse()
	var err error
	if *path == "" {
		err = fixtureView()
	} else {
		err = run(*path)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "capnn-inspect:", err)
		os.Exit(1)
	}
}

// fixtureView summarizes what the cloud keeps beside the model: per
// prunable stage, how many units Algorithm 1 lets each class prune, and
// the spread of the firing rates it decided that from.
func fixtureView() error {
	fx, err := exp.Load(exp.ImageNet20Config(), os.Stderr)
	if err != nil {
		return err
	}
	b, err := fx.EnsureB(os.Stderr)
	if err != nil {
		return err
	}
	for _, l := range b.Stages {
		units := b.Units[l]
		fmt.Printf("stage %d (%d units):\n  per-class prunable counts:", l, units)
		for c := 0; c < b.Classes; c++ {
			n := 0
			for u := 0; u < units; u++ {
				if b.At(l, u, c) {
					n++
				}
			}
			fmt.Printf(" %d", n)
		}
		fmt.Println()
		lr := fx.Rates.Layers[l]
		lo, hi, mean := 1.0, 0.0, 0.0
		for _, v := range lr.F {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
			mean += v
		}
		fmt.Printf("  rates: min %.3f max %.3f mean %.3f\n", lo, hi, mean/float64(len(lr.F)))
	}
	return nil
}

func run(path string) error {
	net, err := nn.LoadFile(path)
	if err != nil {
		return err
	}
	fmt.Printf("model %s\ninput %v, %d layers, %d parameters\n\n", path, net.InShape, len(net.Layers), net.ParamCount())

	fmt.Printf("%-12s %-8s %18s %18s %10s\n", "layer", "kind", "in", "out", "params")
	fmt.Println(strings.Repeat("-", 71))
	for _, l := range net.Layers {
		params := 0
		for _, p := range l.Params() {
			params += p.W.Len()
		}
		fmt.Printf("%-12s %-8s %18v %18v %10d\n", l.Name(), kindOf(l), l.InShape(), l.OutShape(), params)
	}

	counts, _, err := hw.Simulate(net, hw.DefaultConfig())
	if err != nil {
		return err
	}
	pj := energy.Estimate(counts, energy.PaperTable1())
	fmt.Printf("\nper-inference on the default device: %d MACs, %d DRAM words, %.2f µJ, %d cycles\n",
		counts.MACs, counts.DRAMReads+counts.DRAMWrites, pj/1e6, counts.Cycles)
	return nil
}

func kindOf(l nn.Layer) string {
	switch l.(type) {
	case *nn.Conv2D:
		return "conv"
	case *nn.Dense:
		return "dense"
	case *nn.ReLU:
		return "relu"
	case *nn.MaxPool2D:
		return "pool"
	case *nn.Flatten:
		return "flatten"
	default:
		return "?"
	}
}
