// Command capnn-train loads a CAP'NN reference model from the fixture
// cache, training it only when the cache has no file for its config, and
// reports its test accuracy:
//
//	capnn-train -model cifar10
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"capnn/internal/exp"
	"capnn/internal/profiling"
	"capnn/internal/train"
)

func main() {
	model := flag.String("model", "imagenet20", "fixture to load or train: imagenet20 or cifar10")
	perf := profiling.AddFlags()
	flag.Parse()
	if err := perf.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cfg, err := exp.FixtureByName(*model)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	start := time.Now()
	fx, err := exp.Load(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ev := train.Evaluate(fx.Net, nil, fx.Sets.Test)
	fmt.Printf("%s ready in %v: test top-1 %.3f  top-5 %.3f  params %d\n",
		cfg.Name, time.Since(start).Round(time.Second), ev.Top1, ev.Top5, fx.Net.ParamCount())
	if err := perf.Stop(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
