// Quickstart: train a small CNN on synthetic data, personalize it with
// each CAP'NN variant for a two-class user, and compare size/accuracy.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"capnn"
)

func main() {
	// 1. A dataset: 8 classes in 2 confusion groups, 12×12 images.
	synth := capnn.DefaultSynthConfig(8)
	synth.H, synth.W = 12, 12
	synth.Seed = 7
	gen, err := capnn.NewGenerator(synth)
	if err != nil {
		log.Fatal(err)
	}
	sets := capnn.MakeSets(gen, capnn.SetSizes{
		TrainPerClass: 30, ValPerClass: 12, TestPerClass: 12, ProfilePerClass: 20,
	})

	// 2. A small CNN (conv→conv→fc→fc→output = 5 unit layers; CAP'NN
	// prunes the last-6-minus-output rule, here stages 0..3).
	net := capnn.NewBuilder(1, 12, 12, 1).
		Conv(8).ReLU().Pool().
		Conv(12).ReLU().Pool().
		Flatten().
		Dense(24).ReLU().
		Dense(16).ReLU().
		Dense(8).MustBuild()

	tc := capnn.DefaultTrainConfig()
	tc.Optimizer = "adam"
	tc.LR = 0.002
	tc.Epochs = 10
	tc.Logf = func(f string, a ...any) { fmt.Printf("  "+f+"\n", a...) }
	fmt.Println("training...")
	if err := capnn.Train(net, sets.Train, sets.Val, tc); err != nil {
		log.Fatal(err)
	}
	base := capnn.Evaluate(net, nil, sets.Test)
	fmt.Printf("trained: test top-1 %.3f, %d parameters\n\n", base.Top1, net.ParamCount())

	// 3. Hand the model to CAP'NN: it profiles class-specific firing
	// rates on the profiling split and prepares the ε-check evaluator.
	params := capnn.DefaultParams()
	params.Epsilon = 0.05
	sys, err := capnn.NewSystem(net, sets.Val, sets.Profile, nil, params)
	if err != nil {
		log.Fatal(err)
	}

	// 4. A user who sees class 1 far more often than class 6.
	prefs, err := capnn.Weighted([]int{1, 6}, []float64{0.85, 0.15})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("personalizing for classes %v (usage %.0f%%-%.0f%%):\n",
		prefs.Classes, 100*prefs.Weights[0], 100*prefs.Weights[1])
	for _, v := range []capnn.Variant{capnn.VariantB, capnn.VariantW, capnn.VariantM} {
		res, err := sys.Personalize(v, prefs, sets.Test)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-9s size %5.1f%%  units pruned %3d/%3d  top-1 %.3f (unpruned %.3f)\n",
			v, 100*res.RelativeSize, res.PrunedUnits, res.TotalUnits, res.Top1, res.BaseTop1)
	}

	// 5. Ship the deployable model: compact the network under the masks.
	masks, err := sys.Prune(capnn.VariantM, prefs)
	if err != nil {
		log.Fatal(err)
	}
	deployable, err := capnn.CompactMasked(net, masks)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndeployable model: %d parameters (%.1f%% of original)\n",
		deployable.ParamCount(), 100*float64(deployable.ParamCount())/float64(net.ParamCount()))
}
