// Stacked pruning: the paper's Table II scenario. Class-aware and
// class-unaware pruning are orthogonal: first shrink the model with a
// class-unaware channel pruner (+ brief fine-tuning), then let CAP'NN-M
// personalize the already-pruned model for the user's classes, cutting
// it much further while improving the user's accuracy.
//
//	go run ./examples/stacked-pruning
package main

import (
	"fmt"
	"log"

	"capnn"
)

func main() {
	synth := capnn.DefaultSynthConfig(8)
	synth.H, synth.W = 12, 12
	synth.Seed = 13
	gen, err := capnn.NewGenerator(synth)
	if err != nil {
		log.Fatal(err)
	}
	sets := capnn.MakeSets(gen, capnn.SetSizes{
		TrainPerClass: 30, ValPerClass: 12, TestPerClass: 12, ProfilePerClass: 20,
	})
	net := capnn.NewBuilder(1, 12, 12, 5).
		Conv(8).ReLU().Pool().
		Conv(12).ReLU().Pool().
		Flatten().Dense(24).ReLU().Dense(16).ReLU().Dense(8).MustBuild()
	tc := capnn.DefaultTrainConfig()
	tc.Optimizer = "adam"
	tc.LR = 0.002
	tc.Epochs = 10
	if err := capnn.Train(net, sets.Train, sets.Val, tc); err != nil {
		log.Fatal(err)
	}
	origParams := net.ParamCount()
	fmt.Printf("original model: %d parameters\n", origParams)

	// Step 1: class-unaware channel pruning (ThiNet-style) + fine-tune.
	masks, err := capnn.PruneUnaware(net, []int{0, 1}, 0.25, capnn.ByThiNet, nil, sets.Profile)
	if err != nil {
		log.Fatal(err)
	}
	classUnaware, err := capnn.CompactMasked(net, masks)
	if err != nil {
		log.Fatal(err)
	}
	if err := capnn.FineTune(classUnaware, sets.Train, nil, 3, 1); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after class-unaware pruning: %d parameters (%.1f%%)\n",
		classUnaware.ParamCount(), 100*float64(classUnaware.ParamCount())/float64(origParams))

	// Step 2: CAP'NN-M on the already-pruned model for a 2-class user.
	params := capnn.DefaultParams()
	params.Epsilon = 0.05
	sys, err := capnn.NewSystem(classUnaware, sets.Val, sets.Profile, nil, params)
	if err != nil {
		log.Fatal(err)
	}
	prefs, err := capnn.Weighted([]int{2, 6}, []float64{0.7, 0.3})
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.Personalize(capnn.VariantM, prefs, sets.Test)
	if err != nil {
		log.Fatal(err)
	}
	stackedParams := res.RelativeSize * float64(classUnaware.ParamCount())
	fmt.Printf("after stacking CAP'NN-M (classes %v): %.0f parameters (%.1f%% of original)\n",
		prefs.Classes, stackedParams, 100*stackedParams/float64(origParams))
	fmt.Printf("user-classes top-1: %.3f → %.3f   top-5: %.3f → %.3f\n",
		res.BaseTop1, res.Top1, res.BaseTop5, res.Top5)
}
