// Personalized device: the paper's full deployment loop (Fig. 1a).
//
// A local device runs the commodity model through a monitoring period,
// discovers which classes its user actually encounters and how often,
// sends those preferences to the cloud's serving shard over TCP, receives
// the masks the shard serves them with, and compacts its own copy of the
// model under them into one that is smaller and at least as accurate on
// the user's classes.
//
// The shard's transport is deliberately injured with deterministic
// fault injection (one in four connections corrupts the payload, one in
// four is cut mid-stream) to show the frame checksums and the device's
// retry-with-backoff absorbing real-world failures.
//
//	go run ./examples/personalized-device
package main

import (
	"fmt"
	"log"
	"math/rand"
	stdnet "net" // the model local below is idiomatically called net

	"capnn"
)

func main() {
	// --- cloud side: a trained commodity model --------------------------
	synth := capnn.DefaultSynthConfig(8)
	synth.H, synth.W = 12, 12
	synth.Seed = 9
	gen, err := capnn.NewGenerator(synth)
	if err != nil {
		log.Fatal(err)
	}
	sets := capnn.MakeSets(gen, capnn.SetSizes{
		TrainPerClass: 30, ValPerClass: 12, TestPerClass: 12, ProfilePerClass: 20,
	})
	net := capnn.NewBuilder(1, 12, 12, 2).
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
	params := capnn.DefaultParams()
	params.Epsilon = 0.05
	sys, err := capnn.NewSystem(net, sets.Val, sets.Profile, nil, params)
	if err != nil {
		log.Fatal(err)
	}
	srv := capnn.NewServer(sys)
	// Serve through a seeded chaos wrapper: the first connection is
	// guaranteed faulty, so the fetch below visibly retries.
	plan, err := capnn.ParseChaosPlan("seed=6,close=0.25,corrupt=0.25")
	if err != nil {
		log.Fatal(err)
	}
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	addr := srv.Serve(capnn.WrapChaosListener(ln, plan))
	defer srv.Close()
	fmt.Println("cloud: model served on a loopback TCP port (chaos: 25% corrupt, 25% cut connections)")

	// --- device side: monitoring period ---------------------------------
	// The device starts on the commodity model. The user mostly
	// photographs class 2, sometimes class 5.
	device, err := capnn.NewDevice(addr, net, 8, "M")
	if err != nil {
		log.Fatal(err)
	}
	device.Retry.MaxAttempts = 8
	device.OnRetry = func(attempt int, err error) {
		fmt.Printf("device: fetch attempt %d failed (%v) — backing off and retrying\n", attempt, err)
	}
	rng := rand.New(rand.NewSource(4))
	byClass := sets.Test.ByClass()
	fmt.Println("device: monitoring 60 predictions...")
	for i := 0; i < 60; i++ {
		class := 2
		if rng.Float64() < 0.25 {
			class = 5
		}
		idx := byClass[class][rng.Intn(len(byClass[class]))]
		x, _ := sets.Test.Batch([]int{idx})
		if _, err := device.Classify(x); err != nil {
			log.Fatal(err)
		}
	}

	// --- device asks the cloud for its masks and compacts ---------------
	// With no preferences yet, it keeps the two most frequent classes.
	_, stats, err := device.Repersonalize(true)
	if err != nil {
		log.Fatal(err)
	}
	prefs, personalized := device.Current(), device.Model()
	fmt.Printf("device: monitoring found classes %v with usage %v\n", prefs.Classes, roundAll(prefs.Weights))
	fmt.Printf("cloud → device: personalized model, %.1f%% of original size (%d/%d units pruned)\n",
		100*stats.RelativeSize, stats.PrunedUnits, stats.TotalUnits)

	// --- device compares old vs new on its own traffic ------------------
	userTest := sets.Test.FilterClasses(prefs.Classes)
	before := capnn.Evaluate(net, nil, userTest)
	after := capnn.Evaluate(personalized, nil, userTest)
	fmt.Printf("user-classes top-1 on %d test images (%d per class): %.3f → %.3f   top-5: %.3f → %.3f\n",
		userTest.Len(), userTest.Len()/len(prefs.Classes), before.Top1, after.Top1, before.Top5, after.Top5)

	dev := capnn.DefaultDevice()
	comp := capnn.PaperEnergies()
	eBefore, err := capnn.EnergyOf(net, dev, comp)
	if err != nil {
		log.Fatal(err)
	}
	eAfter, err := capnn.EnergyOf(personalized, dev, comp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("per-inference energy: %.1f µJ → %.1f µJ (%.0f%% saved)\n",
		eBefore/1e6, eAfter/1e6, 100*(1-eAfter/eBefore))
}

func roundAll(ws []float64) []float64 {
	out := make([]float64, len(ws))
	for i, w := range ws {
		out[i] = float64(int(w*100+0.5)) / 100
	}
	return out
}
