// Edge energy budgeting: estimate how CAP'NN personalization changes
// per-inference energy and latency on differently provisioned TPU-like
// devices (the paper's Fig. 2 architecture with the Table I energies).
//
//	go run ./examples/edge-energy
package main

import (
	"fmt"
	"log"

	"capnn"
)

func main() {
	synth := capnn.DefaultSynthConfig(8)
	synth.H, synth.W = 12, 12
	synth.Seed = 11
	gen, err := capnn.NewGenerator(synth)
	if err != nil {
		log.Fatal(err)
	}
	sets := capnn.MakeSets(gen, capnn.SetSizes{
		TrainPerClass: 30, ValPerClass: 12, TestPerClass: 12, ProfilePerClass: 20,
	})
	net := capnn.NewBuilder(1, 12, 12, 3).
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
	prefs := capnn.Uniform([]int{0, 4})
	masks, err := sys.Prune(capnn.VariantM, prefs)
	if err != nil {
		log.Fatal(err)
	}
	personalized, err := capnn.CompactMasked(net, masks)
	if err != nil {
		log.Fatal(err)
	}

	comp := capnn.PaperEnergies()
	devices := []struct {
		name string
		cfg  capnn.DeviceConfig
	}{
		{"edge-default", capnn.DefaultDevice()},
		{"tiny-buffers", tinyDevice()},
		{"big-buffers", bigDevice()},
	}

	fmt.Printf("%-14s %-14s %12s %12s %12s %10s\n",
		"device", "model", "MACs", "DRAM words", "energy (µJ)", "cycles")
	for _, d := range devices {
		for _, m := range []struct {
			name string
			net  *capnn.Network
		}{{"original", net}, {"personalized", personalized}} {
			counts, err := capnn.SimulateDevice(m.net, d.cfg)
			if err != nil {
				log.Fatal(err)
			}
			e, err := capnn.EnergyOf(m.net, d.cfg, comp)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-14s %-14s %12d %12d %12.1f %10d\n",
				d.name, m.name, counts.MACs, counts.DRAMReads+counts.DRAMWrites, e/1e6, counts.Cycles)
		}
	}
	fmt.Println("\nNote how small weight buffers amplify DRAM traffic — and how the")
	fmt.Println("personalized model shrinks exactly that dominant term (640 pJ/word).")

	fmt.Println("\nPer-layer energy breakdown of the personalized model (default device):")
	layers, total, err := capnn.EnergyBreakdown(personalized, capnn.DefaultDevice(), comp)
	if err != nil {
		log.Fatal(err)
	}
	printBreakdown(layers, total)
}

func printBreakdown(layers []capnn.LayerEnergy, total float64) {
	for _, l := range layers {
		if l.TotalPJ() == 0 {
			continue
		}
		fmt.Printf("  %-10s compute %8.0f pJ   SRAM %8.0f pJ   DRAM %9.0f pJ   (%4.1f%%)\n",
			l.Name, l.ComputePJ, l.SRAMPJ, l.DRAMPJ, 100*l.TotalPJ()/total)
	}
	fmt.Printf("  total %.1f µJ\n", total/1e6)
}

func tinyDevice() capnn.DeviceConfig {
	d := capnn.DefaultDevice()
	d.WeightBufBytes = 256
	d.InputBufBytes = 128
	return d
}

func bigDevice() capnn.DeviceConfig {
	d := capnn.DefaultDevice()
	d.WeightBufBytes = 1 << 20
	d.InputBufBytes = 512 << 10
	return d
}
