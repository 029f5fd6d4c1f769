package exp

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"capnn/internal/core"
	"capnn/internal/energy"
	"capnn/internal/hw"
)

// EnergyRow is one K value of Table I's right half: relative energy of
// the CAP'NN-M pruned model on the TPU-like device.
type EnergyRow struct {
	K         int
	RelEnergy float64
	RelSize   float64
}

// Table1Ks are the class counts of the paper's Table I.
var Table1Ks = []int{2, 3, 4, 5, 10}

// RunEnergy reproduces Table I: average relative energy consumption of
// CAP'NN-M pruned models for each K, over usage distributions and random
// combinations (uniform + skewed usage alternate across combos).
func RunEnergy(fx *Fixture, scale Scale, ks []int, log io.Writer) ([]EnergyRow, error) {
	dev := hw.DefaultConfig()
	comp := energy.PaperTable1()
	var rows []EnergyRow
	for _, k := range ks {
		rng := rand.New(rand.NewSource(scale.Seed*15485863 + int64(k)))
		v, err := sweep(rng, fx.Config.Synth.Classes, k, scale.Combos, func(combo int, classes []int) ([]float64, error) {
			prefs := core.Uniform(classes)
			if combo%2 == 1 {
				// Skewed usage: first class dominates.
				w := make([]float64, k)
				w[0] = 0.6
				for i := 1; i < k; i++ {
					w[i] = 0.4 / float64(k-1)
				}
				var err error
				if prefs, err = core.Weighted(classes, w); err != nil {
					return nil, err
				}
			}
			masks, err := fx.Sys.Prune(core.VariantM, prefs)
			if err != nil {
				return nil, fmt.Errorf("table1 K=%d: %w", k, err)
			}
			rel, err := energy.RelativeOfMasks(fx.Net, masks, dev, comp)
			if err != nil {
				return nil, err
			}
			res, err := core.Measure(fx.Net, prefs, masks, fx.Sets.Test)
			if err != nil {
				return nil, err
			}
			return []float64{rel, res.RelativeSize}, nil
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, EnergyRow{K: k, RelEnergy: v[0], RelSize: v[1]})
		if log != nil {
			fmt.Fprintf(log, "exp: table1 K=%d done (energy %.3f)\n", k, v[0])
		}
	}
	return rows, nil
}

// PrintTable1 renders the component energies and the relative energy
// column of Table I.
func PrintTable1(w io.Writer, rows []EnergyRow, scale Scale) {
	comp := energy.PaperTable1()
	fmt.Fprintf(w, "Table I: component energies and relative energy of VGG (CAP'NN-M), %d combos/K\n", scale.Combos)
	fmt.Fprintf(w, "%-22s %-12s | %-10s %-15s\n", "Component", "Energy (pJ)", "#Classes", "Relative energy")
	fmt.Fprintln(w, strings.Repeat("-", 66))
	comps := []struct {
		name string
		pj   string
	}{
		{"16-bit adder", fmt.Sprintf("%.1f", comp.AddPJ)},
		{"16-bit multiplier", fmt.Sprintf("%.1f", comp.MulPJ)},
		{"Max Pool / ReLU", fmt.Sprintf("%.1f / %.1f", comp.MaxPoolPJ, comp.ReLUPJ)},
		{"SRAM", fmt.Sprintf("%.0f", comp.SRAMPJ)},
		{"DRAM", fmt.Sprintf("%.0f", comp.DRAMPJ)},
	}
	n := len(comps)
	if len(rows) > n {
		n = len(rows)
	}
	for i := 0; i < n; i++ {
		left := fmt.Sprintf("%-22s %-12s", "", "")
		if i < len(comps) {
			left = fmt.Sprintf("%-22s %-12s", comps[i].name, comps[i].pj)
		}
		right := ""
		if i < len(rows) {
			right = fmt.Sprintf("%-10d %-15.2f", rows[i].K, rows[i].RelEnergy)
		}
		fmt.Fprintf(w, "%s | %s\n", left, right)
	}
}
