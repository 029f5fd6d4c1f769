package exp

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"capnn/internal/core"
)

// TradeoffRow is one K value of Fig. 6: CAP'NN-M model size and accuracy
// versus the number of user classes.
type TradeoffRow struct {
	K        int
	RelSize  float64
	Top1     float64
	Top1Orig float64
	Top5     float64
	Top5Orig float64
}

// DefaultTradeoffKs spans 10%..100% of the fixture's class space — the
// same fractional sweep as the paper's K = 2..100 of 1000.
func DefaultTradeoffKs(numClasses int) []int {
	fracs := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 1.0}
	var ks []int
	prev := 0
	for _, f := range fracs {
		k := int(f*float64(numClasses) + 0.5)
		if k < 2 {
			k = 2
		}
		if k > numClasses {
			k = numClasses
		}
		if k != prev {
			ks = append(ks, k)
			prev = k
		}
	}
	return ks
}

// RunTradeoff reproduces Fig. 6: CAP'NN-M with uniform usage, sweeping K.
func RunTradeoff(fx *Fixture, scale Scale, ks []int, log io.Writer) ([]TradeoffRow, error) {
	var rows []TradeoffRow
	numClasses := fx.Config.Synth.Classes
	for _, k := range ks {
		rng := rand.New(rand.NewSource(scale.Seed*104729 + int64(k)))
		combos := scale.Combos
		if k == numClasses {
			combos = 1 // only one way to choose all classes
		}
		v, err := sweep(rng, numClasses, k, combos, func(_ int, classes []int) ([]float64, error) {
			res, err := fx.Sys.Personalize(core.VariantM, core.Uniform(classes), fx.Sets.Test)
			if err != nil {
				return nil, fmt.Errorf("fig6 K=%d: %w", k, err)
			}
			return []float64{res.RelativeSize, res.Top1, res.BaseTop1, res.Top5, res.BaseTop5}, nil
		})
		if err != nil {
			return nil, err
		}
		row := TradeoffRow{K: k, RelSize: v[0], Top1: v[1], Top1Orig: v[2], Top5: v[3], Top5Orig: v[4]}
		rows = append(rows, row)
		if log != nil {
			fmt.Fprintf(log, "exp: fig6 K=%d done (size %.3f, top1 %.3f)\n", k, row.RelSize, row.Top1)
		}
	}
	return rows, nil
}

// PrintFig6 renders the size/accuracy tradeoff (Fig. 6).
func PrintFig6(w io.Writer, rows []TradeoffRow, numClasses int, scale Scale) {
	fmt.Fprintf(w, "Figure 6: CAP'NN-M model size vs accuracy as K grows (C=%d, %d combos/K)\n", numClasses, scale.Combos)
	fmt.Fprintf(w, "%-5s %-8s %9s %10s %10s %10s %10s\n", "K", "K/C", "rel size", "top1", "top1 orig", "top5", "top5 orig")
	fmt.Fprintln(w, strings.Repeat("-", 70))
	for _, r := range rows {
		fmt.Fprintf(w, "%-5d %-8.0f%% %8.3f %10.3f %10.3f %10.3f %10.3f\n",
			r.K, 100*float64(r.K)/float64(numClasses), r.RelSize, r.Top1, r.Top1Orig, r.Top5, r.Top5Orig)
	}
}
