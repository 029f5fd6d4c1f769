package exp

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"capnn/internal/baselines"
	"capnn/internal/core"
	"capnn/internal/energy"
	"capnn/internal/hw"
)

// CaptorRow is one column of Table III: normalized energy at a given
// fraction of user-specified classes, CAP'NN-M versus the CAPTOR rule.
type CaptorRow struct {
	Percent   int // fraction of classes kept, in percent
	K         int
	CapnnRel  float64
	CaptorRel float64
}

// RunCaptor reproduces Table III on the 10-class (CIFAR-10-style)
// fixture: sweep the kept-class fraction from 10% to 100% and report
// normalized post-pruning energy for CAP'NN-M and for the class-adaptive
// CAPTOR-style comparator [11].
func RunCaptor(fx *Fixture, scale Scale, log io.Writer) ([]CaptorRow, error) {
	dev := hw.DefaultConfig()
	comp := energy.PaperTable1()
	numClasses := fx.Config.Synth.Classes
	captorCfg := baselines.DefaultCAPTORConfig(fx.Net)

	var rows []CaptorRow
	for pct := 10; pct <= 100; pct += 10 {
		k := pct * numClasses / 100
		if k < 1 {
			k = 1
		}
		combos := scale.Combos
		if k == numClasses {
			combos = 1
		}
		if k == 1 {
			// CAP'NN needs ≥1 class; single-class works for both rules.
			combos = min(combos, numClasses)
		}
		rng := rand.New(rand.NewSource(scale.Seed*49979687 + int64(pct)))
		v, err := sweep(rng, numClasses, k, combos, func(_ int, classes []int) ([]float64, error) {
			mMasks, err := fx.Sys.Prune(core.VariantM, core.Uniform(classes))
			if err != nil {
				return nil, fmt.Errorf("table3 %d%%: %w", pct, err)
			}
			mRel, err := energy.RelativeOfMasks(fx.Net, mMasks, dev, comp)
			if err != nil {
				return nil, err
			}
			cMasks, err := baselines.CAPTORPrune(fx.Net, fx.Rates, classes, captorCfg)
			if err != nil {
				return nil, err
			}
			cRel, err := energy.RelativeOfMasks(fx.Net, cMasks, dev, comp)
			if err != nil {
				return nil, err
			}
			return []float64{mRel, cRel}, nil
		})
		if err != nil {
			return nil, err
		}
		row := CaptorRow{Percent: pct, K: k, CapnnRel: v[0], CaptorRel: v[1]}
		rows = append(rows, row)
		if log != nil {
			fmt.Fprintf(log, "exp: table3 %d%% done (capnn %.2f captor %.2f)\n", pct, row.CapnnRel, row.CaptorRel)
		}
	}
	return rows, nil
}

// PrintTable3 renders Table III.
func PrintTable3(w io.Writer, rows []CaptorRow, scale Scale) {
	fmt.Fprintf(w, "Table III: normalized energy vs class fraction (10-class model), %d combos/point\n", scale.Combos)
	fmt.Fprintf(w, "%-10s", "#Classes")
	for _, r := range rows {
		fmt.Fprintf(w, " %6d%%", r.Percent)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", 10+8*len(rows)))
	fmt.Fprintf(w, "%-10s", "CAP'NN")
	for _, r := range rows {
		fmt.Fprintf(w, " %7.2f", r.CapnnRel)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-10s", "CAPTOR")
	for _, r := range rows {
		fmt.Fprintf(w, " %7.2f", r.CaptorRel)
	}
	fmt.Fprintln(w)
}
