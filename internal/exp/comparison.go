package exp

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"capnn/internal/core"
)

// UsageDist is a named per-class usage distribution, e.g. "10-90".
type UsageDist struct {
	Name    string
	Weights []float64
}

// PaperUsageDists returns the usage distributions swept per K in the
// spirit of Fig. 4/5: uniform, mildly skewed, and strongly skewed, for
// K = 2..5. (The paper sweeps 24 K×usage variations; the exact lists are
// not published, so three canonical shapes per K are used.)
func PaperUsageDists(k int) []UsageDist {
	switch k {
	case 2:
		return []UsageDist{
			{"50-50", []float64{0.5, 0.5}},
			{"25-75", []float64{0.25, 0.75}},
			{"10-90", []float64{0.10, 0.90}},
		}
	case 3:
		return []UsageDist{
			{"34-33-33", []float64{0.34, 0.33, 0.33}},
			{"60-30-10", []float64{0.60, 0.30, 0.10}},
			{"80-10-10", []float64{0.80, 0.10, 0.10}},
		}
	case 4:
		return []UsageDist{
			{"25x4", []float64{0.25, 0.25, 0.25, 0.25}},
			{"40-30-20-10", []float64{0.40, 0.30, 0.20, 0.10}},
			{"70-10-10-10", []float64{0.70, 0.10, 0.10, 0.10}},
		}
	case 5:
		return []UsageDist{
			{"20x5", []float64{0.2, 0.2, 0.2, 0.2, 0.2}},
			{"40-30-10-10-10", []float64{0.40, 0.30, 0.10, 0.10, 0.10}},
			{"60-10-10-10-10", []float64{0.60, 0.10, 0.10, 0.10, 0.10}},
		}
	default:
		// Uniform only for other K.
		w := make([]float64, k)
		for i := range w {
			w[i] = 1.0 / float64(k)
		}
		return []UsageDist{{Name: fmt.Sprintf("uniform-%d", k), Weights: w}}
	}
}

// ComparisonRow is one K×usage configuration of Fig. 4 (model size) and
// Fig. 5 (top-1 accuracy), averaged over Scale.Combos random class
// combinations.
type ComparisonRow struct {
	K     int
	Usage string

	RelSizeB, RelSizeW, RelSizeM float64

	Top1Orig, Top1B, Top1W, Top1M float64
	Top5Orig, Top5B, Top5W, Top5M float64

	// ValDrop is the worst accuracy drop on the validation split over
	// the user's classes and B, W, M; OverEpsilon is 1 where it exceeds
	// ε, so its mean is the share of combinations that broke the bound.
	ValDrop, OverEpsilon float64
}

// RunComparison reproduces the Fig. 4/Fig. 5 sweep on the fixture for
// K ∈ {2,3,4,5} with three usage distributions each.
func RunComparison(fx *Fixture, scale Scale, log io.Writer) ([]ComparisonRow, error) {
	if _, err := fx.EnsureB(log); err != nil {
		return nil, err
	}
	valBase := fx.Sys.Eval.PerClassAccuracy(nil)
	var rows []ComparisonRow
	for _, k := range []int{2, 3, 4, 5} {
		for _, dist := range PaperUsageDists(k) {
			row, err := runOneConfig(fx, scale, k, dist, valBase, log)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func runOneConfig(fx *Fixture, scale Scale, k int, dist UsageDist, valBase []float64, log io.Writer) (ComparisonRow, error) {
	rng := rand.New(rand.NewSource(scale.Seed*7919 + int64(k)*131 + int64(len(dist.Name))))
	v, err := sweep(rng, fx.Config.Synth.Classes, k, scale.Combos, func(combo int, classes []int) ([]float64, error) {
		prefs, err := core.Weighted(classes, dist.Weights)
		if err != nil {
			return nil, err
		}
		var out []float64 // the unpruned top-1, top-5; then B, W, M: relative size, top-1, top-5; then ValDrop, OverEpsilon
		drop := 0.0
		for _, v := range []core.Variant{core.VariantB, core.VariantW, core.VariantM} {
			res, err := fx.Sys.Personalize(v, prefs, fx.Sets.Test)
			if err != nil {
				return nil, fmt.Errorf("%s K=%d %s: %w", v, k, dist.Name, err)
			}
			if v == core.VariantB {
				out = append(out, res.BaseTop1, res.BaseTop5)
			}
			out = append(out, res.RelativeSize, res.Top1, res.Top5)
			acc := fx.Sys.Eval.PerClassAccuracy(res.Masks)
			for _, c := range classes {
				drop = max(drop, valBase[c]-acc[c])
			}
		}
		over := 0.0
		if drop > fx.Sys.Params.Epsilon+1e-9 {
			over = 1
		}
		out = append(out, drop, over)
		if log != nil {
			fmt.Fprintf(log, "exp: K=%d usage=%s combo %d/%d done\n", k, dist.Name, combo+1, scale.Combos)
		}
		return out, nil
	})
	if err != nil {
		return ComparisonRow{}, err
	}
	return ComparisonRow{K: k, Usage: dist.Name, Top1Orig: v[0], Top5Orig: v[1],
		RelSizeB: v[2], Top1B: v[3], Top5B: v[4],
		RelSizeW: v[5], Top1W: v[6], Top5W: v[7],
		RelSizeM: v[8], Top1M: v[9], Top5M: v[10],
		ValDrop: v[11], OverEpsilon: v[12],
	}, nil
}

// PrintFig4 renders the model-size comparison (Fig. 4).
func PrintFig4(w io.Writer, rows []ComparisonRow, scale Scale) {
	fmt.Fprintf(w, "Figure 4: average relative model size (1.0 = unpruned), %d combos/config\n", scale.Combos)
	fmt.Fprintf(w, "%-4s %-16s %10s %10s %10s\n", "K", "usage", "CAP'NN-B", "CAP'NN-W", "CAP'NN-M")
	fmt.Fprintln(w, strings.Repeat("-", 56))
	for _, r := range rows {
		fmt.Fprintf(w, "%-4d %-16s %10.3f %10.3f %10.3f\n", r.K, r.Usage, r.RelSizeB, r.RelSizeW, r.RelSizeM)
	}
}

// PrintFig5 renders the top-1 accuracy comparison (Fig. 5); the paper's
// accompanying text also quotes top-5 gains, so both are shown.
func PrintFig5(w io.Writer, rows []ComparisonRow, scale Scale) {
	fmt.Fprintf(w, "Figure 5: average top-1 accuracy over the user classes, %d combos/config\n", scale.Combos)
	fmt.Fprintf(w, "%-4s %-16s %9s %9s %9s %9s  | top-5: %9s %9s\n",
		"K", "usage", "orig", "B", "W", "M", "orig", "M")
	fmt.Fprintln(w, strings.Repeat("-", 90))
	for _, r := range rows {
		fmt.Fprintf(w, "%-4d %-16s %9.3f %9.3f %9.3f %9.3f  |         %9.3f %9.3f\n",
			r.K, r.Usage, r.Top1Orig, r.Top1B, r.Top1W, r.Top1M, r.Top5Orig, r.Top5M)
	}
}
