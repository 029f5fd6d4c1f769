package exp

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"capnn/internal/baselines"
	"capnn/internal/core"
	"capnn/internal/nn"
	"capnn/internal/train"
)

// StackedRow is one (baseline, K) cell of Table II: the class-unaware
// pruned+retrained model alone versus with CAP'NN-M stacked on top.
type StackedRow struct {
	Baseline string
	K        int

	SizeWithout, SizeWith float64
	Top1Without, Top1With float64
	Top5Without, Top5With float64
}

// stackedBaseline describes one class-unaware scheme of Table II.
type stackedBaseline struct {
	name     string
	crit     baselines.Criterion
	fraction float64
}

// Table2Baselines mirrors the paper's two class-unaware columns: channel
// pruning in the spirit of He et al. [5] and ThiNet [9]. Fractions are
// chosen to land near the paper's 0.94/0.90 relative sizes.
func table2Baselines() []stackedBaseline {
	return []stackedBaseline{
		{"channel-pruning [5]", baselines.ByWeightNorm, 0.10},
		{"thinet [9]", baselines.ByThiNet, 0.15},
	}
}

// RunStacked reproduces Table II: prune the reference model with a
// class-unaware baseline, compact, fine-tune the compacted model briefly
// (the paper uses the authors' retrained models), then personalize it
// with CAP'NN-M for K = 2..5.
func RunStacked(fx *Fixture, scale Scale, log io.Writer) ([]StackedRow, error) {
	var rows []StackedRow
	for _, bl := range table2Baselines() {
		if log != nil {
			fmt.Fprintf(log, "exp: table2 baseline %s...\n", bl.name)
		}
		compacted, sizeWithout, err := buildUnawareBaseline(fx, bl)
		if err != nil {
			return nil, fmt.Errorf("table2 %s: %w", bl.name, err)
		}
		params := core.DefaultParams()
		params.Epsilon = fx.Config.Epsilon
		params.Stages = nil // recompute for the compacted topology
		sys, err := core.NewSystem(compacted, fx.Sets.Val, fx.Sets.Profile, nil, params)
		if err != nil {
			return nil, err
		}
		origParams := float64(fx.Net.ParamCount())
		for _, k := range []int{2, 3, 4, 5} {
			rng := rand.New(rand.NewSource(scale.Seed*32452843 + int64(k)))
			v, err := sweep(rng, fx.Config.Synth.Classes, k, scale.Combos, func(_ int, classes []int) ([]float64, error) {
				res, err := sys.Personalize(core.VariantM, core.Uniform(classes), fx.Sets.Test)
				if err != nil {
					return nil, fmt.Errorf("table2 %s K=%d: %w", bl.name, k, err)
				}
				// res.RelativeSize is relative to the compacted baseline;
				// Table II normalizes everything to the original model.
				return []float64{res.RelativeSize * float64(compacted.ParamCount()) / origParams,
					res.BaseTop1, res.Top1, res.BaseTop5, res.Top5}, nil
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, StackedRow{Baseline: bl.name, K: k, SizeWithout: sizeWithout,
				SizeWith: v[0], Top1Without: v[1], Top1With: v[2], Top5Without: v[3], Top5With: v[4]})
			if log != nil {
				fmt.Fprintf(log, "exp: table2 %s K=%d done\n", bl.name, k)
			}
		}
	}
	return rows, nil
}

// buildUnawareBaseline applies the class-unaware pruning to the fixture
// model, compacts, and fine-tunes the compacted copy. Returns it and its
// size relative to the original.
func buildUnawareBaseline(fx *Fixture, bl stackedBaseline) (*nn.Network, float64, error) {
	// Class-unaware channel pruning targets conv layers ([5], [9] are
	// filter/channel pruners); skip the first two convs, which carry
	// generic features and almost no parameters.
	var convStages []int
	for i, st := range fx.Net.Stages() {
		if _, ok := st.Unit.(*nn.Conv2D); ok && i >= 2 {
			convStages = append(convStages, i)
		}
	}
	masks, err := baselines.PruneUnaware(fx.Net, convStages, bl.fraction, bl.crit, fx.Sets.Profile)
	if err != nil {
		return nil, 0, err
	}
	compacted, err := nn.CompactMasked(fx.Net, masks)
	if err != nil {
		return nil, 0, err
	}
	if err := train.FineTune(compacted, fx.Sets.Train, nil, 3, 17); err != nil {
		return nil, 0, err
	}
	rel := float64(compacted.ParamCount()) / float64(fx.Net.ParamCount())
	return compacted, rel, nil
}

// PrintTable2 renders Table II.
func PrintTable2(w io.Writer, rows []StackedRow, scale Scale) {
	fmt.Fprintf(w, "Table II: CAP'NN-M stacked on class-unaware pruned models, %d combos/cell\n", scale.Combos)
	fmt.Fprintf(w, "%-22s %-3s | %-9s %-9s | %-13s %-13s | %-13s %-13s\n",
		"baseline", "K", "size w/o", "size w/", "top1 w/o", "top1 w/", "top5 w/o", "top5 w/")
	fmt.Fprintln(w, strings.Repeat("-", 110))
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %-3d | %-9.2f %-9.2f | %-13.3f %-13.3f | %-13.3f %-13.3f\n",
			r.Baseline, r.K, r.SizeWithout, r.SizeWith, r.Top1Without, r.Top1With, r.Top5Without, r.Top5With)
	}
}
