package exp

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"capnn/internal/core"
	"capnn/internal/firing"
)

// Note: suffix evaluators built for wider prunable windows cache more
// activations; the ablation constructs them per point.

// EpsilonRow is one point of the ε ablation: how the accuracy-degradation
// budget trades against model size (the paper fixes ε = 3%; DESIGN.md
// calls this knob out as the central design choice of Algorithms 1–2).
type EpsilonRow struct {
	Epsilon  float64
	RelSize  float64
	Top1     float64
	Top1Orig float64
}

// RunEpsilonAblation sweeps ε for CAP'NN-W at fixed K with uniform usage.
func RunEpsilonAblation(fx *Fixture, scale Scale, epsilons []float64, k int, log io.Writer) ([]EpsilonRow, error) {
	var rows []EpsilonRow
	for _, eps := range epsilons {
		params := fx.Sys.Params
		params.Epsilon = eps
		rng := rand.New(rand.NewSource(scale.Seed*86028121 + int64(eps*1000)))
		v, err := sweep(rng, fx.Config.Synth.Classes, k, scale.Combos, func(_ int, classes []int) ([]float64, error) {
			return measureW(fx, fx.Sys.Eval, fx.Sys.Rates, params, classes)
		})
		if err != nil {
			return nil, fmt.Errorf("epsilon %v: %w", eps, err)
		}
		row := EpsilonRow{Epsilon: eps, RelSize: v[0], Top1: v[1], Top1Orig: v[2]}
		rows = append(rows, row)
		if log != nil {
			fmt.Fprintf(log, "exp: ablation ε=%.3f done (size %.3f)\n", eps, row.RelSize)
		}
	}
	return rows, nil
}

// measureW prunes for uniform usage of classes with CAP'NN-W under
// params and returns the pruned model's relative size, top-1 and the
// unpruned model's top-1 on those classes.
func measureW(fx *Fixture, ev *core.SuffixEvaluator, rates *firing.Rates, params core.Params, classes []int) ([]float64, error) {
	prefs := core.Uniform(classes)
	masks, err := core.PruneW(ev, rates, prefs, params)
	if err != nil {
		return nil, err
	}
	res, err := core.Measure(fx.Net, prefs, masks, fx.Sets.Test)
	if err != nil {
		return nil, err
	}
	return []float64{res.RelativeSize, res.Top1, res.BaseTop1}, nil
}

// PrintEpsilonAblation renders the ε ablation.
func PrintEpsilonAblation(w io.Writer, rows []EpsilonRow, k int, scale Scale) {
	fmt.Fprintf(w, "Ablation: ε vs model size (CAP'NN-W, K=%d, uniform usage, %d combos)\n", k, scale.Combos)
	fmt.Fprintf(w, "%-8s %10s %10s %10s\n", "epsilon", "rel size", "top1", "top1 orig")
	fmt.Fprintln(w, strings.Repeat("-", 42))
	for _, r := range rows {
		fmt.Fprintf(w, "%-8.3f %10.3f %10.3f %10.3f\n", r.Epsilon, r.RelSize, r.Top1, r.Top1Orig)
	}
}

// QuantRow is one point of the rate-quantization ablation (paper §V-C
// stores 3-bit rates; this measures what coarser codes cost).
type QuantRow struct {
	Bits          int
	RelSize       float64
	Top1          float64
	MaskAgreement float64 // fraction of units whose prune decision matches full precision
}

// RunQuantAblation compares CAP'NN-W decisions under b-bit dequantized
// rates against full-precision rates at fixed K.
func RunQuantAblation(fx *Fixture, scale Scale, bitWidths []int, k int, log io.Writer) ([]QuantRow, error) {
	rng := rand.New(rand.NewSource(scale.Seed * 275604541))
	classes := sampleClasses(rng, fx.Config.Synth.Classes, k)
	prefs := core.Uniform(classes)

	full, err := core.PruneW(fx.Sys.Eval, fx.Sys.Rates, prefs, fx.Sys.Params)
	if err != nil {
		return nil, err
	}

	var rows []QuantRow
	for _, bits := range bitWidths {
		q := fx.Rates.Clone()
		for s, lr := range q.Layers {
			qq, err := firing.Quantize(lr, bits)
			if err != nil {
				return nil, err
			}
			q.Layers[s] = qq.Dequantize()
		}
		masks, err := core.PruneW(fx.Sys.Eval, q, prefs, fx.Sys.Params)
		if err != nil {
			return nil, fmt.Errorf("quant %d-bit: %w", bits, err)
		}
		res, err := core.Measure(fx.Net, prefs, masks, fx.Sets.Test)
		if err != nil {
			return nil, err
		}
		agree, total := 0, 0
		for s, m := range masks {
			for i, p := range m {
				total++
				if p == full[s][i] {
					agree++
				}
			}
		}
		row := QuantRow{Bits: bits, RelSize: res.RelativeSize, Top1: res.Top1}
		if total > 0 {
			row.MaskAgreement = float64(agree) / float64(total)
		}
		rows = append(rows, row)
		if log != nil {
			fmt.Fprintf(log, "exp: quant ablation %d-bit done (agreement %.2f)\n", bits, row.MaskAgreement)
		}
	}
	return rows, nil
}

// PrintQuantAblation renders the quantization ablation.
func PrintQuantAblation(w io.Writer, rows []QuantRow, k int) {
	fmt.Fprintf(w, "Ablation: firing-rate quantization (CAP'NN-W, K=%d; paper stores 3-bit)\n", k)
	fmt.Fprintf(w, "%-6s %10s %10s %12s\n", "bits", "rel size", "top1", "mask match")
	fmt.Fprintln(w, strings.Repeat("-", 42))
	for _, r := range rows {
		fmt.Fprintf(w, "%-6d %10.3f %10.3f %12.2f\n", r.Bits, r.RelSize, r.Top1, r.MaskAgreement)
	}
}

// LstartRow is one point of the l_start ablation: how many trailing unit
// layers CAP'NN is allowed to prune. The paper fixes the last 6 (5
// prunable + the exempt output layer) arguing earlier layers carry
// general features (footnote 3); this ablation measures that choice.
type LstartRow struct {
	// PrunableStages is the number of stages carrying masks.
	PrunableStages int
	RelSize        float64
	Top1           float64
	Top1Orig       float64
}

// RunLstartAblation sweeps the number of trailing prunable stages for
// CAP'NN-W at fixed K with uniform usage. Counts beyond the available
// stages are clamped.
func RunLstartAblation(fx *Fixture, scale Scale, stageCounts []int, k int, log io.Writer) ([]LstartRow, error) {
	stages := fx.Net.Stages()
	numUnit := len(stages)
	var rows []LstartRow
	for _, count := range stageCounts {
		if count < 1 {
			return nil, fmt.Errorf("exp: stage count %d < 1", count)
		}
		if count > numUnit-1 {
			count = numUnit - 1 // output layer is never prunable
		}
		var prunable []int
		for s := numUnit - 1 - count; s < numUnit-1; s++ {
			prunable = append(prunable, s)
		}
		params := fx.Sys.Params
		params.Stages = prunable
		// Rates may not cover the extra stages; profile on demand.
		rates := fx.Rates
		missing := false
		for _, s := range prunable {
			if rates.Layers[s] == nil {
				missing = true
			}
		}
		if missing {
			var err error
			rates, err = firing.Compute(fx.Net, fx.Sets.Profile, prunable)
			if err != nil {
				return nil, err
			}
		}
		ev, err := core.NewSuffixEvaluator(fx.Net, fx.Sets.Val, prunable[0])
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(scale.Seed*179424673 + int64(count)))
		v, err := sweep(rng, fx.Config.Synth.Classes, k, scale.Combos, func(_ int, classes []int) ([]float64, error) {
			return measureW(fx, ev, rates, params, classes)
		})
		if err != nil {
			return nil, fmt.Errorf("lstart %d: %w", count, err)
		}
		row := LstartRow{PrunableStages: count, RelSize: v[0], Top1: v[1], Top1Orig: v[2]}
		rows = append(rows, row)
		if log != nil {
			fmt.Fprintf(log, "exp: lstart ablation %d stages done (size %.3f)\n", count, row.RelSize)
		}
	}
	return rows, nil
}

// PrintLstartAblation renders the l_start ablation.
func PrintLstartAblation(w io.Writer, rows []LstartRow, k int, scale Scale) {
	fmt.Fprintf(w, "Ablation: number of prunable trailing stages (CAP'NN-W, K=%d, %d combos)\n", k, scale.Combos)
	fmt.Fprintf(w, "%-16s %10s %10s %10s\n", "prunable stages", "rel size", "top1", "top1 orig")
	fmt.Fprintln(w, strings.Repeat("-", 50))
	for _, r := range rows {
		fmt.Fprintf(w, "%-16d %10.3f %10.3f %10.3f\n", r.PrunableStages, r.RelSize, r.Top1, r.Top1Orig)
	}
}
