package core

import (
	"fmt"

	"capnn/internal/firing"
	"capnn/internal/nn"
)

// TopConfusingCount is the number of confusing classes examined per user
// class (paper §III-C: top-5, chosen because it relates to top-5 accuracy).
const TopConfusingCount = 5

// MReport describes what CAP'NN-M found and pruned.
type MReport struct {
	// Masks is the final prune decision per stage.
	Masks map[int][]bool
	// Confusing maps each user class to its top confusing classes.
	Confusing map[int][]int
	// Miseffectual maps each user class to the last-hidden-layer neurons
	// identified as miseffectual for it.
	Miseffectual map[int][]int
}

// PruneM runs CAP'NN-M (paper §III-C): identify miseffectual neurons in
// the last hidden layer — neurons whose output-layer weight toward a top
// confusing class exceeds (and is positive) their weight toward the user
// class — zero those neurons' firing-rate entries for that class, and
// then run CAP'NN-W on the modified rates. Zeroing the entries collapses
// the neurons' effective firing rates, so the weighted pass prunes them
// in addition to the ineffectual units it already removes; because the
// ε check inside PruneW measures true accuracy, the paper's degradation
// guarantee is preserved while the removal of confusion-driving neurons
// can lift accuracy above the unpruned baseline.
func PruneM(ev *SuffixEvaluator, rates *firing.Rates, prefs Preferences, params Params, confusion *ConfusionProfile) (*MReport, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if err := prefs.Validate(rates.Classes); err != nil {
		return nil, err
	}
	lastHidden := params.Stages[len(params.Stages)-1]
	lr := rates.Layers[lastHidden]
	if lr == nil {
		return nil, fmt.Errorf("core: no firing rates for last hidden stage %d", lastHidden)
	}

	// Step 1: top confusing classes per user class, from the confusion
	// matrix of the unpruned model.
	cm, err := confusion.Matrix(prefs.Classes)
	if err != nil {
		return nil, err
	}

	// Step 2: miseffectual neurons among N_last via output weights
	// (contribution ∂c_j/∂n_i = w_ji, Eq. 1).
	stages := ev.net.Stages()
	outStage := stages[len(stages)-1]
	outDense, ok := outStage.Unit.(*nn.Dense)
	if !ok {
		return nil, fmt.Errorf("core: output stage is %T, want *nn.Dense", outStage.Unit)
	}
	W := outDense.Weights() // [classes, lastHiddenUnits]
	if W.Dim(1) != lr.Units {
		return nil, fmt.Errorf("core: output weights cover %d inputs but last hidden stage has %d units", W.Dim(1), lr.Units)
	}

	report := &MReport{Confusing: map[int][]int{}, Miseffectual: map[int][]int{}}
	modified := rates.Clone()
	mlr := modified.Layers[lastHidden]
	for _, k := range prefs.Classes {
		conf, err := cm.TopConfusing(k, TopConfusingCount)
		if err != nil {
			return nil, err
		}
		report.Confusing[k] = conf
		for n := 0; n < lr.Units; n++ {
			wk := W.At(k, n)
			for _, c := range conf {
				wc := W.At(c, n)
				if wc > wk && wc > 0 {
					report.Miseffectual[k] = append(report.Miseffectual[k], n)
					mlr.Set(n, k, 0) // F_last(n, k) ← 0
					break
				}
			}
		}
	}

	masks, err := PruneW(ev, modified, prefs, params)
	if err != nil {
		return nil, err
	}
	report.Masks = masks
	return report, nil
}
