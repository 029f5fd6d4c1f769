package core

import "fmt"

// Params are the knobs of Algorithms 1 and 2. The defaults are the
// paper's §V settings: ε = 3%, Tstart = 0.4, step = 0.025, pruning the
// last 6 layers (5 prunable stages; the output layer is exempt).
type Params struct {
	// Epsilon is the maximum allowed per-class accuracy degradation.
	Epsilon float64
	// TStart is the initial firing-rate threshold.
	TStart float64
	// Step is the threshold reduction applied when an ε check fails.
	Step float64
	// Stages are the prunable stage indices, ascending. Leave nil to use
	// firing.PrunableStages (the paper's last-6-layers rule).
	Stages []int
}

// DefaultParams returns the paper's experimental settings.
func DefaultParams() Params {
	return Params{Epsilon: 0.03, TStart: 0.4, Step: 0.025}
}

// maxThresholds bounds a threshold descent: Validate refuses a Step that
// would take more than this many thresholds from TStart down to 0. The
// default descent takes 16.
const maxThresholds = 10000

// Validate rejects configurations that cannot terminate or are nonsense.
// Each bound is a negated in-range test, so NaN fails every one.
func (p Params) Validate() error {
	if !(p.Epsilon >= 0 && p.Epsilon < 1) {
		return fmt.Errorf("core: epsilon %v outside [0,1)", p.Epsilon)
	}
	if !(p.TStart > 0 && p.TStart <= 1) {
		return fmt.Errorf("core: TStart %v outside (0,1]", p.TStart)
	}
	// This also refuses a step below TStart's float spacing, which would
	// never lower T.
	if !(p.Step > 0 && p.TStart/p.Step <= maxThresholds) {
		return fmt.Errorf("core: step %v does not descend from TStart %v to 0 in at most %d positive steps", p.Step, p.TStart, maxThresholds)
	}
	if len(p.Stages) == 0 {
		return fmt.Errorf("core: no prunable stages")
	}
	for i := 1; i < len(p.Stages); i++ {
		if p.Stages[i] <= p.Stages[i-1] {
			return fmt.Errorf("core: stages %v not strictly ascending", p.Stages)
		}
	}
	return nil
}
