package core

import (
	"fmt"

	"capnn/internal/firing"
)

// BMatrices is the output of Algorithm 1 (CAP'NN-B offline phase): one
// binary pruning matrix P_ℓ per prunable stage, where P[stage][n][c]
// reports that unit n may be pruned when personalizing for class c. The
// matrices are independent of the user's subset K and are stored in the
// cloud; the online phase is a cheap intersection.
type BMatrices struct {
	Classes int
	Stages  []int
	// P maps stage → Units×Classes booleans, row-major by unit.
	P map[int][]bool
	// Units maps stage → unit count.
	Units map[int]int
}

// At reports P_stage(n, c).
func (b *BMatrices) At(stage, n, c int) bool {
	return b.P[stage][n*b.Classes+c]
}

// ComputeB runs Algorithm 1: for every class c and every prunable stage
// (in order), descend the firing-rate threshold from TStart until
// pruning {n : F_ℓ(n,c) < T} in this stage — together with the already
// committed class-c prunes of earlier stages — keeps the accuracy
// degradation of every class within ε. Class c's column depends on no
// other class's, so the classes are searched one after another, each on
// one replay that advances past its committed stages. The evaluator's
// network must be the profiled model; it is only read.
func ComputeB(ev *SuffixEvaluator, rates *firing.Rates, params Params) (*BMatrices, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if err := ev.checkStages(rates, params.Stages); err != nil {
		return nil, err
	}
	stages := ev.net.Stages()
	out := &BMatrices{Classes: rates.Classes, Stages: params.Stages, P: map[int][]bool{}, Units: map[int]int{}}
	for _, l := range params.Stages {
		out.Units[l] = stages[l].Unit.Units()
		out.P[l] = make([]bool, out.Units[l]*out.Classes)
	}

	base := ev.baseline()

	for c := 0; c < out.Classes; c++ {
		r := ev.newReplay(nil)
		// Class c's masks so far: final for the stages already searched,
		// the candidate under test for stage l.
		committed := map[int][]bool{}
		for _, l := range params.Stages {
			lr := rates.Layers[l]
			units := out.Units[l]
			r.advanceTo(l, committed)

			score := make([]float64, units)
			for n := range score {
				score[n] = lr.At(n, c)
			}
			// An empty candidate set trivially satisfies ε (earlier
			// stages' class-c prunes were validated when committed).
			var accepted, lastFailed []bool
			for T := params.TStart; T > 0; T -= params.Step {
				H := make([]bool, units)
				flagged := 0
				for n := 0; n < units; n++ {
					if score[n] < T {
						H[n] = true
						flagged++
					}
				}
				if flagged == 0 {
					break
				}
				keepOne(H, score)
				// Lowering T often yields the identical candidate set
				// (rates cluster); re-evaluating it cannot succeed.
				if sameMask(H, lastFailed) {
					continue
				}
				committed[l] = H
				if r.withinEps(committed, base, params.Epsilon, nil) {
					accepted = H
					break
				}
				lastFailed = H
			}
			committed[l] = accepted
			for n, p := range accepted {
				out.P[l][n*out.Classes+c] = p
			}
		}
	}
	return out, nil
}

// OnlineB is CAP'NN-B's run-time step: the pruned set for user classes K
// is the intersection ∩_{c∈K} P_ℓ(:,c) at every stage — a unit is pruned
// only if it is prunable for every class the user cares about. Because
// each per-class column guarantees ≤ ε degradation for all classes, so
// does the (smaller) intersection.
func OnlineB(b *BMatrices, K []int) (map[int][]bool, error) {
	if len(K) == 0 {
		return nil, fmt.Errorf("core: empty class subset")
	}
	for _, c := range K {
		if c < 0 || c >= b.Classes {
			return nil, fmt.Errorf("core: class %d outside [0,%d)", c, b.Classes)
		}
	}
	masks := map[int][]bool{}
	for _, l := range b.Stages {
		units := b.Units[l]
		mask := make([]bool, units)
		for n := 0; n < units; n++ {
			prune := true
			for _, c := range K {
				if !b.P[l][n*b.Classes+c] {
					prune = false
					break
				}
			}
			mask[n] = prune
		}
		masks[l] = mask
	}
	return masks, nil
}
