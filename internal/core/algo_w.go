package core

import "capnn/internal/firing"

// PruneW runs CAP'NN-W (Algorithm 2): weighted class-aware pruning. At
// every prunable stage it flags units whose *effective* firing rate
// Σ_{k∈K} w_k·F_ℓ(n,k) is at most the threshold T, then descends T until
// the per-class degradation on the user classes K stays within ε. Unlike
// Algorithm 1 this depends on the user's usage distribution and therefore
// runs online; it is still fast because the per-class loop of Algorithm 1
// disappears and the ε check covers only K (paper §III-B) — it replays
// only K's validation rows, and only the layers from the stage being
// searched on.
//
// Every candidate is judged as a value — the committed masks with the
// candidate in its stage's slot — so the network is only read and any
// number of searches may share one evaluator.
func PruneW(ev *SuffixEvaluator, rates *firing.Rates, prefs Preferences, params Params) (map[int][]bool, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if err := prefs.Validate(rates.Classes); err != nil {
		return nil, err
	}
	if err := ev.checkStages(rates, params.Stages); err != nil {
		return nil, err
	}
	stages := ev.net.Stages()
	base := ev.baseline()
	r := ev.newReplay(prefs.Classes)

	committed := map[int][]bool{}
	for _, l := range params.Stages {
		lr := rates.Layers[l]
		units := stages[l].Unit.Units()
		// The committed masks of earlier stages are final.
		r.advanceTo(l, committed)

		// Effective firing rate per unit (fixed per stage).
		eff := make([]float64, units)
		for n := 0; n < units; n++ {
			eff[n] = EffectiveRate(lr, prefs, n)
		}

		// An empty candidate set is trivially within ε given the
		// already-committed earlier stages.
		accepted := make([]bool, units)
		var lastFailed []bool
		for T := params.TStart; T > 0; T -= params.Step {
			H := make([]bool, units)
			for n := 0; n < units; n++ {
				H[n] = eff[n] <= T
			}
			keepOne(H, eff)
			if sameMask(H, lastFailed) {
				continue
			}
			committed[l] = H
			if DegradationOK(base, r.accuracy(committed), params.Epsilon, prefs.Classes) {
				accepted = H
				break
			}
			lastFailed = H
		}
		committed[l] = accepted
	}
	return committed, nil
}

// sameMask reports whether a and b are equal boolean masks (false when
// either is nil).
func sameMask(a, b []bool) bool {
	if a == nil || b == nil || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// keepOne unflags the highest-scoring unit when a candidate set would
// silence an entire layer. Pruning every unit of a layer can pass the
// paper's ε check in degenerate cases (a constant predictor is "accurate"
// for a single-class user) but produces a physically empty layer; real
// deployments must keep the layer alive.
func keepOne(H []bool, score []float64) {
	best, bi := -1.0, -1
	for n, p := range H {
		if !p {
			return // something survives already
		}
		if score[n] > best {
			best, bi = score[n], n
		}
	}
	if bi >= 0 {
		H[bi] = false
	}
}

// EffectiveRate computes Σ_k w_k·F(n,k) for unit n of the given matrix —
// exposed for the Figure 3 worked example and diagnostics.
func EffectiveRate(lr *firing.LayerRates, prefs Preferences, n int) float64 {
	s := 0.0
	for i, k := range prefs.Classes {
		s += prefs.Weights[i] * lr.At(n, k)
	}
	return s
}
