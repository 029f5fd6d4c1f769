// Package core implements the paper's contribution: the three class-aware
// pruning algorithms (CAP'NN-B, CAP'NN-W, CAP'NN-M), the user-preference
// model they consume, the on-device monitoring period that can derive
// those preferences, and the fast suffix evaluator that makes the
// ε-degradation checks of Algorithms 1–2 cheap.
package core

import (
	"fmt"
	"math"
	"sort"
)

// Preferences captures what the cloud receives from a user before pruning
// (paper §II "Pruning Process"): the subset K of output classes the user
// expects to encounter and, for CAP'NN-W/M, a usage weight per class.
type Preferences struct {
	// Classes lists the user's classes (distinct, ascending after
	// Normalize).
	Classes []int
	// Weights holds one usage likelihood per entry of Classes; they sum
	// to 1 (paper §III-B: "For a single user, these weights add to 1").
	Weights []float64
}

// Uniform builds preferences with equal usage over the given classes.
func Uniform(classes []int) Preferences {
	w := make([]float64, len(classes))
	for i := range w {
		w[i] = 1.0 / float64(len(classes))
	}
	return Preferences{Classes: append([]int(nil), classes...), Weights: w}
}

// Weighted builds preferences from parallel class/weight slices,
// normalizing the weights to sum to 1.
func Weighted(classes []int, weights []float64) (Preferences, error) {
	if len(classes) != len(weights) {
		return Preferences{}, fmt.Errorf("core: %d classes but %d weights", len(classes), len(weights))
	}
	p := Preferences{Classes: append([]int(nil), classes...), Weights: append([]float64(nil), weights...)}
	sum := 0.0
	for _, w := range p.Weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return Preferences{}, fmt.Errorf("core: invalid weight %v", w)
		}
		sum += w
	}
	if sum <= 0 || math.IsInf(sum, 1) { // an overflowed sum would divide every weight to 0
		return Preferences{}, fmt.Errorf("core: weights sum to %v", sum)
	}
	for i := range p.Weights {
		p.Weights[i] /= sum
	}
	return p, nil
}

// NewPreferences decodes the (classes, weights) pair every wire request
// carries: nil weights mean uniform usage, and the result is normalized
// (classes ascending, weights summing to 1). It does not know the model;
// Validate before indexing by class.
func NewPreferences(classes []int, weights []float64) (Preferences, error) {
	if weights == nil {
		p := Uniform(classes)
		p.Normalize()
		return p, nil
	}
	p, err := Weighted(classes, weights)
	if err != nil {
		return Preferences{}, err
	}
	p.Normalize()
	return p, nil
}

// Validate checks the preferences against a model with numClasses outputs.
func (p Preferences) Validate(numClasses int) error {
	if len(p.Classes) == 0 {
		return fmt.Errorf("core: empty class subset")
	}
	if len(p.Classes) != len(p.Weights) {
		return fmt.Errorf("core: %d classes but %d weights", len(p.Classes), len(p.Weights))
	}
	seen := map[int]bool{}
	sum := 0.0
	for i, c := range p.Classes {
		if c < 0 || c >= numClasses {
			return fmt.Errorf("core: class %d outside [0,%d)", c, numClasses)
		}
		if seen[c] {
			return fmt.Errorf("core: duplicate class %d", c)
		}
		seen[c] = true
		if w := p.Weights[i]; math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("core: non-finite weight %v for class %d", w, c)
		}
		if p.Weights[i] < 0 {
			return fmt.Errorf("core: negative weight %v for class %d", p.Weights[i], c)
		}
		sum += p.Weights[i]
	}
	if !(math.Abs(sum-1) <= 1e-6) { // a NaN sum fails too
		return fmt.Errorf("core: weights sum to %v, want 1", sum)
	}
	return nil
}

// Normalize sorts classes ascending (carrying weights along) and rescales
// weights to sum to exactly 1. Already-sorted classes — every vector that
// has been through it once, so the second pass Key makes on a decoded
// request — take no allocation.
func (p *Preferences) Normalize() {
	if !sort.IntsAreSorted(p.Classes) {
		type pair struct {
			c int
			w float64
		}
		ps := make([]pair, len(p.Classes))
		for i := range ps {
			ps[i] = pair{p.Classes[i], p.Weights[i]}
		}
		sort.Slice(ps, func(i, j int) bool { return ps[i].c < ps[j].c })
		for i, x := range ps {
			p.Classes[i], p.Weights[i] = x.c, x.w
		}
	}
	sum := 0.0
	for _, w := range p.Weights {
		sum += w
	}
	if sum > 0 {
		for i := range p.Weights {
			p.Weights[i] /= sum
		}
	}
}

// keyScale quantizes weights for Key: two preference vectors whose
// normalized weights agree to ~1e-6 hash identically, so float noise
// from different normalization paths cannot fragment a mask cache.
const keyScale = 1e6

// Key returns a canonical hash of the preference vector, suitable as a
// cache key for personalization artifacts (prune masks, compacted
// models). It is stable under class permutation (classes are sorted
// with their weights carried along), under weight scaling (weights are
// renormalized to sum to 1), and under float rounding noise (weights
// are quantized to 1e-6 before hashing). p itself is not modified.
//
// Key does not validate; hash a garbage vector and you get a
// well-defined key for the same garbage. Validate first when the
// preferences come off the wire.
func (p Preferences) Key() string {
	var buf [16]byte
	return string(p.appendKey(buf[:0]))
}

// KeyUnder returns prefix + "/" + Key() — the shape of a mask-cache or
// placement key, where the prefix names the variant — in the one
// allocation of its result.
func (p Preferences) KeyUnder(prefix string) string {
	var buf [48]byte
	return string(p.appendKey(append(append(buf[:0], prefix...), '/')))
}

// appendKey appends Key's sixteen hex digits to b. Sorted classes — any
// vector NewPreferences built — are hashed where they lie, dividing each
// weight by the sum as Normalize would; only an unsorted vector is
// copied.
func (p Preferences) appendKey(b []byte) []byte {
	n := len(p.Classes)
	if len(p.Weights) < n {
		n = len(p.Weights) // unvalidated input: hash the consistent prefix
	}
	classes, weights, sum := p.Classes[:n], p.Weights[:n], 0.0
	if sort.IntsAreSorted(classes) {
		for _, w := range weights {
			sum += w
		}
	} else {
		q := Preferences{Classes: append([]int(nil), classes...), Weights: append([]float64(nil), weights...)}
		q.Normalize()
		classes, weights = q.Classes, q.Weights // already divided: sum stays 0
	}
	h := uint64(14695981039346656037) // FNV-1a, 64 bit
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v >> (8 * i) & 0xff)) * 1099511628211
		}
	}
	for i, c := range classes {
		w := weights[i]
		if sum > 0 {
			w /= sum
		}
		mix(uint64(int64(c)))
		mix(uint64(int64(math.Round(w * keyScale))))
	}
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[h>>shift&15])
	}
	return b
}

// Weight returns the usage weight of class c (0 if c ∉ K).
func (p Preferences) Weight(c int) float64 {
	for i, pc := range p.Classes {
		if pc == c {
			return p.Weights[i]
		}
	}
	return 0
}

// K returns |K|, the number of user classes.
func (p Preferences) K() int { return len(p.Classes) }
