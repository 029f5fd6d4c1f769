package core

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"capnn/internal/data"
	"capnn/internal/firing"
	"capnn/internal/nn"
	"capnn/internal/train"
)

// Variant names one of the paper's three pruning schemes.
type Variant string

const (
	VariantB Variant = "CAP'NN-B"
	VariantW Variant = "CAP'NN-W"
	VariantM Variant = "CAP'NN-M"

	// DefaultVariant is what a request that names no variant gets.
	DefaultVariant = VariantM
)

// ParseVariant decodes a variant's wire spelling — "B", "W" or "M" in
// either case — with "" meaning DefaultVariant. It is the one decoder
// behind every wire and flag that names a variant, so a shard and the
// gateway placing its requests agree on what a nameless one is.
func ParseVariant(s string) (Variant, error) {
	switch s {
	case "":
		return DefaultVariant, nil
	case "B", "b":
		return VariantB, nil
	case "W", "w":
		return VariantW, nil
	case "M", "m":
		return VariantM, nil
	}
	return "", fmt.Errorf("core: unknown variant %q (want B, W or M)", s)
}

// Letter returns the variant's wire spelling ("B", "W" or "M").
func (v Variant) Letter() string { return strings.TrimPrefix(string(v), "CAP'NN-") }

// System bundles a trained network with everything CAP'NN keeps in the
// cloud: its firing-rate matrices and the confusion counts of the same
// profiling pass, the validation evaluator used for ε checks (which
// builds a class's cached rows when a search first names it), and the
// Algorithm 1 matrices (computed lazily, reused across users). It is the
// entry point the facade and the serving tier build on.
//
// The network is never written: Prune,
// OffPreferenceShare and every ε check read its weights and judge masks
// as values, and each lazily built table is guarded where it lives. All
// methods are safe for concurrent use, and the masks Prune returns do
// not depend on what runs beside it.
type System struct {
	Net    *nn.Network
	Rates  *firing.Rates
	Params Params
	Eval   *SuffixEvaluator

	bMu sync.Mutex
	b   *BMatrices
}

// NewSystem profiles net over profileSet if rates is nil (profileSet is
// read only then; given rates must carry their confusion counts) and
// prepares the suffix evaluator over valSet, which runs no forward pass
// until a search names a class. params.Stages defaults to the paper's
// last-6-layers rule when nil.
func NewSystem(net *nn.Network, valSet, profileSet *data.Dataset, rates *firing.Rates, params Params) (*System, error) {
	if params.Stages == nil {
		params.Stages = firing.PrunableStages(net)
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	var err error
	if rates == nil {
		rates, err = firing.Compute(net, profileSet, params.Stages)
	} else {
		err = checkConfusion(net, rates)
	}
	if err != nil {
		return nil, err
	}
	ev, err := NewSuffixEvaluator(net, valSet, params.Stages[0])
	if err != nil {
		return nil, err
	}
	return &System{Net: net, Rates: rates, Params: params, Eval: ev}, nil
}

// BMatrices returns Algorithm 1's per-class pruning matrices, computing
// and caching them on first use (the paper's offline phase). Concurrent
// first users wait for the one computation.
func (s *System) BMatrices() (*BMatrices, error) {
	s.bMu.Lock()
	defer s.bMu.Unlock()
	if s.b == nil {
		b, err := ComputeB(s.Eval, s.Rates, s.Params)
		if err != nil {
			return nil, err
		}
		s.b = b
	}
	return s.b, nil
}

// SetBMatrices installs precomputed Algorithm 1 matrices (for example
// loaded from a disk cache) so BMatrices does not recompute them.
func (s *System) SetBMatrices(b *BMatrices) {
	s.bMu.Lock()
	s.b = b
	s.bMu.Unlock()
}

// Prune runs the requested variant for the given preferences and returns
// the per-stage masks. It writes nothing to the network and is
// reentrant.
func (s *System) Prune(v Variant, prefs Preferences) (map[int][]bool, error) {
	if err := prefs.Validate(s.Rates.Classes); err != nil {
		return nil, err
	}
	switch v {
	case VariantB:
		b, err := s.BMatrices()
		if err != nil {
			return nil, err
		}
		return OnlineB(b, prefs.Classes)
	case VariantW:
		return PruneW(s.Eval, s.Rates, prefs, s.Params)
	case VariantM:
		rep, err := PruneM(s.Eval, s.Rates, prefs, s.Params)
		if err != nil {
			return nil, err
		}
		return rep.Masks, nil
	default:
		return nil, fmt.Errorf("core: unknown variant %q", v)
	}
}

// OffPreferenceShare is the share of top-1 predictions the unpruned
// model's profiled confusion rows place outside prefs.Classes when the
// traffic is exactly what prefs claims, and the effective number of
// profiling images behind that estimate (1/Σ wₖ²/nₖ: the rows are
// per-class frequencies, mixed by the claimed weights). It is what a
// serving-time drift test must not mistake for drift.
func (s *System) OffPreferenceShare(prefs Preferences) (share, n float64, err error) {
	if err := prefs.Validate(s.Rates.Classes); err != nil {
		return 0, 0, err
	}
	cm, err := confusionMatrix(s.Rates, prefs.Classes)
	if err != nil {
		return 0, 0, err
	}
	for i, k := range prefs.Classes {
		off := 1.0
		for _, c := range prefs.Classes {
			off -= cm.Rows[i][c]
		}
		w := prefs.Weights[i]
		share += w * off
		n += w * w / float64(profiled(s.Rates, k))
	}
	return math.Max(share, 0), 1 / n, nil
}

// Result reports what a pruning run achieved, measured on a test set.
type Result struct {
	Masks map[int][]bool
	// RelativeSize is pruned params / original params (paper Fig. 4).
	RelativeSize float64
	// PrunedUnits / TotalUnits count units across the prunable stages.
	PrunedUnits, TotalUnits int
	// Top1/Top5 are mean per-class accuracies over the user classes of
	// the pruned model; BaseTop1/BaseTop5 are the unpruned reference.
	Top1, Top5, BaseTop1, BaseTop5 float64
}

// Measure compacts net under masks to count unique parameters and
// evaluates pruned-vs-original accuracy over the user's classes on
// testSet. net is only read.
func Measure(net *nn.Network, prefs Preferences, masks map[int][]bool, testSet *data.Dataset) (Result, error) {
	res := Result{Masks: masks}
	sub := testSet.FilterClasses(prefs.Classes)
	if sub.Len() == 0 {
		return res, fmt.Errorf("core: test set has no samples of the user classes")
	}

	baseEval := train.Evaluate(net, nil, sub)
	res.BaseTop1 = train.MeanAccuracyOver(baseEval, prefs.Classes)
	res.BaseTop5 = train.MeanTop5Over(baseEval, prefs.Classes)
	origParams := net.ParamCount()

	prunedEval := train.Evaluate(net, masks, sub)
	res.Top1 = train.MeanAccuracyOver(prunedEval, prefs.Classes)
	res.Top5 = train.MeanTop5Over(prunedEval, prefs.Classes)

	compact, err := nn.CompactMasked(net, masks)
	if err != nil {
		return res, err
	}
	res.RelativeSize = float64(compact.ParamCount()) / float64(origParams)

	for _, m := range masks {
		for _, p := range m {
			res.TotalUnits++
			if p {
				res.PrunedUnits++
			}
		}
	}
	return res, nil
}

// Personalize is the end-to-end convenience: prune with the given variant
// and measure on testSet.
func (s *System) Personalize(v Variant, prefs Preferences, testSet *data.Dataset) (Result, error) {
	masks, err := s.Prune(v, prefs)
	if err != nil {
		return Result{}, err
	}
	return Measure(s.Net, prefs, masks, testSet)
}
