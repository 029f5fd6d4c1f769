package serve

import (
	"fmt"
	"math"
	"sync"

	"capnn/internal/core"
)

// entryGuard is the runtime ε-guard attached to one cached mask entry.
// CAP'NN's contract — no preference class degrades by more than ε — is
// verified at prune time against the preferences the user *claimed*.
// The guard re-checks at serve time that the class mix the user actually
// *sends* is still the claimed one (the SECS observation: class-skew
// systems must react when the observed distribution drifts from the
// profiled one), because traffic outside the preference set runs on
// units that were pruned away with no bound on the damage.
//
// Mechanism: every sampleEvery-th request for the entry is served
// through the unpruned network (a shadow sample) and its top-1
// prediction lands in a sliding per-class window (core.SlidingMonitor
// semantics). Sampling must bypass the masks: a model pruned for K
// tends to collapse predictions *into* K, so the pruned model's own
// outputs would hide exactly the drift the guard exists to catch.
//
// The unpruned model is itself wrong some of the time, so even traffic
// that is exactly what the user claimed shows predictions outside K —
// on the cifar10 fixture 2–28 % of them, depending on the key. That
// share is known: the profiled confusion rows of the claimed classes
// predict it (core.System.OffPreferenceShare). The guard therefore makes
// one judgement (driftTest): the window's off-preference share against
// the predicted one, each with its sampling error. A tripped entry
// serves its users through the unpruned network (fallback) while a
// repersonalization against the observed preferences runs through the
// server's circuit breaker.
type entryGuard struct {
	every     int     // shadow-sample every Nth request; ≤0 disables
	predicted float64 // off-preference share the confusion rows predict
	profileN  float64 // profiling images behind predicted

	mu      sync.Mutex
	win     *core.SlidingMonitor
	inClass []bool // class → in the entry's preference set
	seq     int    // requests since last shadow sample
	tripped bool
}

// guardMinObs defers judgement until the window holds this many
// observations. The bounds alone nearly suffice — they widen as the
// window empties — but for a key whose rows predict no off-preference
// mass at all they would let the first unlucky shadow sample trip a
// fresh entry.
const guardMinObs = 8

// guardZ is the normal quantile both confidence bounds are taken at:
// one-sided 0.13 % each, spent on a window that is re-judged at every
// shadow sample.
const guardZ = 3

// TripReport is the evidence an ε-guard tripped on: Observed is the
// share of the window's Observations predicted outside the preference
// set and ObservedLow its lower confidence bound; Predicted is the share
// the claimed classes' confusion rows explain and PredictedHigh its
// upper bound. The entry tripped because ObservedLow > PredictedHigh.
type TripReport struct {
	Key                      string
	Observations             int
	Observed, ObservedLow    float64
	Predicted, PredictedHigh float64
}

func (r TripReport) String() string {
	return fmt.Sprintf("off-preference share %.3f of %d observations (≥ %.3f) against %.3f predicted by the confusion rows (≤ %.3f)",
		r.Observed, r.Observations, r.ObservedLow, r.Predicted, r.PredictedHigh)
}

// driftTest is the guard's one judgement, a pure function of the window
// counts and the profiled prediction: off of n shadow observations fell
// outside the preference set, where the confusion rows — estimated from
// profileN images — predict a share of predicted. It reports drift when
// the Wilson lower bound of the observed share clears the Wilson upper
// bound of the predicted one: the observed excess is then more than the
// sampling error of either estimate explains. Bounding only the observed
// side is not enough — the rows are 40-image estimates.
func driftTest(off, n int, predicted, profileN float64) (TripReport, bool) {
	r := TripReport{Observations: n, Observed: float64(off) / float64(n), Predicted: predicted}
	r.ObservedLow, _ = wilson(r.Observed, float64(n))
	_, r.PredictedHigh = wilson(predicted, profileN)
	return r, n >= guardMinObs && r.ObservedLow > r.PredictedHigh
}

// wilson is the Wilson score interval at guardZ for a share p estimated
// from n samples.
func wilson(p, n float64) (low, high float64) {
	const z2 = guardZ * guardZ
	centre := (p + z2/(2*n)) / (1 + z2/n)
	half := guardZ / (1 + z2/n) * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
	return centre - half, centre + half
}

// admit is called once per request for the entry, before dispatch. It
// reports whether this request must be served through the unpruned
// network — and, distinctly, whether that is because the entry tripped
// (fallback) rather than a routine shadow sample. All unpruned traffic
// feeds observe either way.
func (g *entryGuard) admit() (unpruned, fallback bool) {
	if g == nil {
		return false, false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.tripped {
		// Fallback traffic is all unpruned; keep observing it so the
		// heal personalizes against the freshest window.
		return true, true
	}
	if g.every <= 0 {
		return false, false
	}
	g.seq++
	if g.seq >= g.every {
		g.seq = 0
		return true, false
	}
	return false, false
}

// observe feeds one unpruned top-1 prediction into the window and judges
// it. The trip is reported exactly once, with its evidence; a tripped
// entry keeps filling the window for its heal.
func (g *entryGuard) observe(pred int) (TripReport, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.win.Observe(pred) != nil || g.tripped {
		return TripReport{}, false // out of range, or already reported
	}
	r, trip := g.judgeLocked()
	g.tripped = trip
	return r, trip
}

func (g *entryGuard) judgeLocked() (TripReport, bool) {
	off := g.win.Total()
	for c, n := range g.win.Counts() {
		if g.inClass[c] {
			off -= n
		}
	}
	return driftTest(off, g.win.Total(), g.predicted, g.profileN)
}

// report returns the evidence of an entry that is serving fallback.
func (g *entryGuard) report() (TripReport, bool) {
	if g == nil {
		return TripReport{}, false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.tripped {
		return TripReport{}, false
	}
	r, _ := g.judgeLocked()
	return r, true
}

// observedPrefs derives fresh preferences from the window for the heal,
// keeping at most k classes (the entry's original breadth, so healing
// does not balloon the preference set and destroy the pruning win).
func (g *entryGuard) observedPrefs(k int) (core.Preferences, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.win.Preferences(k)
}

// clear ends a false alarm: the entry goes back to its own masks with an
// empty window.
func (g *entryGuard) clear() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.win.Reset()
	g.seq, g.tripped = 0, false
}
