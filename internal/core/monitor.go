package core

import (
	"fmt"

	"capnn/internal/tensor"
)

// Monitor implements the paper's dedicated monitoring period (§II): the
// device tracks the network's predictions for a while, and the most
// frequently observed classes with their empirical usage become the
// user's preferences.
type Monitor struct {
	counts []int
	total  int
}

// NewMonitor creates a monitor over numClasses output classes.
func NewMonitor(numClasses int) (*Monitor, error) {
	if numClasses < 2 {
		return nil, fmt.Errorf("core: monitor needs ≥2 classes, got %d", numClasses)
	}
	return &Monitor{counts: make([]int, numClasses)}, nil
}

// Observe records one top-1 prediction.
func (m *Monitor) Observe(pred int) error {
	if pred < 0 || pred >= len(m.counts) {
		return fmt.Errorf("core: prediction %d outside [0,%d)", pred, len(m.counts))
	}
	m.counts[pred]++
	m.total++
	return nil
}

// Total returns the number of observations so far.
func (m *Monitor) Total() int { return m.total }

// Reset clears all observations, starting a fresh monitoring window.
// Without it the counts accumulate over the device's whole lifetime and
// old usage dominates drift forever; a device calls Reset after each
// successful repersonalization so drift reflects usage since the
// current model was installed.
func (m *Monitor) Reset() {
	for i := range m.counts {
		m.counts[i] = 0
	}
	m.total = 0
}

// Counts returns a copy of the per-class observation counts.
func (m *Monitor) Counts() []int { return append([]int(nil), m.counts...) }

// Preferences derives the user's top-k classes and usage weights from the
// observations. Classes observed zero times are never included, so the
// result may have fewer than k classes.
func (m *Monitor) Preferences(k int) (Preferences, error) {
	return preferencesFromCounts(m.counts, m.total, k)
}

// preferencesFromCounts is the shared §II preference derivation: the
// top-k observed classes weighted by their empirical usage.
func preferencesFromCounts(counts []int, total, k int) (Preferences, error) {
	if total == 0 {
		return Preferences{}, fmt.Errorf("core: monitor has no observations")
	}
	if k < 1 {
		return Preferences{}, fmt.Errorf("core: k=%d", k)
	}
	vals := make([]float64, len(counts))
	for i, c := range counts {
		vals[i] = float64(c)
	}
	top := tensor.ArgTopK(vals, k)
	var classes []int
	var weights []float64
	for _, c := range top {
		if counts[c] == 0 {
			break // ArgTopK is descending; the rest are zero too
		}
		classes = append(classes, c)
		weights = append(weights, float64(counts[c]))
	}
	p, err := Weighted(classes, weights)
	if err != nil {
		return Preferences{}, err
	}
	p.Normalize()
	return p, nil
}

// SlidingMonitor is a Monitor over only the most recent window
// observations. Where the paper's monitoring period runs once before
// personalization, a serving tier needs a view that *forgets*: the
// runtime ε-guard asks "what has this user's class mix looked like
// lately", and a lifetime counter would let months of old usage mask a
// fresh drift. Implemented as a ring buffer so Observe is O(1).
type SlidingMonitor struct {
	ring   []int // last len(ring) predictions, -1 = empty slot
	counts []int
	next   int // ring index the next observation overwrites
	total  int // observations currently in the window (≤ len(ring))
}

// NewSlidingMonitor creates a sliding monitor over numClasses output
// classes keeping the most recent window observations.
func NewSlidingMonitor(numClasses, window int) (*SlidingMonitor, error) {
	if numClasses < 2 {
		return nil, fmt.Errorf("core: monitor needs ≥2 classes, got %d", numClasses)
	}
	if window < 1 {
		return nil, fmt.Errorf("core: window %d < 1", window)
	}
	m := &SlidingMonitor{ring: make([]int, window), counts: make([]int, numClasses)}
	for i := range m.ring {
		m.ring[i] = -1
	}
	return m, nil
}

// Observe records one top-1 prediction, evicting the oldest observation
// once the window is full.
func (m *SlidingMonitor) Observe(pred int) error {
	if pred < 0 || pred >= len(m.counts) {
		return fmt.Errorf("core: prediction %d outside [0,%d)", pred, len(m.counts))
	}
	if old := m.ring[m.next]; old >= 0 {
		m.counts[old]--
	} else {
		m.total++
	}
	m.ring[m.next] = pred
	m.counts[pred]++
	m.next = (m.next + 1) % len(m.ring)
	return nil
}

// Total returns the number of observations currently in the window.
func (m *SlidingMonitor) Total() int { return m.total }

// Counts returns a copy of the per-class counts over the window.
func (m *SlidingMonitor) Counts() []int { return append([]int(nil), m.counts...) }

// Reset empties the window.
func (m *SlidingMonitor) Reset() {
	for i := range m.ring {
		m.ring[i] = -1
	}
	for i := range m.counts {
		m.counts[i] = 0
	}
	m.next, m.total = 0, 0
}

// Preferences derives top-k preferences from the window, with the same
// semantics as Monitor.Preferences.
func (m *SlidingMonitor) Preferences(k int) (Preferences, error) {
	return preferencesFromCounts(m.counts, m.total, k)
}
