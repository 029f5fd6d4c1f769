package core

import (
	"math/rand"
	"testing"
)

func TestSlidingMonitorRejectsBadConfig(t *testing.T) {
	if _, err := NewSlidingMonitor(1, 8); err == nil {
		t.Fatal("accepted 1 class")
	}
	if _, err := NewSlidingMonitor(4, 0); err == nil {
		t.Fatal("accepted zero window")
	}
}

func TestSlidingMonitorEvictsOldest(t *testing.T) {
	m, err := NewSlidingMonitor(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{0, 0, 1} {
		if err := m.Observe(p); err != nil {
			t.Fatal(err)
		}
	}
	if !m.Full() || m.Total() != 3 {
		t.Fatalf("full=%v total=%d, want full/3", m.Full(), m.Total())
	}
	// The fourth observation evicts the first 0: window is now {0,1,2}.
	if err := m.Observe(2); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 1, 1, 0}
	got := m.Counts()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("counts=%v, want %v", got, want)
		}
	}
	if s := m.Share(0); s != 1.0/3 {
		t.Fatalf("Share(0)=%v, want 1/3", s)
	}
	if err := m.Observe(4); err == nil {
		t.Fatal("accepted out-of-range prediction")
	}
	if m.Total() != 3 {
		t.Fatalf("rejected observation changed total to %d", m.Total())
	}
}

// TestSlidingMonitorMatchesNaiveRecount cross-checks the ring-buffer
// bookkeeping against a recount over the last-window slice of the raw
// observation stream.
func TestSlidingMonitorMatchesNaiveRecount(t *testing.T) {
	const classes, window, steps = 5, 7, 500
	m, err := NewSlidingMonitor(classes, window)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	var stream []int
	for i := 0; i < steps; i++ {
		p := rng.Intn(classes)
		stream = append(stream, p)
		if err := m.Observe(p); err != nil {
			t.Fatal(err)
		}
		lo := len(stream) - window
		if lo < 0 {
			lo = 0
		}
		want := make([]int, classes)
		for _, q := range stream[lo:] {
			want[q]++
		}
		got := m.Counts()
		for c := range want {
			if got[c] != want[c] {
				t.Fatalf("step %d: counts=%v, want %v", i, got, want)
			}
		}
		if m.Total() != len(stream)-lo {
			t.Fatalf("step %d: total=%d, want %d", i, m.Total(), len(stream)-lo)
		}
	}
}

// TestSlidingMonitorForgets is the property the ε-guard depends on:
// once the window turns over, usage from before the turn has no weight.
func TestSlidingMonitorForgets(t *testing.T) {
	m, err := NewSlidingMonitor(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		_ = m.Observe(0) // months of old usage
	}
	for i := 0; i < 8; i++ {
		_ = m.Observe(3) // fresh drift fills the window
	}
	if s := m.Share(0); s != 0 {
		t.Fatalf("Share(0)=%v after window turnover, want 0", s)
	}
	if s := m.Share(3); s != 1 {
		t.Fatalf("Share(3)=%v, want 1", s)
	}
	p, err := m.Preferences(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Classes) != 1 || p.Classes[0] != 3 {
		t.Fatalf("preferences=%+v, want exactly class 3", p)
	}
}

func TestSlidingMonitorPreferencesMatchMonitor(t *testing.T) {
	// Under one window of observations no eviction happens, so the
	// sliding monitor must agree exactly with the lifetime Monitor.
	sm, err := NewSlidingMonitor(6, 64)
	if err != nil {
		t.Fatal(err)
	}
	lm, err := NewMonitor(6)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		p := rng.Intn(6)
		if err := sm.Observe(p); err != nil {
			t.Fatal(err)
		}
		if err := lm.Observe(p); err != nil {
			t.Fatal(err)
		}
	}
	sp, err := sm.Preferences(3)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := lm.Preferences(3)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Key() != lp.Key() {
		t.Fatalf("sliding=%s lifetime=%s, want identical keys", sp.Key(), lp.Key())
	}
}

func TestSlidingMonitorReset(t *testing.T) {
	m, err := NewSlidingMonitor(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		_ = m.Observe(i % 3)
	}
	m.Reset()
	if m.Total() != 0 || m.Full() {
		t.Fatalf("total=%d full=%v after reset", m.Total(), m.Full())
	}
	if _, err := m.Preferences(2); err == nil {
		t.Fatal("empty monitor produced preferences")
	}
	// The ring restarts cleanly: refilling behaves like a fresh monitor.
	for i := 0; i < 4; i++ {
		_ = m.Observe(1)
	}
	if m.Share(1) != 1 {
		t.Fatalf("Share(1)=%v after refill, want 1", m.Share(1))
	}
}

// The accessors below only the tests read.

// Full reports whether the window is full.
func (m *SlidingMonitor) Full() bool { return m.total == len(m.ring) }

// Share returns class c's fraction of the window (0 when empty).
func (m *SlidingMonitor) Share(c int) float64 {
	if m.total == 0 || c < 0 || c >= len(m.counts) {
		return 0
	}
	return float64(m.counts[c]) / float64(m.total)
}
