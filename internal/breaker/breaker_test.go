package breaker

import (
	"slices"
	"sync"
	"testing"
	"time"
)

// fakeClock drives the cooldown deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// edge is one observed transition.
type edge struct{ from, to State }

// newTest returns a breaker on a fake clock whose hook appends every
// transition it sees to *edges.
func newTest(threshold int, cooldown time.Duration) (*Breaker, *fakeClock, *[]edge) {
	b := New(threshold, cooldown)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b.Now = clk.now
	var mu sync.Mutex
	edges := &[]edge{}
	b.OnTransition = func(from, to State) {
		mu.Lock()
		*edges = append(*edges, edge{from, to})
		mu.Unlock()
	}
	return b, clk, edges
}

// A step is one move in a scripted scenario.
type step func(t *testing.T, b *Breaker, clk *fakeClock)

// attempt is an admitted try with its outcome recorded.
func attempt(ok bool) step {
	return func(t *testing.T, b *Breaker, _ *fakeClock) {
		claim(t, b, nil)
		b.Record(ok)
	}
}

// claim is an admitted try whose outcome is still pending.
func claim(t *testing.T, b *Breaker, _ *fakeClock) {
	t.Helper()
	if !b.Allow() {
		t.Fatalf("attempt rejected in state %s", b.Snapshot().State)
	}
}

func rejected(t *testing.T, b *Breaker, _ *fakeClock) {
	t.Helper()
	if b.Allow() {
		t.Fatalf("attempt admitted, breaker now %s", b.Snapshot().State)
	}
}

func advance(d time.Duration) step {
	return func(_ *testing.T, _ *Breaker, clk *fakeClock) { clk.advance(d) }
}

// straggler is an outcome with no Allow before it: an attempt admitted
// before the trip, reporting after it.
func straggler(ok bool) step {
	return func(_ *testing.T, b *Breaker, _ *fakeClock) { b.Record(ok) }
}

func TestTransitions(t *testing.T) {
	const cooldown = time.Second
	fail, ok := attempt(false), attempt(true)
	// tripped opens a threshold-3 breaker, then runs rest.
	tripped := func(rest ...step) []step { return append([]step{fail, fail, fail}, rest...) }
	cases := []struct {
		name  string
		steps []step
		want  Snapshot
		edges []edge
	}{
		{
			name:  "one-short-of-threshold-stays-closed",
			steps: []step{fail, fail},
			want:  Snapshot{State: Closed},
		},
		{
			name:  "opens-at-exactly-threshold",
			steps: tripped(rejected),
			want:  Snapshot{State: Open, Opens: 1},
			edges: []edge{{Closed, Open}},
		},
		{
			// Failures are judged as a burst, not a rate: four failures in
			// six attempts never line up three in a row.
			name:  "success-in-between-resets-the-streak",
			steps: []step{fail, fail, ok, fail, fail, ok},
			want:  Snapshot{State: Closed},
		},
		{
			name:  "stays-open-until-cooldown",
			steps: tripped(advance(cooldown-time.Millisecond), rejected, advance(time.Millisecond), claim, rejected),
			want:  Snapshot{State: HalfOpen, Opens: 1, HalfOpens: 1},
			edges: []edge{{Closed, Open}, {Open, HalfOpen}},
		},
		{
			// After the close the old streak is gone: two fresh failures
			// must not re-trip a threshold of three.
			name:  "probe-success-closes-and-clears-the-streak",
			steps: tripped(advance(cooldown), ok, fail, fail),
			want:  Snapshot{State: Closed, Opens: 1, Closes: 1, HalfOpens: 1},
			edges: []edge{{Closed, Open}, {Open, HalfOpen}, {HalfOpen, Closed}},
		},
		{
			name: "probe-failure-reopens-for-a-fresh-cooldown",
			steps: tripped(advance(cooldown), fail,
				advance(cooldown-time.Millisecond), rejected, advance(time.Millisecond), ok),
			want:  Snapshot{State: Closed, Opens: 2, Closes: 1, HalfOpens: 2},
			edges: []edge{{Closed, Open}, {Open, HalfOpen}, {HalfOpen, Open}, {Open, HalfOpen}, {HalfOpen, Closed}},
		},
		{
			name:  "straggler-record-while-open-is-ignored",
			steps: tripped(straggler(true), straggler(false), rejected),
			want:  Snapshot{State: Open, Opens: 1},
			edges: []edge{{Closed, Open}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, clk, edges := newTest(3, cooldown)
			for _, s := range tc.steps {
				s(t, b, clk)
			}
			if got := b.Snapshot(); got != tc.want {
				t.Errorf("snapshot = %+v, want %+v", got, tc.want)
			}
			if !slices.Equal(*edges, tc.edges) {
				t.Errorf("OnTransition saw %v, want every edge once: %v", *edges, tc.edges)
			}
		})
	}
}

// Of 8 callers racing for an expired open breaker exactly one claims the
// half-open probe, whichever way its outcome then goes.
func TestHalfOpenSlotHasOneWinner(t *testing.T) {
	for _, probeOK := range []bool{true, false} {
		b, clk, edges := newTest(1, time.Second)
		b.Allow()
		b.Record(false)
		for round := 0; round < 50; round++ {
			clk.advance(time.Second)
			var wg sync.WaitGroup
			var mu sync.Mutex
			winners := 0
			start := make(chan struct{})
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					if b.Allow() {
						mu.Lock()
						winners++
						mu.Unlock()
					}
				}()
			}
			close(start)
			wg.Wait()
			if winners != 1 {
				t.Fatalf("probeOK=%v round %d: %d callers won the half-open slot, want 1", probeOK, round, winners)
			}
			b.Record(probeOK)
			if probeOK { // closed again: trip it for the next round
				b.Allow()
				b.Record(false)
			}
		}
		snap := b.Snapshot()
		if snap.HalfOpens != 50 || uint64(len(*edges)) != snap.Opens+snap.Closes+snap.HalfOpens {
			t.Fatalf("probeOK=%v: %+v with %d hook calls, want 50 half-opens and one call per transition", probeOK, snap, len(*edges))
		}
	}
}

// The hook runs after the lock is released: one that calls back into the
// breaker sees the state it was told about and does not deadlock.
func TestOnTransitionCalledOutsideLock(t *testing.T) {
	b, clk, _ := newTest(1, time.Second)
	var calls int
	b.OnTransition = func(from, to State) {
		calls++
		if got := b.Snapshot().State; got != to {
			t.Errorf("hook told %s -> %s but Snapshot reads %s", from, to, got)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		b.Allow()
		b.Record(false) // closed -> open
		clk.advance(time.Second)
		b.Allow()      // open -> half-open
		b.Record(true) // half-open -> closed
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a hook that calls Snapshot deadlocked: OnTransition ran with the breaker's lock held")
	}
	if calls != 3 {
		t.Fatalf("hook ran %d times, want 3", calls)
	}
}
