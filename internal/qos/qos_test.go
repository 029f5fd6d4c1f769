package qos

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic test clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1700000000, 0)} }

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

func TestLaneFromWire(t *testing.T) {
	for _, tc := range []struct {
		in   int
		want Lane
		ok   bool
	}{{0, LaneInteractive, true}, {1, LaneBulk, true}, {2, LaneInteractive, false}, {-1, LaneInteractive, false}} {
		got, ok := LaneFromWire(tc.in)
		if got != tc.want || ok != tc.ok {
			t.Errorf("LaneFromWire(%d) = (%v, %v), want (%v, %v)", tc.in, got, ok, tc.want, tc.ok)
		}
	}
	if LaneInteractive.String() != "interactive" || LaneBulk.String() != "bulk" {
		t.Errorf("lane names: %q / %q", LaneInteractive, LaneBulk)
	}
}

func TestParseLimit(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Limit
		err  bool
	}{
		{"", Limit{}, false},
		{"unlimited", Limit{}, false},
		{"50", Limit{Rate: 50}, false},
		{"50:100", Limit{Rate: 50, Burst: 100}, false},
		{"abc", Limit{}, true},
		{"5:xyz", Limit{}, true},
		{"NaN", Limit{}, true},
		{"Inf", Limit{}, true},
		{"-Inf", Limit{}, true},
		{"1:NaN", Limit{}, true},
	} {
		got, err := ParseLimit(tc.in)
		if (err != nil) != tc.err {
			t.Errorf("ParseLimit(%q) error = %v, want err=%v", tc.in, err, tc.err)
			continue
		}
		if !tc.err && got != tc.want {
			t.Errorf("ParseLimit(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

// A bucket admits its burst immediately, sheds when dry, and refills at
// its rate — judged entirely on a fake clock.
func TestBucketBurstAndRefill(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter(LimiterConfig{Default: LaneLimits{Bulk: Limit{Rate: 10, Burst: 3}}})
	l.SetClock(clk.now)

	for i := 0; i < 3; i++ {
		if !l.Allow("batch", LaneBulk) {
			t.Fatalf("request %d within burst shed", i)
		}
	}
	if l.Allow("batch", LaneBulk) {
		t.Fatal("request past burst admitted")
	}
	// 10 tokens/s: 100ms buys exactly one more.
	clk.advance(100 * time.Millisecond)
	if !l.Allow("batch", LaneBulk) {
		t.Fatal("refilled token not granted")
	}
	if l.Allow("batch", LaneBulk) {
		t.Fatal("second token granted after one refill interval")
	}
	// A long idle stretch caps at burst, not rate*dt.
	clk.advance(time.Hour)
	granted := 0
	for l.Allow("batch", LaneBulk) {
		granted++
		if granted > 10 {
			break
		}
	}
	if granted != 3 {
		t.Fatalf("after idle, %d tokens granted, want burst=3", granted)
	}
}

// Tenants are isolated: one tenant draining its bucket must not shed
// another, and the interactive lane is untouched by bulk quota.
func TestTenantAndLaneIsolation(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter(LimiterConfig{
		Default: LaneLimits{Bulk: Limit{Rate: 1, Burst: 1}},
		Tenants: map[string]LaneLimits{"vip": {Bulk: Limit{Rate: 100, Burst: 5}}},
	})
	l.SetClock(clk.now)

	if !l.Allow("a", LaneBulk) {
		t.Fatal("tenant a first request shed")
	}
	if l.Allow("a", LaneBulk) {
		t.Fatal("tenant a over burst admitted")
	}
	if !l.Allow("b", LaneBulk) {
		t.Fatal("tenant b shed by tenant a's empty bucket")
	}
	for i := 0; i < 5; i++ {
		if !l.Allow("vip", LaneBulk) {
			t.Fatalf("vip override request %d shed", i)
		}
	}
	// No interactive quota configured: always admitted.
	for i := 0; i < 100; i++ {
		if !l.Allow("a", LaneInteractive) {
			t.Fatal("unlimited interactive lane shed")
		}
	}
}

// Past the bucket cap, invented tenant names share the overflow bucket
// instead of growing the map without bound.
func TestBucketMapBounded(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter(LimiterConfig{Default: LaneLimits{Bulk: Limit{Rate: 1, Burst: 1}}})
	l.SetClock(clk.now)
	for i := 0; i < maxBuckets+100; i++ {
		l.Allow(fmt.Sprintf("t%d", i), LaneBulk)
	}
	l.mu.Lock()
	n := len(l.buckets)
	l.mu.Unlock()
	if n > maxBuckets {
		t.Fatalf("bucket map grew to %d entries, cap is %d", n, maxBuckets)
	}
}

func TestLimiterConcurrentAccess(t *testing.T) {
	l := NewLimiter(LimiterConfig{Default: LaneLimits{
		Interactive: Limit{Rate: 1000, Burst: 100},
		Bulk:        Limit{Rate: 10, Burst: 10},
	}})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Allow(fmt.Sprintf("t%d", i%5), Lane(i%2))
			}
		}(w)
	}
	wg.Wait()
}
