package anomaly

import (
	"math"
	"strings"
	"testing"
	"time"
)

func healthy() Sample {
	return Sample{QPS: 100, Latency: 4 * time.Millisecond, HitRatio: 0.9, GuardTrips: 0}
}

// feedBaseline establishes a full healthy history for a shard.
func feedBaseline(d *Detector, shard string, n int) {
	for i := 0; i < n; i++ {
		v := d.Observe(shard, healthy())
		if v.Flagged {
			panic("healthy baseline flagged")
		}
	}
}

func TestNoVerdictBeforeMinBaseline(t *testing.T) {
	d := New(Config{})
	bad := Sample{QPS: 100, Latency: 500 * time.Millisecond, HitRatio: 0.1, GuardTrips: 10}
	for i := 0; i < DefaultConfig().MinBaseline+DefaultConfig().Recent-1; i++ {
		if v := d.Observe("s", bad); v.Flagged {
			t.Fatalf("flagged at sample %d, before MinBaseline history", i)
		}
	}
}

func TestLatencyDegradationFlags(t *testing.T) {
	d := New(Config{})
	feedBaseline(d, "s", 15)
	var v Verdict
	transitions := 0
	for i := 0; i < DefaultConfig().Recent; i++ {
		s := healthy()
		s.Latency = 20 * time.Millisecond // 5x baseline
		v = d.Observe("s", s)
		if v.Transition == TransitionFlagged {
			transitions++
		}
	}
	if !v.Flagged {
		t.Fatalf("latency blow-up not flagged: %s", v)
	}
	if transitions != 1 {
		t.Fatalf("flagged transition fired %d times, want exactly 1", transitions)
	}
	joined := strings.Join(v.Reasons, "; ")
	if !strings.Contains(joined, "forward latency") {
		t.Fatalf("reasons missing latency signal: %q", joined)
	}
}

func TestHitRatioCollapseFlags(t *testing.T) {
	d := New(Config{})
	feedBaseline(d, "s", 15)
	var v Verdict
	flagged := false
	for i := 0; i < DefaultConfig().Recent; i++ {
		s := healthy()
		s.HitRatio = 0.2 // drop 0.7 vs 0.9 baseline
		v = d.Observe("s", s)
		if v.Transition == TransitionFlagged {
			flagged = true
		}
	}
	if !v.Flagged || !flagged {
		t.Fatalf("hit-ratio collapse not flagged: %s", v)
	}
	if !strings.Contains(strings.Join(v.Reasons, ";"), "hit ratio") {
		t.Fatalf("reasons = %v", v.Reasons)
	}
}

func TestQPSCollapseAndGuardChurn(t *testing.T) {
	d := New(Config{})
	feedBaseline(d, "s", 15)
	var v Verdict
	for i := 0; i < DefaultConfig().Recent; i++ {
		s := healthy()
		s.QPS = 5        // 0.05x baseline
		s.GuardTrips = 2 // churn from 0 baseline
		v = d.Observe("s", s)
	}
	if !v.Flagged {
		t.Fatalf("not flagged: %s", v)
	}
	joined := strings.Join(v.Reasons, "; ")
	if !strings.Contains(joined, "qps collapsed") || !strings.Contains(joined, "guard trips") {
		t.Fatalf("reasons = %q", joined)
	}
}

func TestNaNHitRatioSkipped(t *testing.T) {
	d := New(Config{})
	feedBaseline(d, "s", 15)
	var v Verdict
	for i := 0; i < DefaultConfig().Recent; i++ {
		s := healthy()
		s.HitRatio = math.NaN() // idle cache interval — must not read as collapse
		v = d.Observe("s", s)
	}
	if v.Flagged {
		t.Fatalf("idle-cache interval flagged: %s", v)
	}
}

func TestHysteresisClear(t *testing.T) {
	d := New(Config{})
	feedBaseline(d, "s", 15)
	for i := 0; i < DefaultConfig().Recent; i++ {
		s := healthy()
		s.Latency = 20 * time.Millisecond
		if v := d.Observe("s", s); v.Flagged && v.Transition == TransitionFlagged {
			break
		}
	}
	if !d.Status()["s"].Flagged {
		t.Fatal("setup: shard should be flagged")
	}
	// Recovery: healthy samples push the degraded window out; the shard
	// must clear (TransitionCleared exactly once) and stay clear.
	cleared := 0
	for i := 0; i < 30; i++ {
		v := d.Observe("s", healthy())
		if v.Transition == TransitionCleared {
			cleared++
		}
	}
	if cleared != 1 {
		t.Fatalf("cleared %d times, want exactly 1", cleared)
	}
	if d.Status()["s"].Flagged {
		t.Fatal("shard still flagged after full recovery")
	}
}

func TestPerShardIsolationAndForget(t *testing.T) {
	d := New(Config{})
	feedBaseline(d, "a", 15)
	feedBaseline(d, "b", 15)
	for i := 0; i < DefaultConfig().Recent; i++ {
		s := healthy()
		s.Latency = 50 * time.Millisecond
		d.Observe("a", s)
		d.Observe("b", healthy())
	}
	st := d.Status()
	if !st["a"].Flagged || st["b"].Flagged {
		t.Fatalf("status = %+v", st)
	}
	d.Forget("a")
	if _, ok := d.Status()["a"]; ok {
		t.Fatal("forgotten shard still present")
	}
	// A re-added shard starts from scratch: no verdict until history rebuilds.
	bad := Sample{QPS: 1, Latency: time.Second, HitRatio: 0, GuardTrips: 5}
	if v := d.Observe("a", bad); v.Flagged {
		t.Fatalf("fresh shard flagged with no baseline: %s", v)
	}
}

func TestVerdictString(t *testing.T) {
	v := Verdict{Flagged: true, Score: 2.5, Reasons: []string{"qps collapsed to 1.0 from 100.0 baseline"}}
	s := v.String()
	if !strings.Contains(s, "ANOMALOUS") || !strings.Contains(s, "score=2.50") || !strings.Contains(s, "qps collapsed") {
		t.Fatalf("String() = %q", s)
	}
	ok := Verdict{Score: 0}
	if got := ok.String(); got != "ok score=0.00" {
		t.Fatalf("String() = %q", got)
	}
}
