// Package qos holds the serving tier's quality-of-service primitives:
// priority lanes and per-tenant token-bucket admission control. Both the
// gateway (cluster-wide admission) and the serve shards (lane-aware
// batch scheduling, bulk yielding) share these types, so one tenant's
// classification means the same thing at every hop of the request path.
//
// The model is deliberately small — SECS-style stream serving needs
// exactly two service classes: interactive traffic that carries a real
// per-request deadline, and bulk traffic (batch tenants, heal-loop
// repersonalization, B-matrix recomputation) that should absorb all the
// queueing slack when the cluster is under pressure. Quotas are classic
// token buckets: a tenant accrues Rate tokens per second up to Burst,
// each admitted request spends one, and an empty bucket sheds with a
// typed over-quota code the client retries after a backoff.
package qos

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Lane is a request's priority class. The zero value is interactive: a
// request that names no lane gets the latency-sensitive treatment.
type Lane uint8

const (
	// LaneInteractive is deadline-sensitive foreground traffic: served
	// first, admitted up to the full queue bound.
	LaneInteractive Lane = 0
	// LaneBulk is background traffic — batch tenants, repersonalization
	// sweeps — that yields under pressure: workers drain it only when no
	// interactive work is ready, and shards shed it early when the queue
	// grows past the bulk threshold.
	LaneBulk Lane = 1
)

// String names the lane for stats, logs and flags.
func (l Lane) String() string {
	switch l {
	case LaneInteractive:
		return "interactive"
	case LaneBulk:
		return "bulk"
	default:
		return fmt.Sprintf("lane(%d)", uint8(l))
	}
}

// LaneFromWire validates a wire-level lane value. Only the two defined
// lanes are accepted: an unknown lane is a malformed request, not a
// guess at the client's intent.
func LaneFromWire(v int) (Lane, bool) {
	switch v {
	case int(LaneInteractive):
		return LaneInteractive, true
	case int(LaneBulk):
		return LaneBulk, true
	default:
		return LaneInteractive, false
	}
}

// Budget converts a wire deadline budget in microseconds to a duration,
// when it binds: ok is false for a budget at or past limit — the hop's
// own RequestTimeout, which then stays the only bound — so the comparison
// happens in microseconds and no budget, however large ("no hurry"),
// reaches the multiplication that would overflow a Duration. Zero is no
// budget; a negative one was spent upstream, which is the caller's case.
func Budget(micros int64, limit time.Duration) (d time.Duration, ok bool) {
	if micros <= 0 || micros >= limit.Microseconds() {
		return 0, false
	}
	return time.Duration(micros) * time.Microsecond, true
}

// DefaultTenant is the tenant requests without a Tenant field are
// accounted under.
const DefaultTenant = "default"

// Limit is one token bucket's shape: Rate tokens per second, holding at
// most Burst. Rate <= 0 means unlimited (the bucket never sheds); Burst
// <= 0 defaults to max(Rate, 1) so a configured rate always admits at
// least one request.
type Limit struct {
	Rate, Burst float64
}

// Unlimited reports whether this limit never sheds.
func (l Limit) Unlimited() bool { return l.Rate <= 0 }

func (l Limit) burst() float64 {
	if l.Burst > 0 {
		return l.Burst
	}
	if l.Rate > 1 {
		return l.Rate
	}
	return 1
}

// String renders the limit as "rate:burst" (the flag syntax).
func (l Limit) String() string {
	if l.Unlimited() {
		return "unlimited"
	}
	return fmt.Sprintf("%g:%g", l.Rate, l.burst())
}

// ParseLimit parses "rate" or "rate:burst" flag syntax.
func ParseLimit(s string) (Limit, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "unlimited" {
		return Limit{}, nil
	}
	rateStr, burstStr, hasBurst := strings.Cut(s, ":")
	rate, err := strconv.ParseFloat(rateStr, 64)
	if err != nil {
		return Limit{}, fmt.Errorf("qos: bad rate %q: %v", rateStr, err)
	}
	lim := Limit{Rate: rate}
	if hasBurst {
		b, err := strconv.ParseFloat(burstStr, 64)
		if err != nil {
			return Limit{}, fmt.Errorf("qos: bad burst %q: %v", burstStr, err)
		}
		lim.Burst = b
	}
	return lim, nil
}

// LaneLimits is one tenant's quota pair.
type LaneLimits struct {
	Interactive, Bulk Limit
}

// limit selects the lane's quota.
func (t LaneLimits) limit(l Lane) Limit {
	if l == LaneBulk {
		return t.Bulk
	}
	return t.Interactive
}

// LimiterConfig shapes a Limiter: default quotas for tenants without an
// explicit entry, plus per-tenant overrides.
type LimiterConfig struct {
	Default LaneLimits
	Tenants map[string]LaneLimits
}

// maxBuckets bounds the limiter's per-tenant bucket map so an adversary
// inventing tenant names cannot grow gateway memory without bound; past
// the cap, unknown tenants share one overflow bucket per lane (they
// contend for quota instead of minting fresh burst allowances, which is
// the conservative failure mode).
const maxBuckets = 8192

// Limiter is a concurrency-safe multi-tenant token-bucket set.
type Limiter struct {
	cfg LimiterConfig
	now func() time.Time // injectable for tests

	mu       sync.Mutex
	buckets  map[string]*bucket
	overflow [2]*bucket // shared buckets past maxBuckets, per lane
}

// NewLimiter builds a limiter over the given quotas.
func NewLimiter(cfg LimiterConfig) *Limiter {
	return &Limiter{cfg: cfg, now: time.Now, buckets: map[string]*bucket{}}
}

// SetClock installs a test clock.
func (l *Limiter) SetClock(now func() time.Time) { l.now = now }

// limitFor resolves the configured quota for (tenant, lane).
func (l *Limiter) limitFor(tenant string, lane Lane) Limit {
	if t, ok := l.cfg.Tenants[tenant]; ok {
		return t.limit(lane)
	}
	return l.cfg.Default.limit(lane)
}

// Allow spends one token from the tenant's lane bucket, reporting
// whether the request is admitted. Unlimited quotas never touch the
// bucket map, so the common unconfigured path stays lock-free.
func (l *Limiter) Allow(tenant string, lane Lane) bool {
	lim := l.limitFor(tenant, lane)
	if lim.Unlimited() {
		return true
	}
	if tenant == "" {
		tenant = DefaultTenant
	}
	key := tenant + "\x00" + lane.String()
	now := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.buckets[key]
	if !ok {
		if len(l.buckets) >= maxBuckets {
			if _, explicit := l.cfg.Tenants[tenant]; !explicit {
				if l.overflow[lane&1] == nil {
					l.overflow[lane&1] = newBucket(lim, now)
				}
				return l.overflow[lane&1].take(lim, now)
			}
			// Explicitly configured tenants always get their own bucket:
			// the cap defends against invented names, not real config.
		}
		b = newBucket(lim, now)
		l.buckets[key] = b
	}
	return b.take(lim, now)
}

// bucket is one token bucket. Callers hold the limiter lock.
type bucket struct {
	tokens float64
	last   time.Time
}

func newBucket(lim Limit, now time.Time) *bucket {
	return &bucket{tokens: lim.burst(), last: now}
}

// take refills by elapsed time, then spends one token if available.
func (b *bucket) take(lim Limit, now time.Time) bool {
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * lim.Rate
		if max := lim.burst(); b.tokens > max {
			b.tokens = max
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}
