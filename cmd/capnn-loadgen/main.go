// Command capnn-loadgen drives synthetic multi-user inference load at a
// capnn-serve node or a capnn-gateway (they speak the same protocol)
// and reports exactly what a client population saw: requests sent, OK,
// failed. It retries nothing — the serving tier's availability story
// (gateway failover, serve self-healing) must hold up against plain
// non-retrying clients (one kept connection per worker), so any non-OK
// answer counts as a failure and flips the exit code. That makes it the
// assertion half of scripts/cluster_smoke.sh: kill a shard mid-load,
// and "0 failed" here is the zero-client-visible-failures criterion.
//
//	capnn-loadgen -addr 127.0.0.1:7878 -model cifar10 -users 8 -n 300
//
// QoS scenarios mix lanes and tenants: -bulk-frac sends that fraction
// of the traffic on the bulk lane (under -bulk-tenant, empty = default,
// with -bulk-budget), the rest stays interactive on the default tenant
// (-budget), and the report breaks out per-lane p50/p95/p99 plus shed
// counts by reason.
// Typed QoS sheds — over-quota and expired — are the protocol working
// as designed (bulk yielding, deadlines enforced), so they count as
// sheds, not failures; only transport errors and untyped non-OK answers
// flip the exit code:
//
//	capnn-loadgen -bulk-frac 0.8 -bulk-tenant batch -budget 250ms -n 2000
//
// A gateway's own view — ring version, failovers, per-tenant admission,
// per-node breaker states — is on its -metrics-addr listener: /metrics
// and /debug/stats.
//
// With -json the run summary is emitted as a single machine-readable
// JSON document on stdout (per-lane p50/p95/p99, QPS, sheds by reason)
// while progress and human-readable lines move to stderr — so a
// harness can `capnn-loadgen -json ... | jq .qps` without scraping
// log text.
//
// The traffic is a deterministic trace from internal/workload, every
// request asking for CAP'NN-M: zipf user popularity (workload.Config's
// default exponent, 1.2) over -users (which may be millions — events are
// generated on the fly, never materialized), preferences correlated
// with the fixture's confusion groups, and -drift class-skew drift
// (diurnal sway, bursts, sudden flips; see workload.ParseDrift for the
// spec grammar). Every run is seeded (-seed) and bit-reproducible: same
// flags, same trace, same scorecard — distinct users, hit ratio,
// personalize rate, in-preference share (the accuracy-vs-ε proxy:
// fraction of OK answers whose class landed inside the claimed
// preference set) and drift share, also in the -json summary:
//
//	capnn-loadgen -users 1000000 -seed 7 \
//	  -drift "flip=5000,lag=1000" -n 20000 -json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"capnn/internal/cloud"
	"capnn/internal/exp"
	"capnn/internal/qos"
	"capnn/internal/serve"
	"capnn/internal/workload"
)

// laneReport accumulates one lane's client-side view of the run.
type laneReport struct {
	mu        sync.Mutex
	sent, ok  uint64
	overQuota uint64 // CodeOverQuota sheds
	expired   uint64 // CodeExpired sheds
	failed    uint64 // transport errors and untyped non-OK answers
	lats      []time.Duration
}

func (r *laneReport) record(lat time.Duration, resp *serve.WireResponse, err error) (hardFail bool, msg string) {
	// The client wraps every non-OK server answer as a typed
	// *serve.Error; unwrap it so QoS sheds classify by code rather than
	// all landing in the transport-failure bucket.
	code := cloud.CodeOK
	if err != nil {
		code = cloud.CodeInternal
		msg = err.Error()
		var se *serve.Error
		if errors.As(err, &se) {
			code = se.Code
		}
	} else if resp != nil {
		code = resp.Code
		msg = fmt.Sprintf("[%s] %s", resp.Code, resp.Err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sent++
	switch code {
	case cloud.CodeOK:
		r.ok++
		r.lats = append(r.lats, lat)
		return false, ""
	case cloud.CodeOverQuota:
		r.overQuota++
		return false, ""
	case cloud.CodeExpired:
		r.expired++
		return false, ""
	default:
		r.failed++
		return true, msg
	}
}

// scoreboard accumulates the workload-model view of the run: which
// users appeared, how often the serving tier answered from a warm mask
// entry, and how the answers relate to what was asked for. in-pref
// counts OK answers whose predicted class landed inside the request's
// claimed preference set — under CAP'NN's contract in-preference
// traffic degrades at most ε, so this share is the client-side
// accuracy-vs-ε proxy. drifted counts requests whose generating event
// was inside a drift window (claimed preferences lagging the actual
// mix) at send time.
type scoreboard struct {
	mu      sync.Mutex
	users   map[uint64]struct{}
	ok      uint64
	hits    uint64
	inPref  uint64
	drifted uint64
}

func newScoreboard() *scoreboard { return &scoreboard{users: map[uint64]struct{}{}} }

func (s *scoreboard) record(user uint64, claimed []int, drifted bool, resp *serve.WireResponse, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.users[user] = struct{}{}
	if drifted {
		s.drifted++
	}
	if err != nil || resp == nil || resp.Code != cloud.CodeOK {
		return
	}
	s.ok++
	if resp.CacheHit {
		s.hits++
	}
	for _, c := range claimed {
		if resp.Class == c {
			s.inPref++
			break
		}
	}
}

// ratio is n/d guarding the empty-run case.
func ratio(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

func (s *scoreboard) summary(sent uint64) (distinct int, hitRatio, personalizeRate, inPrefShare, driftShare float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.users), ratio(s.hits, s.ok), ratio(s.ok-s.hits, s.ok),
		ratio(s.inPref, s.ok), ratio(s.drifted, sent)
}

// percentile reports the p-th percentile over sorted latencies
// (nearest-rank); zero with no samples.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// laneJSON is one lane's slice of the -json run summary.
type laneJSON struct {
	Lane          string  `json:"lane"`
	Sent          uint64  `json:"sent"`
	OK            uint64  `json:"ok"`
	ShedOverQuota uint64  `json:"shed_over_quota"`
	ShedExpired   uint64  `json:"shed_expired"`
	Failed        uint64  `json:"failed"`
	P50Ms         float64 `json:"p50_ms"`
	P95Ms         float64 `json:"p95_ms"`
	P99Ms         float64 `json:"p99_ms"`
}

// runJSON is the -json document: what the client population saw. The
// scorecard block (seed through drift_share) is fully determined by
// the flags plus the server's caching behavior — two runs of the same
// seeded trace against equivalent clusters must produce identical
// scorecards, which is what the smoke harness pins.
type runJSON struct {
	Target          string     `json:"target"`
	Seed            int64      `json:"seed"`
	Users           int        `json:"users"`
	DistinctUsers   int        `json:"distinct_users"`
	Requests        uint64     `json:"requests"`
	OK              uint64     `json:"ok"`
	Shed            uint64     `json:"shed"`
	Failed          uint64     `json:"failed"`
	HitRatio        float64    `json:"hit_ratio"`
	PersonalizeRate float64    `json:"personalize_rate"`
	InPrefShare     float64    `json:"in_pref_share"`
	DriftShare      float64    `json:"drift_share"`
	DurationMs      float64    `json:"duration_ms"`
	QPS             float64    `json:"qps"`
	Lanes           []laneJSON `json:"lanes"`
	FirstFailure    string     `json:"first_failure,omitempty"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (r *laneReport) jsonSummary(lane qos.Lane) laneJSON {
	r.mu.Lock()
	defer r.mu.Unlock()
	sort.Slice(r.lats, func(i, j int) bool { return r.lats[i] < r.lats[j] })
	return laneJSON{
		Lane:          lane.String(),
		Sent:          r.sent,
		OK:            r.ok,
		ShedOverQuota: r.overQuota,
		ShedExpired:   r.expired,
		Failed:        r.failed,
		P50Ms:         ms(percentile(r.lats, 0.50)),
		P95Ms:         ms(percentile(r.lats, 0.95)),
		P99Ms:         ms(percentile(r.lats, 0.99)),
	}
}

func (r *laneReport) summary(lane qos.Lane) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	sort.Slice(r.lats, func(i, j int) bool { return r.lats[i] < r.lats[j] })
	shed := r.overQuota + r.expired
	return fmt.Sprintf("capnn-loadgen: lane %s: sent=%d ok=%d shed=%d (over-quota=%d expired=%d) failed=%d p50=%v p95=%v p99=%v",
		lane, r.sent, r.ok, shed, r.overQuota, r.expired, r.failed,
		percentile(r.lats, 0.50).Round(time.Microsecond),
		percentile(r.lats, 0.95).Round(time.Microsecond),
		percentile(r.lats, 0.99).Round(time.Microsecond))
}

// checkFlags refuses the flag values no run can honour: with no users
// there is no request to send; with no requests or no workers the run
// would report "0 failed" without having sent anything; a request's
// deadline is now + timeout, so a timeout <= 0 fails every request at
// once; and a negative budget would go out as no budget.
func checkFlags(users, n, concurrency int, bulkFrac float64, timeout, budget, bulkBudget time.Duration) error {
	switch {
	case users < 1:
		return errors.New("-users must be at least 1")
	case n < 1:
		return errors.New("-n must be at least 1")
	case concurrency < 1:
		return errors.New("-concurrency must be at least 1")
	case !(bulkFrac >= 0 && bulkFrac <= 1): // negated, so NaN is refused
		return errors.New("-bulk-frac must be in [0,1]")
	case timeout <= 0:
		return errors.New("-timeout must be positive")
	case budget < 0 || bulkBudget < 0:
		return errors.New("-budget and -bulk-budget must not be negative")
	}
	return nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7878", "gateway or serve address")
	model := flag.String("model", "cifar10", "fixture the target serves: imagenet20 or cifar10")
	users := flag.Int("users", 8, "synthetic users the trace draws from")
	n := flag.Int("n", 300, "total requests")
	concurrency := flag.Int("concurrency", 8, "concurrent client workers")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request timeout")
	progressEvery := flag.Int("progress-every", 50, "print a progress line every N completed requests")
	jsonOut := flag.Bool("json", false, "emit the run summary as one JSON document on stdout (progress and human lines move to stderr)")
	budget := flag.Duration("budget", 0, "per-request deadline budget for interactive traffic (0 = none)")
	bulkFrac := flag.Float64("bulk-frac", 0, "fraction of requests sent on the bulk lane [0,1]")
	bulkTenant := flag.String("bulk-tenant", "", "tenant for bulk traffic (empty = default)")
	bulkBudget := flag.Duration("bulk-budget", 0, "per-request deadline budget for bulk traffic (0 = none)")
	seed := flag.Int64("seed", 1, "workload seed; same seed+flags replays the same trace bit-for-bit")
	drift := flag.String("drift", "", `drift spec, e.g. "flip=5000,lag=1000,diurnal=20000" ("" or "off" = stationary)`)
	flag.Parse()

	// With -json, stdout carries exactly one JSON document; everything
	// meant for humans (progress, lane summaries) moves to stderr.
	var human io.Writer = os.Stdout
	if *jsonOut {
		human = os.Stderr
	}

	if err := checkFlags(*users, *n, *concurrency, *bulkFrac, *timeout, *budget, *bulkBudget); err != nil {
		fmt.Fprintf(os.Stderr, "capnn-loadgen: %v\n", err)
		os.Exit(2)
	}

	cfg, err := exp.FixtureByName(*model)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fx, err := exp.Load(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	dc, err := workload.ParseDrift(*drift)
	if err != nil {
		fmt.Fprintf(os.Stderr, "capnn-loadgen: -drift: %v\n", err)
		os.Exit(2)
	}
	trace, err := workload.NewModel(workload.Config{
		Users:   *users,
		Classes: cfg.Synth.Classes,
		Groups:  cfg.Synth.ClassGroups(),
		Drift:   dc,
		Seed:    *seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "capnn-loadgen: %v\n", err)
		os.Exit(2)
	}
	// buildReq produces request idx of the trace plus its scoreboard
	// metadata (generating user, claimed preference classes, whether the
	// event sat in a drift window). It is a pure function of (flags,
	// idx), so any worker may build any index — the trace is identical
	// regardless of worker count or completion order. Event i of class c
	// replays test image pool[c][i mod len], so inputs are as
	// reproducible as the preference stream.
	pools := fx.Sets.Test.ByClass()
	buildReq := func(idx int) (serve.WireRequest, uint64, []int, bool) {
		ev := trace.At(uint64(idx))
		pool := pools[ev.Class]
		x, _ := fx.Sets.Test.Batch([]int{pool[int(ev.Index%uint64(len(pool)))]})
		return serve.WireRequest{
			Version: cloud.ProtocolVersion,
			Variant: "M",
			Classes: ev.Prefs.Classes,
			Weights: ev.Prefs.Weights,
			Input:   x.Data(),
		}, ev.User, ev.Prefs.Classes, ev.Drifted
	}

	// Deterministic lane interleave: request index i is bulk when its
	// position crosses the next multiple of bulkFrac — no RNG, so two
	// runs of the same flags send the same mix.
	isBulk := func(i int) bool {
		if *bulkFrac <= 0 {
			return false
		}
		return int(float64(i)**bulkFrac) != int(float64(i+1)**bulkFrac)
	}

	reports := [2]*laneReport{{}, {}} // indexed by qos.Lane
	board := newScoreboard()
	runStart := time.Now()
	var sentTotal uint64
	var totalMu sync.Mutex
	firstFail := ""
	var wg sync.WaitGroup
	next := 0
	for w := 0; w < *concurrency; w++ {
		share := *n / *concurrency
		if w < *n%*concurrency {
			share++
		}
		if share == 0 {
			continue
		}
		base := next
		next += share
		wg.Add(1)
		go func(w, base, share int) {
			defer wg.Done()
			c := serve.NewClient(*addr)
			defer c.Close()
			c.RequestTimeout = *timeout
			for i := 0; i < share; i++ {
				idx := base + i
				req, user, claimed, drifted := buildReq(idx)
				lane := qos.LaneInteractive
				if *budget > 0 {
					req.BudgetMicros = budget.Microseconds()
				}
				if isBulk(idx) {
					lane = qos.LaneBulk
					req.Lane = int(qos.LaneBulk)
					req.Tenant = *bulkTenant
					req.BudgetMicros = 0
					if *bulkBudget > 0 {
						req.BudgetMicros = bulkBudget.Microseconds()
					}
				}
				start := time.Now()
				resp, err := c.Infer(req)
				board.record(user, claimed, drifted, resp, err)
				hardFail, msg := reports[lane].record(time.Since(start), resp, err)
				totalMu.Lock()
				sentTotal++
				s := sentTotal
				if hardFail && firstFail == "" {
					firstFail = msg
				}
				totalMu.Unlock()
				if *progressEvery > 0 && s%uint64(*progressEvery) == 0 {
					fmt.Fprintf(human, "capnn-loadgen: progress %d/%d\n", s, *n)
				}
			}
		}(w, base, share)
	}
	wg.Wait()
	elapsed := time.Since(runStart)

	okTotal := reports[0].ok + reports[1].ok
	failedTotal := reports[0].failed + reports[1].failed
	shedTotal := reports[0].overQuota + reports[0].expired + reports[1].overQuota + reports[1].expired
	for lane, r := range reports {
		if r.sent > 0 {
			fmt.Fprintln(human, r.summary(qos.Lane(lane)))
		}
	}
	fmt.Fprintf(human, "capnn-loadgen: %d requests, %d ok, %d failed\n", sentTotal, okTotal, failedTotal)
	distinct, hitRatio, personalizeRate, inPrefShare, driftShare := board.summary(sentTotal)
	fmt.Fprintf(human, "capnn-loadgen: scorecard: seed=%d distinct-users=%d hit-ratio=%.3f personalize-rate=%.3f in-pref-share=%.3f drift-share=%.3f\n",
		*seed, distinct, hitRatio, personalizeRate, inPrefShare, driftShare)
	if *jsonOut {
		doc := runJSON{
			Target:          *addr,
			Seed:            *seed,
			Users:           *users,
			DistinctUsers:   distinct,
			Requests:        sentTotal,
			OK:              okTotal,
			Shed:            shedTotal,
			Failed:          failedTotal,
			HitRatio:        hitRatio,
			PersonalizeRate: personalizeRate,
			InPrefShare:     inPrefShare,
			DriftShare:      driftShare,
			DurationMs:      ms(elapsed),
			QPS:             float64(sentTotal) / elapsed.Seconds(),
			FirstFailure:    firstFail,
		}
		for lane, r := range reports {
			if r.sent > 0 {
				doc.Lanes = append(doc.Lanes, r.jsonSummary(qos.Lane(lane)))
			}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(doc)
	}
	if failedTotal > 0 {
		fmt.Fprintf(os.Stderr, "capnn-loadgen: first failure: %s\n", firstFail)
		os.Exit(1)
	}
}
