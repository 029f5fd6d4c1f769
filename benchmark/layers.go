package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"capnn/internal/cluster"
	"capnn/internal/core"
	"capnn/internal/nn"
	"capnn/internal/serve"
	"capnn/internal/tensor"
)

// snapshot is the public state of every layer that keeps counters,
// taken before and after a timed window and diffed.
type snapshot struct {
	shards  []serve.Stats
	gateway cluster.Stats
	// mem covers servers and clients alike: they share the process.
	mem runtime.MemStats
}

func (e *env) snapshot() snapshot {
	var s snapshot
	for _, srv := range e.shards {
		s.shards = append(s.shards, srv.Stats())
	}
	if e.gw != nil {
		s.gateway = e.gw.Stats()
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

// serveSum adds the shards' cumulative counters up under short names.
func serveSum(shards []serve.Stats) map[string]float64 {
	m := map[string]float64{}
	for _, s := range shards {
		m["requests"] += float64(s.Requests)
		m["shed"] += float64(s.Shed)
		m["cache_hits"] += float64(s.CacheHits)
		m["cache_misses"] += float64(s.CacheMisses)
		m["singleflight_shared"] += float64(s.SingleflightShared)
		m["cache_evictions"] += float64(s.CacheEvictions)
		m["batches"] += float64(s.Batches)
		for size, n := range s.BatchHistogram {
			m["batched"] += float64(size) * float64(n)
		}
		m["queue_wait_ns"] += float64(s.QueueWaitNs)
		m["queue_wait_obs"] += float64(s.QueueWaitObs)
		m["forward_ns"] += float64(s.ForwardNs)
		m["forward_flushes"] += float64(s.ForwardFlushes)
		m["personalize_ns"] += float64(s.PersonalizeNs)
		m["personalize_runs"] += float64(s.PersonalizeRuns)
		m["compiles"] += float64(s.Compiles)
		m["compile_ns"] += float64(s.CompileNs)
		m["compiled_dispatched"] += float64(s.CompiledDispatched)
		m["masked_fallback"] += float64(s.MaskedFallback)
		m["guard_trips"] += float64(s.GuardTrips)
		m["heals"] += float64(s.Heals)
		m["fallback_served"] += float64(s.FallbackServed)
	}
	return m
}

func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// counterMetrics turns the before/after snapshots of one timed window
// into the client, cluster, serve and proc layer metrics.
func counterMetrics(before, after snapshot, d *driven, goroutines int) map[string]float64 {
	m := map[string]float64{}
	lat := latenciesMs(d.samples)
	ok := float64(len(lat))
	m["client.sent"] = float64(len(d.samples))
	m["client.ok"] = ok
	m["client.failed"] = float64(d.failed())
	if len(lat) >= 1000 {
		m["client.lat_p99_ms"] = percentile(lat, 99)
	}
	if len(lat) > 0 {
		m["client.lat_max_ms"] = lat[len(lat)-1]
	}
	top1 := 0.0
	for _, s := range d.samples {
		if s.top1 {
			top1++
		}
	}
	m["client.top1_acc"] = ratio(top1, ok)

	g0, g1 := before.gateway, after.gateway
	m["cluster.requests"] = float64(g1.Requests - g0.Requests)
	m["cluster.retries"] = float64(g1.Retries - g0.Retries)
	m["cluster.failovers"] = float64(g1.Failovers - g0.Failovers)
	m["cluster.wrong_owner"] = float64(g1.WrongOwner - g0.WrongOwner)
	m["cluster.shed"] = float64(g1.Shed - g0.Shed)
	busiest, total := 0.0, 0.0
	for i := range after.shards {
		n := float64(after.shards[i].Requests - before.shards[i].Requests)
		total += n
		if n > busiest {
			busiest = n
		}
	}
	m["cluster.busiest_shard_share"] = ratio(busiest, total)

	s0, s1 := serveSum(before.shards), serveSum(after.shards)
	s := map[string]float64{}
	for k, v := range s1 {
		s[k] = v - s0[k]
	}
	for _, k := range []string{"requests", "shed", "cache_hits", "cache_misses", "singleflight_shared",
		"cache_evictions", "batches", "personalize_runs", "compiles", "guard_trips", "heals", "fallback_served"} {
		m["serve."+k] = s[k]
	}
	m["serve.hit_ratio"] = ratio(s["cache_hits"], s["cache_hits"]+s["cache_misses"]+s["singleflight_shared"])
	m["serve.mean_batch"] = ratio(s["batched"], s["batches"])
	m["serve.queue_wait_mean_us"] = ratio(s["queue_wait_ns"], s["queue_wait_obs"]) / 1e3
	m["serve.forward_mean_us"] = ratio(s["forward_ns"], s["forward_flushes"]) / 1e3
	m["serve.forward_busy_s"] = s["forward_ns"] / 1e9
	m["serve.personalize_mean_ms"] = ratio(s["personalize_ns"], s["personalize_runs"]) / 1e6
	m["serve.personalize_busy_s"] = s["personalize_ns"] / 1e9
	m["serve.compile_mean_ms"] = ratio(s["compile_ns"], s["compiles"]) / 1e6
	m["serve.compiled_share"] = ratio(s["compiled_dispatched"], s["compiled_dispatched"]+s["masked_fallback"])
	// The histograms behind these two cannot be diffed from outside: the
	// p99 is since server start (pre-warm included), the bytes are now.
	for _, st := range after.shards {
		if p := us(st.QueueWaitP99); p > m["serve.queue_wait_p99_us"] {
			m["serve.queue_wait_p99_us"] = p
		}
		m["serve.compiled_bytes"] += float64(st.CompiledBytes)
	}

	p0, p1 := before.mem, after.mem
	m["proc.rss_peak_mb"] = rssPeakMB()
	m["proc.gc_cycles"] = float64(p1.NumGC - p0.NumGC)
	m["proc.gc_pause_total_ms"] = float64(p1.PauseTotalNs-p0.PauseTotalNs) / 1e6
	m["proc.alloc_mb_per_s"] = float64(p1.TotalAlloc-p0.TotalAlloc) / (1 << 20) / d.wall.Seconds()
	m["proc.allocs_per_req"] = ratio(float64(p1.Mallocs-p0.Mallocs), ok)
	m["proc.goroutines_peak"] = float64(goroutines)
	return m
}

// fixedPrefs are the preference vectors the core and nn layers are timed
// on and the miss ladder sends: the newUsers cycle at its base weights
// (cold requests always raise theirs, so the keys never meet).
func fixedPrefs() []core.Preferences {
	out := make([]core.Preferences, 0, len(newUsers))
	for _, p := range newUsers {
		q, err := core.Weighted(p.Classes, p.Weights)
		if err != nil {
			panic(fmt.Sprintf("benchmark: fixed preferences: %v", err)) // weights are positive by construction
		}
		q.Normalize()
		out = append(out, q)
	}
	return out
}

// timeEach returns the duration of each of reps calls to fn.
func timeEach(reps int, fn func()) []float64 {
	out := make([]float64, reps)
	for i := range out {
		t := time.Now()
		fn()
		out[i] = float64(time.Since(t))
	}
	return out
}

// sink keeps timed results alive so the calls cannot be optimised away.
var sink any

// layerMetrics times the public functions of the layers below serve on
// the fixture's own system (no shard uses it): core.System.Prune per
// variant, nn.Compile and the three inference executors, the matmul
// kernel, the gateway's routing arithmetic and the request generator.
func layerMetrics(e *env) (map[string]float64, error) {
	fx, sys := e.fx, e.fx.Sys
	if _, err := fx.EnsureB(io.Discard); err != nil {
		return nil, fmt.Errorf("B matrices: %w", err)
	}
	m := map[string]float64{}
	prefs := fixedPrefs()
	var pruneM, pruneW, pruneB, compileNs []float64
	var compiledB1, maskedB1, compiledB8 []float64
	x1, _ := fx.Sets.Test.Batch([]int{0})
	x8, _ := fx.Sets.Test.Batch([]int{0, 1, 2, 3, 4, 5, 6, 7})
	pruned, units := 0.0, 0.0
	timedPrune := func(v core.Variant, p core.Preferences) (map[int][]bool, float64, error) {
		t := time.Now()
		masks, err := sys.Prune(v, p)
		if err != nil {
			return nil, 0, fmt.Errorf("prune %s: %w", v, err)
		}
		return masks, float64(time.Since(t)), nil
	}
	// Three passes over the vectors: a pass is one sample per vector.
	for i := 0; i < 3*len(prefs); i++ {
		p := prefs[i%len(prefs)]
		masks, tm, err := timedPrune(core.VariantM, p)
		if err != nil {
			return nil, err
		}
		_, tw, err := timedPrune(core.VariantW, p)
		if err != nil {
			return nil, err
		}
		_, tb, err := timedPrune(core.VariantB, p)
		if err != nil {
			return nil, err
		}
		pruneM, pruneW, pruneB = append(pruneM, tm), append(pruneW, tw), append(pruneB, tb)
		t := time.Now()
		compiled, err := nn.Compile(fx.Net, masks)
		if err != nil {
			return nil, fmt.Errorf("compile: %w", err)
		}
		compileNs = append(compileNs, float64(time.Since(t)))
		compiledB1 = append(compiledB1, timeEach(30, func() { sink = compiled.Infer(x1) })...)
		maskedB1 = append(maskedB1, timeEach(10, func() { sink = fx.Net.Infer(x1, masks) })...)
		compiledB8 = append(compiledB8, timeEach(10, func() { sink = compiled.Infer(x8) })...)
		for _, stage := range masks {
			for _, off := range stage {
				units++
				if off {
					pruned++
				}
			}
		}
	}
	m["core.prune_m_ms_p50"] = median(pruneM) / 1e6
	m["core.prune_w_ms_p50"] = median(pruneW) / 1e6
	m["core.prune_b_us_p50"] = median(pruneB) / 1e3
	m["nn.compile_ms"] = median(compileNs) / 1e6
	m["nn.infer_compiled_b1_us"] = median(compiledB1) / 1e3
	m["nn.infer_masked_b1_us"] = median(maskedB1) / 1e3
	m["nn.infer_unpruned_b1_us"] = median(timeEach(60, func() { sink = fx.Net.Infer(x1, nil) })) / 1e3
	m["nn.infer_compiled_b8_us"] = median(compiledB8) / 1e3
	m["nn.pruned_unit_share"] = ratio(pruned, units)

	rng := rand.New(rand.NewSource(populationSeed))
	a, b := tensor.New(128, 128), tensor.New(128, 128)
	a.FillNormal(rng, 0, 1)
	b.FillNormal(rng, 0, 1)
	m["tensor.matmul_128_us"] = median(timeEach(40, func() { sink, _ = tensor.MatMul(a, b) })) / 1e3

	const loops = 2000
	reqs := make([]request, 64)
	keys := make([]string, len(reqs))
	gen := make([]float64, len(reqs))
	for i := range reqs {
		t := time.Now()
		reqs[i] = e.gen.at(hot, i)
		gen[i] = float64(time.Since(t))
		var err error
		if keys[i], err = cluster.RouteKey(reqs[i].wire); err != nil {
			return nil, fmt.Errorf("route key of generated request %d: %w", i, err)
		}
	}
	m["workload.gen_us_per_event"] = median(gen) / 1e3
	t := time.Now()
	for i := 0; i < loops; i++ {
		sink, _ = cluster.RouteKey(reqs[i%len(reqs)].wire)
	}
	m["cluster.route_key_ns"] = float64(time.Since(t)) / loops
	ring, err := cluster.NewRing(0, cluster.DefaultVirtualNodes, e.addrs)
	if err != nil {
		return nil, fmt.Errorf("ring: %w", err)
	}
	var owners [2]string
	t = time.Now()
	for i := 0; i < loops; i++ {
		ring.LookupInto(keys[i%len(keys)], owners[:])
	}
	m["cluster.ring_lookup_ns"] = float64(time.Since(t)) / loops
	return m, nil
}
