package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"capnn/internal/core"
	"capnn/internal/nn"
	"capnn/internal/serve"
	"capnn/internal/tensor"
)

// span is one timed interval of a traced run. Spans of one request share
// its index; parent names the span one layer further out.
type span struct {
	Request int    `json:"request"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"` // since the trace began
	EndNs   int64  `json:"end_ns"`
}

// The ladder issues the same warm request at every depth of the stack,
// one after the other, from outside: each rung is a public entry point
// one layer further in. A rung's self time is its median minus the next
// rung's. R2 (client → owning shard) is the side rung that prices the
// shard's own wire.
var rungs = [...]string{
	"R0 client->gateway",
	"R1 Gateway.Route",
	"R2 client->shard",
	"R3 Server.Handle",
	"R4 Server.InferVariant",
	"R5 Compiled.Infer",
}

const (
	ladderEvents = 200
	rootSpan     = "client.infer"
)

// ladder measures the rungs on requests the window already served (so
// their keys are resident) and returns each rung's median in µs (0 where
// the workload has no gateway) plus the spans.
func ladder(e *env, d *driven, epoch time.Time) ([len(rungs)]float64, []span, error) {
	var medians [len(rungs)]float64
	var times [len(rungs)][]float64
	var spans []span
	plans := map[string]*nn.Compiled{}
	served := d.served()
	if len(served) == 0 {
		return medians, nil, fmt.Errorf("ladder: the window served nothing")
	}
	for n := 0; n < ladderEvents; n++ {
		pick := served[n*len(served)/ladderEvents]
		idx := pick.idx
		r := e.gen.at(pick.stream, idx)
		shard, masks, ok := e.holder(r.cacheKey())
		if !ok {
			continue // evicted since it was served (churn_zipf)
		}
		plan := plans[r.cacheKey()]
		if plan == nil {
			var err error
			if plan, err = nn.Compile(e.fx.Net, masks); err != nil {
				return medians, nil, fmt.Errorf("ladder: compile: %w", err)
			}
			plans[r.cacheKey()] = plan
		}
		x := tensor.MustFromSlice(r.wire.Input, append([]int{1}, plan.InShape()...)...)
		srv := e.shards[shard]
		var err error
		steps := [len(rungs)]func(){
			func() { _, err = serve.NewClient(e.gwAddr).Infer(r.wire) },
			func() { err = wireError(e.gw.Route(r.wire)) },
			func() { _, err = serve.NewClient(e.addrs[shard]).Infer(r.wire) },
			func() { err = wireError(srv.Handle(r.wire)) },
			func() { _, err = srv.InferVariant(core.VariantM, r.prefs, x) },
			func() { sink = plan.Infer(x) },
		}
		parent := ""
		for k, step := range steps {
			if k < 2 && e.gw == nil {
				continue
			}
			t0 := time.Now()
			step()
			t1 := time.Now()
			if err != nil {
				return medians, nil, fmt.Errorf("ladder: %s on request %d: %w", rungs[k], idx, err)
			}
			times[k] = append(times[k], us(t1.Sub(t0)))
			spans = append(spans, span{Request: idx, Name: rungs[k], Parent: parent,
				StartNs: t0.Sub(epoch).Nanoseconds(), EndNs: t1.Sub(epoch).Nanoseconds()})
			parent = rungs[k]
		}
	}
	for k := range times {
		medians[k] = median(times[k])
	}
	return medians, spans, nil
}

func wireError(resp *serve.WireResponse) error {
	if resp.Err != "" {
		return fmt.Errorf("[%s] %s", resp.Code, resp.Err)
	}
	return nil
}

// missLadder prices the miss path: for each fixed preference vector it
// times System.Prune(M) + nn.Compile directly on the fixture's own system
// and straight afterwards sends the same vector through the full path as
// a first-time user. It returns direct ÷ client latency per vector —
// core's share of a cold request.
func missLadder(e *env, epoch time.Time) ([]float64, []span, error) {
	var shares []float64
	var spans []span
	for i, p := range fixedPrefs() {
		t0 := time.Now()
		masks, err := e.fx.Sys.Prune(core.VariantM, p)
		if err == nil {
			_, err = nn.Compile(e.fx.Net, masks)
		}
		direct := time.Since(t0)
		if err != nil {
			return nil, nil, fmt.Errorf("miss ladder: direct prune and compile: %w", err)
		}
		t0 = time.Now()
		resp, err := serve.NewClient(e.target).Infer(e.gen.build(p, 0, 0).wire)
		t1 := time.Now()
		if err != nil {
			return nil, nil, fmt.Errorf("miss ladder: %w", err)
		}
		if resp.CacheHit {
			return nil, nil, fmt.Errorf("miss ladder: fixed preference vector %d was already cached", i)
		}
		shares = append(shares, float64(direct)/float64(t1.Sub(t0)))
		spans = append(spans, span{Request: -1 - i, Name: "miss " + rungs[0],
			StartNs: t0.Sub(epoch).Nanoseconds(), EndNs: t1.Sub(epoch).Nanoseconds()})
	}
	return shares, spans, nil
}

// ladderMetrics is the ladder arithmetic: rung medians to self times.
func ladderMetrics(r [len(rungs)]float64, windowP50Ms float64, coldShares []float64) map[string]float64 {
	m := map[string]float64{
		"serve.wire_self_us":        r[2] - r[3],
		"serve.handle_self_us":      r[3] - r[4],
		"serve.queue_cache_self_us": r[4] - r[5],
		"core.cold_request_share":   median(coldShares),
	}
	outer := r[2] // without a gateway the client's outermost rung is R2
	if r[0] > 0 {
		outer = r[0]
		m["client.wire_self_us"] = r[0] - r[1]
		m["cluster.hop_self_us"] = r[1] - r[3]
	}
	// The ladder is one request at a time, the window two: the gap is
	// tracing overhead plus what the second client costs the first.
	m["trace.r0_vs_timed_pct"] = 100 * ratio(outer/1e3-windowP50Ms, windowP50Ms)
	for k, v := range r {
		m[fmt.Sprintf("trace.r%d_p50_us", k)] = v
	}
	return m
}

// writeSpans writes a traced run's spans under the benchmark's out
// directory and returns the file's path.
func writeSpans(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	b, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// rootSpans turns the window's samples into the root span of each request.
func rootSpans(d *driven, epoch time.Time) []span {
	out := make([]span, 0, len(d.samples))
	for _, s := range d.samples {
		out = append(out, span{Request: s.idx, Name: rootSpan,
			StartNs: s.start.Sub(epoch).Nanoseconds(), EndNs: s.end.Sub(epoch).Nanoseconds()})
	}
	return out
}
