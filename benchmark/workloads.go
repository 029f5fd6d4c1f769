package main

import (
	"fmt"
	"math/rand"

	"capnn/internal/cloud"
	"capnn/internal/core"
	"capnn/internal/data"
	"capnn/internal/exp"
	"capnn/internal/serve"
	"capnn/internal/workload"
)

// spec is one workload: the cluster it builds and the request stream it
// replays. Every field is fixed here; the only run-time inputs are the
// seed and the window length.
type spec struct {
	name string
	why  string
	// gated workloads are the ones BENCHMARK.json lists and the driver
	// runs ten times to see whether they repeat; a full run (no -workload)
	// covers the ungated one too. cold_users is CPU-bound on both cores
	// from its first request to its last, the host runs such work 1.4–1.8
	// times slower for minutes at a time, and no window the driver's time
	// limit allows outlasts that (README "Steadiness").
	gated bool
	// shards is the serve-node count; with gateway the clients dial a
	// cluster.Gateway in front of them, without it they dial shard 0.
	shards  int
	gateway bool
	// cacheCap is serve.Config.CacheCap (0 = the production default, 256).
	cacheCap int
	// clients says which stream each closed-loop client draws from;
	// clients on the same stream share its request counter.
	clients [clientCount]stream
	// A chunk of the timed window (see driven.chunkSeries) ends with every
	// chunk-th answer of the pace stream: 250 hot answers, enough for a
	// 90th percentile with ten samples beyond it, or one cycle of newUsers
	// — with, on churn_zipf, the hits served meanwhile — so that every
	// chunk holds the same pruning problems.
	pace  stream
	chunk int
	// think makes the cold client pause after each answer for this share
	// of the time the answer took: 0.4 keeps a fill in flight 5/7 of the
	// time, which puts about a third of churn_zipf's hits beside one — far
	// enough from a half and from a tenth that lat_p50_ms is a hit served
	// alone and lat_p90_ms a hit served beside a fill in every run.
	think float64
}

// stream is a kind of request a client can send.
type stream int

const (
	// idle clients send nothing.
	idle stream = iota
	// hot requests replay the seed's window of the fixed user population's
	// trace; every distinct key of that window is personalised in set-up.
	hot
	// cold requests each carry a never-seen preference key.
	cold
)

func (sp spec) has(s stream) bool {
	for _, c := range sp.clients {
		if c == s {
			return true
		}
	}
	return false
}

// The population the hot trace is drawn from is the same in every run:
// workload.Model event i is a pure function of (Config, i), so the seed
// selects a window of one endless trace (events [seed<<32, …)) instead
// of re-drawing the users. Redrawing them moved lat_p50_ms by the head
// key's forward time and setup_s by ±16 % (8 keys × 0.13–1.1 s each);
// see README "Scaling to the run contract".
const (
	populationSeed = 1
	hotUsers       = 8
	hotZipfS       = 1.2
	// traceWindow is how many events of the seed's window a run replays
	// (cyclically, should a window outlast them) and pre-warms.
	traceWindow = 8000
	// churnCacheCap is one more than the hot keys of the fullest shard
	// (the pinned ring places them 1/2/4), so that new keys evict each
	// other and not the hot set; see TestChurnKeepsHotSetResident.
	churnCacheCap = 5
)

var workloads = []spec{
	{name: "warm_zipf", gated: true, shards: 3, gateway: true, clients: [clientCount]stream{hot, hot}, pace: hot, chunk: 250,
		why: "steady state: every key resident and compiled, so wire, gateway route, batcher wait and the compiled forward do all the work and personalisation does none"},
	{name: "warm_direct", gated: true, shards: 1, clients: [clientCount]stream{hot, hot}, pace: hot, chunk: 250,
		why: "same trace against one shard with no gateway: a gateway or transport change must move warm_zipf and leave this flat"},
	{name: "cold_users", shards: 3, gateway: true, clients: [clientCount]stream{cold, idle}, pace: cold, chunk: len(newUsers),
		why: "every request carries a never-seen preference key: core.System.Prune is the latency, forward and wire are noise"},
	{name: "churn_zipf", gated: true, shards: 3, gateway: true, cacheCap: churnCacheCap, clients: [clientCount]stream{hot, cold}, pace: cold, chunk: len(newUsers), think: 0.4,
		why: "one client replays the warm trace while the other only brings never-seen keys, against 5-entry caches: hits beside fills, LRU evictions and async compiles"},
}

func specByName(name string) (spec, bool) {
	for _, sp := range workloads {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// request is one generated request: what goes on the wire, the class
// its input image was drawn from, and the preferences in canonical form.
type request struct {
	wire  serve.WireRequest
	user  uint64
	class int
	prefs core.Preferences
}

// cacheKey is the serve tier's mask-cache key for the request.
func (r request) cacheKey() string { return string(core.VariantM) + "/" + r.prefs.Key() }

// generator produces request i of a workload for one seed. It is a pure
// function of (spec, seed, i): any client goroutine may build any index.
type generator struct {
	sp    spec
	seed  int64
	model *workload.Model
	test  *data.Dataset
	pools [][]int // class → test-image indices
}

func newGenerator(sp spec, seed int64, fx *exp.Fixture) (*generator, error) {
	model, err := workload.NewModel(workload.Config{
		Users: hotUsers, Classes: fx.Config.Synth.Classes, Groups: fx.Config.Synth.ClassGroups(),
		ZipfS: hotZipfS, Seed: populationSeed,
	})
	if err != nil {
		return nil, err
	}
	return &generator{sp: sp, seed: seed, model: model, test: fx.Sets.Test, pools: fx.Sets.Test.ByClass()}, nil
}

// at is request i of stream s.
func (g *generator) at(s stream, i int) request {
	if s == cold {
		return g.coldAt(i)
	}
	ev := g.model.At(uint64(g.seed)<<32 + uint64(i%traceWindow))
	pool := g.pools[ev.Class]
	r := g.build(ev.Prefs, ev.Class, pool[int(ev.Index%uint64(len(pool)))])
	r.user = ev.User
	return r
}

func (g *generator) build(prefs core.Preferences, class, image int) request {
	x, _ := g.test.Batch([]int{image})
	return request{class: class, prefs: prefs, wire: serve.WireRequest{
		Version: cloud.ProtocolVersion, Variant: "M",
		Classes: prefs.Classes, Weights: prefs.Weights, Input: x.Data(),
	}}
}

// newUsers are the preference sets never-seen users arrive with, in a
// cycle: 2–4 classes of one confusion group (classes 0–4 and 5–9 on the
// cifar10 fixture), fixed weights. The cycle is short and the same in
// every run so that every chunk of a cold_users window — one cycle —
// holds the same three pruning problems and chunks can be compared; drawn
// afresh, the same classes cost 0.45–1.1 s depending on the weights and
// the ≈ 50 misses a window holds cannot average that out.
var newUsers = []core.Preferences{
	{Classes: []int{0, 3}, Weights: []float64{0.62, 0.38}},
	{Classes: []int{5, 7, 8}, Weights: []float64{0.5, 0.3, 0.2}},
	{Classes: []int{1, 2, 3, 4}, Weights: []float64{0.4, 0.3, 0.2, 0.1}},
}

// coldAt is the j-th never-seen user of this seed: cycle member j mod
// len(newUsers) with its first weight raised by a step of 0.002 % chosen
// by (seed, lap) — a new cache key (weights are hashed at 1e-6) over what
// is within 1 % the same pruning problem — asking about a seeded image of
// one of its classes.
func (g *generator) coldAt(j int) request {
	base := newUsers[j%len(newUsers)]
	lap := uint64(j / len(newUsers))
	weights := append([]float64(nil), base.Weights...)
	weights[0] *= 1 + 2e-5*float64(1+(uint64(g.seed)*7919+lap)%500)
	prefs, err := core.Weighted(base.Classes, weights)
	if err != nil {
		panic(fmt.Sprintf("benchmark: cold preferences %d: %v", j, err)) // weights are positive by construction
	}
	prefs.Normalize()
	rng := rand.New(rand.NewSource(g.seed*1_000_003 + int64(j)))
	class := base.Classes[rng.Intn(len(base.Classes))]
	pool := g.pools[class]
	r := g.build(prefs, class, pool[rng.Intn(len(pool))])
	r.user = hotUsers + uint64(j)
	return r
}

// prewarmRequests returns one request per distinct key of the hot trace
// window, in first-appearance order.
func (g *generator) prewarmRequests() []request {
	if !g.sp.has(hot) {
		return nil
	}
	seen := map[string]bool{}
	var out []request
	for i := 0; i < traceWindow; i++ {
		r := g.at(hot, i)
		if k := r.prefs.Key(); !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// feeds returns one feed per client, shared between clients on the same
// stream, nil for an idle client.
func (g *generator) feeds() []*feed {
	byStream := map[stream]*feed{}
	out := make([]*feed, len(g.sp.clients))
	for c, s := range g.sp.clients {
		if s == idle {
			continue
		}
		if byStream[s] == nil {
			byStream[s] = &feed{stream: s, at: func(i int) request { return g.at(s, i) }}
			if s == cold {
				byStream[s].think = g.sp.think
			}
		}
		out[c] = byStream[s]
	}
	return out
}
