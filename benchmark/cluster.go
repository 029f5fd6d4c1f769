package main

import (
	"fmt"
	"io"
	"time"

	"capnn/internal/cluster"
	"capnn/internal/core"
	"capnn/internal/exp"
	"capnn/internal/nn"
	"capnn/internal/serve"
)

// clientCount is the closed-loop client population: one goroutine (and
// at most one connection) per core of the 2-core box the numbers are
// taken on, so the load generator never outnumbers the server.
const clientCount = 2

// env is one set-up: the fixture, a running cluster and the request
// generator for one (workload, seed).
type env struct {
	sp     spec
	fx     *exp.Fixture
	gen    *generator
	shards []*serve.Server
	addrs  []string // shard addresses, index-aligned with shards
	gw     *cluster.Gateway
	gwAddr string
	target string // the address clients dial
}

// setUp is everything a workload pays before its first timed request:
// load the checked-in fixture, start the shards (and gateway) on the
// pinned ports, personalise every hot key and wait for the compiles.
func setUp(sp spec, seed int64, basePort int) (e *env, err error) {
	fx, err := exp.Load(exp.CIFAR10Config(), io.Discard)
	if err != nil {
		return nil, fmt.Errorf("load fixture: %w", err)
	}
	gen, err := newGenerator(sp, seed, fx)
	if err != nil {
		return nil, err
	}
	e = &env{sp: sp, fx: fx, gen: gen}
	defer func() {
		if err != nil {
			e.stop()
			e = nil
		}
	}()
	for i := 0; i < sp.shards; i++ {
		// Personalisation installs masks on its own network while it
		// measures candidates, so every shard needs a private copy; the
		// firing rates are read-only and shared.
		net, err := nn.CloneNetwork(fx.Net)
		if err != nil {
			return e, fmt.Errorf("clone network: %w", err)
		}
		sys, err := core.NewSystem(net, fx.Sets.Val, fx.Sets.Profile, fx.Rates, fx.Sys.Params)
		if err != nil {
			return e, fmt.Errorf("shard system: %w", err)
		}
		srv := serve.NewServerWith(sys, serve.Config{CacheCap: sp.cacheCap})
		fence := cluster.NewFence() // production wiring, as cmd/capnn-serve
		srv.SetOwnerCheck(fence.Check)
		srv.SetRingUpdate(fence.Apply)
		e.shards = append(e.shards, srv)
		// Ring placement hashes the address string, so ephemeral ports
		// would reshuffle key→shard in every process.
		addr, err := srv.Listen(fmt.Sprintf("127.0.0.1:%d", basePort+1+i))
		if err != nil {
			return e, fmt.Errorf("shard %d: port %d is taken (pick another -base-port): %w", i, basePort+1+i, err)
		}
		e.addrs = append(e.addrs, addr)
	}
	e.target = e.addrs[0]
	if sp.gateway {
		e.gw, err = cluster.NewGateway(e.addrs, cluster.Config{Replication: 2})
		if err != nil {
			return e, fmt.Errorf("gateway: %w", err)
		}
		e.gwAddr, err = e.gw.Listen(fmt.Sprintf("127.0.0.1:%d", basePort))
		if err != nil {
			return e, fmt.Errorf("gateway: port %d is taken (pick another -base-port): %w", basePort, err)
		}
		e.target = e.gwAddr
	}
	if warm := gen.prewarmRequests(); len(warm) > 0 {
		f := &feed{stream: hot, n: len(warm), at: func(i int) request { return warm[i] }}
		d := drive(e.target, []*feed{f, f}, 0)
		if d.failed() > 0 {
			return e, fmt.Errorf("pre-warm: %d of %d requests failed, first: %s", d.failed(), len(warm), d.firstFailure)
		}
	}
	for _, srv := range e.shards {
		if err := srv.CompileWait(time.Minute); err != nil {
			return e, fmt.Errorf("compile wait: %w", err)
		}
	}
	return e, nil
}

// stop shuts the gateway first: its pooled connections hold the shards'
// connection handlers open until they close.
func (e *env) stop() {
	if e.gw != nil {
		_ = e.gw.Close()
	}
	for _, srv := range e.shards {
		_ = srv.Close()
	}
}

// holder returns the index of the shard whose cache holds key, and that
// entry's masks.
func (e *env) holder(key string) (int, map[int][]bool, bool) {
	for i, srv := range e.shards {
		for _, cm := range srv.ExportMasks() {
			if cm.Key == key {
				return i, cm.Masks, true
			}
		}
	}
	return 0, nil, false
}
