// Command capnn-serve runs CAP'NN's multi-user inference service: a TCP
// server that answers per-user classification requests by personalizing
// the shared model on demand (mask cache + singleflight) and forwarding
// each request on its personalization's compiled plan — one request, one
// forward in the request's own goroutine, at most -workers of them at a
// time, a freed slot going to the interactive lane before bulk.
//
//	capnn-serve -addr 127.0.0.1:7879 -model cifar10
//
// A request that names no pruning variant is served as CAP'NN-M
// (core.DefaultVariant), the variant a gateway places it under.
//
// The serving tier self-heals: a runtime ε-guard shadow-samples each
// cached personalization and, when the window shows more off-preference
// predictions than the claimed classes' profiled confusion rows explain,
// falls back to the unpruned network and repersonalizes against the
// observed class mix through a circuit breaker (size the sampling with
// -guard-sample-every and -guard-window, disable with -no-guard).
//
// A restarted server starts cold and refills its mask cache from
// traffic: masks are a pure function of (model, variant, preferences),
// so a restart costs one personalization per key asked for again, never
// a client-visible error.
//
// It can injure its own transport for resilience testing:
//
//	capnn-serve -addr 127.0.0.1:7879 -chaos "seed=7,drop=0.1,latency=20ms"
//
// With -metrics-addr the server additionally mounts an HTTP
// observability surface: /metrics (Prometheus text exposition of every
// serving counter, gauge, and latency histogram), /debug/events (the
// structured event log: sheds, guard trips, heals, breaker transitions,
// compile failures), /debug/stats (the Stats snapshot as JSON),
// and a /debug index:
//
//	capnn-serve -metrics-addr 127.0.0.1:9879
//
// On SIGINT/SIGTERM the server drains: it stops accepting, sheds new
// requests with busy, answers in-flight requests within
// -drain-timeout, prints the registry summary (the numbers /metrics
// serves, guard trips included), and exits.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"capnn/internal/cluster"
	"capnn/internal/exp"
	"capnn/internal/faults"
	"capnn/internal/metrics"
	"capnn/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7879", "listen address")
	model := flag.String("model", "imagenet20", "fixture to serve: imagenet20 or cifar10")
	workers := flag.Int("workers", 0, "concurrent forwards (0 = GOMAXPROCS)")
	cacheCap := flag.Int("cache-cap", 256, "mask cache capacity (distinct personalizations held)")
	maxQueue := flag.Int("max-queue", 1024, "admitted requests in flight before shedding with busy")
	reqTimeout := flag.Duration("request-timeout", 30*time.Second, "server-side cap on one request's queue+serve time; a client deadline budget tightens it, never extends it")
	bulkFrac := flag.Float64("bulk-queue-fraction", 0.5, "fraction of max-queue the bulk lane may fill before shedding over-quota (interactive keeps the rest)")
	chaos := flag.String("chaos", "", "fault-injection spec, e.g. seed=7,drop=0.1,close=0.2,corrupt=0.2,latency=20ms")
	metricsAddr := flag.String("metrics-addr", "", "HTTP observability address serving /metrics, /debug/events and /debug/stats (empty = disabled)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "bound on draining in-flight work at shutdown")
	noGuard := flag.Bool("no-guard", false, "disable the runtime ε-guard (serve stale personalizations forever)")
	guardEvery := flag.Int("guard-sample-every", 8, "shadow-sample every Nth request per entry through the unpruned network")
	guardWindow := flag.Int("guard-window", 256, "sliding window of shadow observations per entry")
	flag.Parse()

	cfg, err := exp.FixtureByName(*model)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	plan, err := faults.ParsePlan(*chaos)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fx, err := exp.Load(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Algorithm 1's per-class matrices back CAP'NN-B personalizations;
	// compute (or load) them now so a cold B request doesn't pay for the
	// offline phase inside its deadline.
	if _, err := fx.EnsureB(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	srv := serve.NewServerWith(fx.Sys, serve.Config{
		Workers:           *workers,
		CacheCap:          *cacheCap,
		MaxQueue:          *maxQueue,
		RequestTimeout:    *reqTimeout,
		BulkQueueFraction: *bulkFrac,
		DisableGuard:      *noGuard,
		GuardSampleEvery:  *guardEvery,
		GuardWindow:       *guardWindow,
	})
	// Cluster fence: a gateway's ring broadcasts (OpRingUpdate) install a
	// local copy of the membership here, and every routed request's
	// placement stamp is judged against it — stale epochs and misrouted
	// keys bounce back as typed codes the gateway retries on its fresh
	// ring. Standalone deployments never receive a broadcast, so the
	// fence stays empty and admits everything.
	fence := cluster.NewFence()
	srv.SetOwnerCheck(fence.Check)
	srv.SetRingUpdate(fence.Apply)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if plan.Active() {
		fmt.Printf("capnn-serve: CHAOS enabled: %+v\n", plan)
		ln = faults.WrapListener(ln, plan)
	}
	bound := srv.Serve(ln)
	fmt.Printf("capnn-serve: serving %s on %s (Ctrl-C to stop)\n", cfg.Name, bound)

	if *metricsAddr != "" {
		mux := metrics.NewMux(srv.Metrics(), srv.Events())
		mux.Handle("/debug/stats", metrics.JSONHandler(func() any { return srv.Stats() }))
		maddr, stopMetrics, err := metrics.Serve(*metricsAddr, mux)
		if err != nil {
			fmt.Fprintf(os.Stderr, "capnn-serve: metrics listener: %v\n", err)
			os.Exit(1)
		}
		defer func() { _ = stopMetrics() }()
		fmt.Printf("capnn-serve: metrics on http://%s/metrics (index at /debug)\n", maddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	if err := srv.Shutdown(*drainTimeout); err != nil {
		fmt.Fprintf(os.Stderr, "capnn-serve: drain: %v\n", err)
	}
	metrics.DumpSummary(os.Stdout, "capnn-serve", "final", srv.Metrics())
	fmt.Println("capnn-serve: stopped")
}
