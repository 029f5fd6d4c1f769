// Command capnn-serve runs CAP'NN's multi-user inference service: a TCP
// server that answers per-user classification requests by personalizing
// the shared model on demand (mask cache + singleflight) and forwarding
// each request on its personalization's compiled plan — one request, one
// forward, interactive lane before bulk.
//
//	capnn-serve -addr 127.0.0.1:7879 -model cifar10 -variant M
//
// The serving tier self-heals: a runtime ε-guard shadow-samples each
// cached personalization and, when the window shows more off-preference
// predictions than the claimed classes' profiled confusion rows explain,
// falls back to the unpruned network and repersonalizes against the
// observed class mix through a circuit breaker (size the sampling with
// -guard-sample-every and -guard-window, disable with -no-guard).
//
// With -state the server checkpoints its mask cache (plus model and
// firing rates) into an atomic, CRC-checksummed store and warm-starts
// from the latest good generation after a crash:
//
//	capnn-serve -state /var/lib/capnn/serve -checkpoint-every 30s
//
// Like capnn-cloud it can injure its own transport for resilience
// testing:
//
//	capnn-serve -addr 127.0.0.1:7879 -chaos "seed=7,drop=0.1,latency=20ms"
//
// With -metrics-addr the server additionally mounts an HTTP
// observability surface: /metrics (Prometheus text exposition of every
// serving counter, gauge, and latency histogram), /debug/events (the
// structured event log: sheds, guard trips, heals, breaker and
// checkpoint transitions), /debug/stats (the Stats snapshot as JSON),
// and a /debug index:
//
//	capnn-serve -metrics-addr 127.0.0.1:9879
//
// On SIGINT/SIGTERM the server drains: it stops accepting, sheds new
// requests with busy, answers in-flight requests within
// -drain-timeout, takes a final checkpoint, prints a stats snapshot
// (including guard trips, breaker transitions, checkpoint age), and
// exits.
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
	"capnn/internal/core"
	"capnn/internal/exp"
	"capnn/internal/faults"
	"capnn/internal/metrics"
	"capnn/internal/serve"
	"capnn/internal/store"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7879", "listen address")
	model := flag.String("model", "imagenet20", "fixture to serve: imagenet20 or cifar10")
	variant := flag.String("variant", "M", "default pruning variant for requests that name none: B, W or M")
	workers := flag.Int("workers", 0, "forward worker pool size (0 = GOMAXPROCS)")
	cacheCap := flag.Int("cache-cap", 256, "mask cache capacity (distinct personalizations held)")
	maxQueue := flag.Int("max-queue", 1024, "admitted requests in flight before shedding with busy")
	reqTimeout := flag.Duration("request-timeout", 30*time.Second, "server-side cap on one request's queue+serve time; a client deadline budget tightens it, never extends it")
	bulkFrac := flag.Float64("bulk-queue-fraction", 0.5, "fraction of max-queue the bulk lane may fill before shedding over-quota (interactive keeps the rest)")
	chaos := flag.String("chaos", "", "fault-injection spec, e.g. seed=7,drop=0.1,close=0.2,corrupt=0.2,latency=20ms")
	metricsAddr := flag.String("metrics-addr", "", "HTTP observability address serving /metrics, /debug/events and /debug/stats (empty = disabled)")
	statsEvery := flag.Duration("stats-every", 0, "periodically print a stats snapshot (0 = only at shutdown)")
	stateDir := flag.String("state", "", "checkpoint store directory: warm-start the mask cache from the latest good generation and checkpoint periodically (empty = stateless)")
	ckptEvery := flag.Duration("checkpoint-every", 30*time.Second, "with -state, commit a checkpoint this often")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "bound on draining in-flight work at shutdown")
	noGuard := flag.Bool("no-guard", false, "disable the runtime ε-guard (serve stale personalizations forever)")
	guardEvery := flag.Int("guard-sample-every", 8, "shadow-sample every Nth request per entry through the unpruned network")
	guardWindow := flag.Int("guard-window", 256, "sliding window of shadow observations per entry")
	flag.Parse()

	var cfg exp.FixtureConfig
	switch *model {
	case "imagenet20":
		cfg = exp.ImageNet20Config()
	case "cifar10":
		cfg = exp.CIFAR10Config()
	default:
		fmt.Fprintf(os.Stderr, "unknown model %q\n", *model)
		os.Exit(2)
	}
	v, err := core.ParseVariant(*variant, core.DefaultVariant)
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
	if v == core.VariantB {
		if _, err := fx.EnsureB(os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	srv := serve.NewServerWith(fx.Sys, serve.Config{
		Variant:           v,
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

	var st *store.Store
	if *stateDir != "" {
		st, err = store.Open(*stateDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if g, err := st.Latest(); err == nil {
			n, err := srv.RestoreState(g)
			if err != nil {
				fmt.Fprintf(os.Stderr, "capnn-serve: restore generation %d: %v\n", g.Number, err)
				os.Exit(1)
			}
			fmt.Printf("capnn-serve: recovered generation %d: %d cached personalizations warm\n", g.Number, n)
		} else {
			fmt.Printf("capnn-serve: no usable checkpoint in %s, starting cold\n", *stateDir)
		}
	}
	// checkpoint commits one generation; failures are logged AND recorded
	// in Stats (CheckpointErrors / LastCheckpointError) so a serving tier
	// that keeps answering requests while silently failing to persist is
	// visible to remote stats scrapes, not only to whoever tails stderr.
	checkpoint := func() {
		if st == nil {
			return
		}
		fail := func(stage string, err error) {
			err = fmt.Errorf("%s: %w", stage, err)
			srv.NoteCheckpointError(err)
			fmt.Fprintf(os.Stderr, "capnn-serve: checkpoint: %v\n", err)
		}
		txn, err := st.Begin()
		if err != nil {
			fail("begin", err)
			return
		}
		defer txn.Abort()
		if err := srv.SaveState(txn); err != nil {
			fail("save", err)
			return
		}
		if err := txn.Commit(); err != nil {
			fail("commit", err)
			return
		}
		srv.NoteCheckpoint(txn.Generation())
	}

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
	fmt.Printf("capnn-serve: serving %s (variant %s) on %s (Ctrl-C to stop)\n", cfg.Name, v, bound)

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

	stop := make(chan struct{})
	metrics.PeriodicDump(os.Stdout, "capnn-serve", *statsEvery, srv.Metrics(), stop)
	if st != nil {
		go func() {
			tick := time.NewTicker(*ckptEvery)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					checkpoint()
				case <-stop:
					return
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	close(stop)
	if err := srv.Shutdown(*drainTimeout); err != nil {
		fmt.Fprintf(os.Stderr, "capnn-serve: drain: %v\n", err)
	}
	checkpoint()
	fmt.Printf("capnn-serve: final %s\n", srv.Stats())
	metrics.DumpSummary(os.Stdout, "capnn-serve", "final", srv.Metrics())
	fmt.Println("capnn-serve: stopped")
}
