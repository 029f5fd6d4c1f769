// Command capnn-gateway fronts a fleet of capnn-serve shards with a
// consistent-hash router: each request's placement key (pruning variant
// + canonical preference hash) pins it to the serve node whose mask
// cache already holds that personalization, and node failures fail over
// to the key's next ring replica without surfacing to clients.
//
//	capnn-gateway -addr 127.0.0.1:7878 \
//	    -nodes 127.0.0.1:7879,127.0.0.1:7880,127.0.0.1:7881
//
// The gateway speaks exactly the serve wire protocol on its client
// side, so devices point at it unchanged; on its backend side it keeps
// pooled persistent connections per shard, probes each shard's health
// every -probe-every (closed/open/half-open breaker).
//
// Multi-tenant admission control runs ahead of routing: -quota-bulk /
// -quota-interactive set default per-tenant token-bucket rates
// (requests/s, "rate[:burst]"), -quota-tenant overrides one tenant, and
// a request whose bucket is empty is shed with the retryable over-quota
// code before it costs any shard work:
//
//	capnn-gateway -quota-bulk 50:100 -quota-tenant "batch=unlimited,10:20" ...
//
// With -state the gateway keeps its ring (seed, virtual nodes, members,
// epoch) in the directory's crash-safe ring file, written before each
// membership change takes effect, so a restarted gateway places every
// key exactly where its predecessor did and no shard's cache locality
// is lost. A ring file that fails its check stops the gateway at start-up
// (exit 1): a ring never rolls back behind the shards' fences.
//
//	capnn-gateway -state /var/lib/capnn/gateway -nodes ...
//
// With -metrics-addr the gateway mounts its HTTP observability
// surface: /metrics (Prometheus text exposition of routing counters and
// per-node breaker series), /debug/events (structured failovers, sheds,
// breaker transitions), /debug/stats (the Stats snapshot as JSON:
// membership, routing counters, per-tenant admission and per-node
// health), and a /debug index:
//
//	capnn-gateway -metrics-addr 127.0.0.1:9878 -nodes ...
//
// The metrics listener also carries the membership admin surface:
// POST /admin/ring/join?node=HOST:PORT and /admin/ring/leave?node=...
// drive elastic scaling at runtime — the joiner is preflight-probed,
// the cluster epoch flips, and the new view is broadcast to every
// shard's fence. No cache state moves: a key that changes owner costs
// one personalization on its new owner, on its first request:
//
//	curl -X POST 'http://127.0.0.1:9878/admin/ring/join?node=127.0.0.1:7882'
//
// On SIGINT/SIGTERM it drains: stops accepting, sheds new requests with
// busy, prints the registry summary, and exits.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"capnn/internal/cluster"
	"capnn/internal/metrics"
	"capnn/internal/qos"
)

// tenantQuotaFlags collects repeated -quota-tenant occurrences.
type tenantQuotaFlags []string

func (f *tenantQuotaFlags) String() string { return strings.Join(*f, " ") }
func (f *tenantQuotaFlags) Set(s string) error {
	*f = append(*f, s)
	return nil
}

// buildAdmission assembles the gateway's token-bucket quota set from the
// flag syntax: default lane limits plus name=interactive,bulk overrides.
func buildAdmission(interactive, bulk string, tenants tenantQuotaFlags) (qos.LimiterConfig, error) {
	var cfg qos.LimiterConfig
	var err error
	if cfg.Default.Interactive, err = qos.ParseLimit(interactive); err != nil {
		return cfg, fmt.Errorf("-quota-interactive: %v", err)
	}
	if cfg.Default.Bulk, err = qos.ParseLimit(bulk); err != nil {
		return cfg, fmt.Errorf("-quota-bulk: %v", err)
	}
	for _, spec := range tenants {
		name, limits, ok := strings.Cut(spec, "=")
		if !ok || name == "" {
			return cfg, fmt.Errorf("-quota-tenant %q: want name=interactive,bulk", spec)
		}
		iSpec, bSpec, _ := strings.Cut(limits, ",")
		var ll qos.LaneLimits
		if ll.Interactive, err = qos.ParseLimit(iSpec); err != nil {
			return cfg, fmt.Errorf("-quota-tenant %q: %v", spec, err)
		}
		if ll.Bulk, err = qos.ParseLimit(bSpec); err != nil {
			return cfg, fmt.Errorf("-quota-tenant %q: %v", spec, err)
		}
		if cfg.Tenants == nil {
			cfg.Tenants = map[string]qos.LaneLimits{}
		}
		cfg.Tenants[name] = ll
	}
	return cfg, nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7878", "listen address")
	nodesFlag := flag.String("nodes", "", "comma-separated serve node addresses (required)")
	seed := flag.Int64("seed", 0, "consistent-hash seed; all gateways of one cluster must agree")
	replication := flag.Int("replication", 2, "distinct owners per key (primary + failover replicas)")
	probeEvery := flag.Duration("probe-every", 2*time.Second, "active health-probe period per node")
	probeTimeout := flag.Duration("probe-timeout", time.Second, "bound on one health-probe round trip")
	failThreshold := flag.Int("fail-threshold", 3, "consecutive failures that open a node's breaker")
	cooldown := flag.Duration("cooldown", 5*time.Second, "how long an open node is skipped before a half-open trial")
	reqTimeout := flag.Duration("request-timeout", 30*time.Second, "end-to-end budget per client request across all failover attempts")
	attemptTimeout := flag.Duration("attempt-timeout", 0, "budget per single node attempt (0 = request-timeout/2)")
	metricsAddr := flag.String("metrics-addr", "", "HTTP observability address serving /metrics, /debug/events and /debug/stats (empty = disabled)")
	stateDir := flag.String("state", "", "state directory: restore placement from its ring file and persist membership changes there (empty = stateless)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "bound on draining in-flight connections at shutdown")
	quotaInteractive := flag.String("quota-interactive", "", "default per-tenant interactive-lane quota as rate[:burst] requests/s (empty = unlimited)")
	quotaBulk := flag.String("quota-bulk", "", "default per-tenant bulk-lane quota as rate[:burst] requests/s (empty = unlimited)")
	var tenantQuotas tenantQuotaFlags
	flag.Var(&tenantQuotas, "quota-tenant", "per-tenant quota override as name=interactive,bulk (each a rate[:burst] or 'unlimited'); repeatable")
	flag.Parse()

	var nodes []string
	for _, n := range strings.Split(*nodesFlag, ",") {
		if n = strings.TrimSpace(n); n != "" {
			nodes = append(nodes, n)
		}
	}
	if len(nodes) == 0 {
		fmt.Fprintln(os.Stderr, "capnn-gateway: -nodes is required (comma-separated serve addresses)")
		os.Exit(2)
	}
	admission, err := buildAdmission(*quotaInteractive, *quotaBulk, tenantQuotas)
	if err != nil {
		fmt.Fprintf(os.Stderr, "capnn-gateway: %v\n", err)
		os.Exit(2)
	}

	cfg := cluster.Config{
		Seed:           *seed,
		Replication:    *replication,
		ProbeEvery:     *probeEvery,
		ProbeTimeout:   *probeTimeout,
		FailThreshold:  *failThreshold,
		Cooldown:       *cooldown,
		RequestTimeout: *reqTimeout,
		AttemptTimeout: *attemptTimeout,
		Admission:      admission,
	}
	g, err := cluster.NewGateway(nodes, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *stateDir != "" {
		restored, err := g.UseStore(*stateDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "capnn-gateway: %v\n", err)
			os.Exit(1)
		}
		if restored {
			r := g.Ring()
			fmt.Printf("capnn-gateway: restored ring version %d (%d members, seed %d) from %s\n",
				r.Epoch(), r.Len(), r.Seed(), *stateDir)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bound := g.Serve(ln)
	r := g.Ring()
	fmt.Printf("capnn-gateway: routing %d nodes (ring v%d, replication %d, seed %d) on %s (Ctrl-C to stop)\n",
		r.Len(), r.Epoch(), *replication, *seed, bound)

	if *metricsAddr != "" {
		mux := metrics.NewMux(g.Metrics(), g.Events())
		mux.Handle("/debug/stats", metrics.JSONHandler(func() any { return g.Stats() }))
		g.MountAdmin(mux)
		maddr, stopMetrics, err := metrics.Serve(*metricsAddr, mux)
		if err != nil {
			fmt.Fprintf(os.Stderr, "capnn-gateway: metrics listener: %v\n", err)
			os.Exit(1)
		}
		defer func() { _ = stopMetrics() }()
		fmt.Printf("capnn-gateway: metrics on http://%s/metrics (index at /debug)\n", maddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	if err := g.Shutdown(*drainTimeout); err != nil {
		fmt.Fprintf(os.Stderr, "capnn-gateway: drain: %v\n", err)
	}
	metrics.DumpSummary(os.Stdout, "capnn-gateway", "final", g.Metrics())
	fmt.Println("capnn-gateway: stopped")
}
