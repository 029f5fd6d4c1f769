package cluster

import (
	"fmt"
	"time"

	"capnn/internal/breaker"
	"capnn/internal/metrics"
)

// Stats is a point-in-time snapshot of a Gateway's routing metrics, read
// off the registry's instruments; capnn-gateway's /debug/stats serves it
// as JSON. Counters are cumulative since the gateway started.
type Stats struct {
	// RingVersion is the current membership version; Members the
	// current serve-node set (sorted).
	RingVersion uint64
	Members     []string

	// Requests counts client requests admitted for routing; Completed
	// the subset answered with CodeOK; Errors the subset that exhausted
	// every attempt; Shed the requests the gateway rejected before
	// routing, broken down by reason: draining (untyped remainder),
	// ShedOverQuota (tenant token bucket empty, CodeOverQuota),
	// ShedExpired (deadline budget already spent on arrival or during
	// failover, CodeExpired).
	Requests, Completed, Errors, Shed uint64
	ShedOverQuota, ShedExpired        uint64

	// Retries counts extra attempts after the first (same node redial
	// or replica), Failovers the subset that moved to a different node,
	// and WrongOwner the node-rejected attempts (CodeWrongOwner /
	// CodeRingChanged) that forced a re-route on a fresh ring.
	Retries, Failovers, WrongOwner uint64

	// Tenants maps "tenant/lane" to that stream's admission outcomes —
	// the multi-tenant fairness view: which tenant is consuming quota
	// and which is being shed.
	Tenants map[string]TenantStats

	// Nodes holds per-node routing and health-probe metrics.
	Nodes map[string]NodeStats
}

// TenantStats is one (tenant, lane) stream's admission counters.
type TenantStats struct {
	// Admitted counts requests that passed the token bucket;
	// ShedOverQuota the requests it refused.
	Admitted, ShedOverQuota uint64
}

// NodeStats is one serve node as the gateway sees it.
type NodeStats struct {
	// State is the node's breaker state: closed (routable), open
	// (failed out), half-open (one trial in flight).
	State breaker.State
	// Requests counts routed attempts to this node; Failures the
	// attempts (routed or probe) that failed.
	Requests, Failures uint64
	// Probes / ProbeFailures count active health probes; LastProbe is
	// the most recent successful probe's round trip, ProbeLatNs /
	// ProbeSamples the sum and count of successful probe RTTs.
	Probes, ProbeFailures uint64
	LastProbe             time.Duration
	ProbeLatNs            int64
	ProbeSamples          uint64
	// Opens/Closes/HalfOpens count breaker transitions.
	Opens, Closes, HalfOpens uint64
}

// Gateway shed reason labels.
const (
	gwShedDraining  = "draining"
	gwShedOverQuota = "over-quota"
	gwShedExpired   = "expired"
)

// gstats is the live accumulator behind Stats snapshots. Like the serve
// tier's stats it publishes straight into registry instruments, so a
// Stats snapshot (/debug/stats) and a /metrics scrape always agree. Per-node counters live in each nodeHealth and are
// exposed through a gather-time collector.
type gstats struct {
	reqC, compC, errC              *metrics.Counter
	shedVec                        *metrics.CounterVec
	retryC, failoverC, wrongOwnerC *metrics.Counter
	tenantAdmitVec, tenantShedVec  *metrics.CounterVec

	events *metrics.EventLog
}

func newGstats(reg *metrics.Registry, events *metrics.EventLog) *gstats {
	st := &gstats{
		reqC:    reg.Counter("capnn_gateway_requests_total", "Client requests admitted for routing."),
		compC:   reg.Counter("capnn_gateway_completed_total", "Requests answered with CodeOK."),
		errC:    reg.Counter("capnn_gateway_errors_total", "Requests that exhausted every attempt."),
		shedVec: reg.CounterVec("capnn_gateway_shed_total", "Requests rejected before or during routing, by reason.", "reason"),

		retryC:      reg.Counter("capnn_gateway_retries_total", "Extra attempts after the first."),
		failoverC:   reg.Counter("capnn_gateway_failovers_total", "Retries that moved to a different node."),
		wrongOwnerC: reg.Counter("capnn_gateway_wrong_owner_total", "Node-rejected attempts (wrong owner / ring changed)."),

		tenantAdmitVec: reg.CounterVec("capnn_gateway_tenant_admitted_total", "Requests that passed a tenant's token bucket.", "tenant", "lane"),
		tenantShedVec:  reg.CounterVec("capnn_gateway_tenant_shed_total", "Requests a tenant's token bucket refused.", "tenant", "lane"),

		events: events,
	}
	// Pre-seed the shed reasons so the series exist before the first
	// shed (the cluster smoke test greps a mid-load scrape for them).
	for _, reason := range []string{gwShedDraining, gwShedOverQuota, gwShedExpired} {
		st.shedVec.With(reason)
	}
	return st
}

func (st *gstats) admitted()   { st.reqC.Inc() }
func (st *gstats) completed()  { st.compC.Inc() }
func (st *gstats) errored()    { st.errC.Inc() }
func (st *gstats) retried()    { st.retryC.Inc() }
func (st *gstats) wrongOwner() { st.wrongOwnerC.Inc() }

// ringChanged records an epoch flip as a structured event ("join",
// "leave", "restore").
func (st *gstats) ringChanged(reason, addr string, next *Ring) {
	st.events.Record("ring-changed", addr,
		fmt.Sprintf("%s: epoch %d, %d members", reason, next.Epoch(), next.Len()))
}

func (st *gstats) failedOver(addr string) {
	st.failoverC.Inc()
	st.events.Record("failover", addr, "attempt failed, moved to next replica")
}

func (st *gstats) shedReq() {
	st.shedVec.With(gwShedDraining).Inc()
	st.events.Record("shed", "", gwShedDraining)
}

func (st *gstats) shedExpired() {
	st.shedVec.With(gwShedExpired).Inc()
	st.events.Record("shed", "", gwShedExpired)
}

// tenantAdmitted / tenantShed record one (tenant, lane) admission
// outcome; the shed path also bumps the gateway-wide over-quota series.
func (st *gstats) tenantAdmitted(tenant, lane string) {
	st.tenantAdmitVec.With(tenant, lane).Inc()
}

func (st *gstats) tenantShed(tenant, lane string) {
	st.shedVec.With(gwShedOverQuota).Inc()
	st.tenantShedVec.With(tenant, lane).Inc()
	st.events.Record("shed", tenant+"/"+lane, gwShedOverQuota)
}

func (st *gstats) snapshot() Stats {
	out := Stats{
		Requests:  st.reqC.Value(),
		Completed: st.compC.Value(),
		Errors:    st.errC.Value(),

		ShedOverQuota: st.shedVec.With(gwShedOverQuota).Value(),
		ShedExpired:   st.shedVec.With(gwShedExpired).Value(),

		Retries:    st.retryC.Value(),
		Failovers:  st.failoverC.Value(),
		WrongOwner: st.wrongOwnerC.Value(),

		Tenants: map[string]TenantStats{},
	}
	out.Shed = st.shedVec.With(gwShedDraining).Value() + out.ShedOverQuota + out.ShedExpired
	st.tenantAdmitVec.Each(func(values []string, n uint64) {
		key := values[0] + "/" + values[1]
		ts := out.Tenants[key]
		ts.Admitted = n
		out.Tenants[key] = ts
	})
	st.tenantShedVec.Each(func(values []string, n uint64) {
		key := values[0] + "/" + values[1]
		ts := out.Tenants[key]
		ts.ShedOverQuota = n
		out.Tenants[key] = ts
	})
	return out
}
