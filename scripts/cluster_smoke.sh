#!/usr/bin/env bash
# Multi-node cluster integration test: start 3 capnn-serve shards (one
# with transport chaos) behind a capnn-gateway, drive concurrent
# multi-user load through the gateway with non-retrying clients on kept
# connections, kill -9 a shard mid-load, and assert
#   (a) zero client-visible request failures (the gateway fails the
#       dead shard's keys over to their ring replicas),
#   (b) the gateway actually recorded failovers and opened the dead
#       shard's breaker (visible via a remote stats scrape),
#   (c) the HTTP observability surface works under load: /metrics on
#       the gateway and a shard serves live Prometheus series that
#       exist and increase, and /debug/events attributes the failover,
#   (d) compiled inference is live on a surviving shard: its compiled
#       dispatch counter increases across the run with zero compile
#       errors, and compiled weights are resident under the budget.
# An elastic-scale phase stands up a fresh cluster and scales it
# 3 -> 5 -> 2 shards under sustained load via the gateway's admin
# surface, asserting zero client-visible failures, the epoch gauge
# advancing in /metrics with every membership change, and a held
# cache-hit floor while moved keys refill cold on their new owners —
# including a kill -9 of an outgoing owner, whose leave must converge
# without a single request failure.
# A bulk-flood phase stands up a fresh quota'd cluster and
# asserts the QoS contract: a flooding bulk tenant is shed with typed
# over-quota answers while interactive traffic serves inside its
# deadline budget with zero failures.
# A final drift phase replays a seeded skew-flip workload trace
# (capnn-loadgen -workload zipf -drift ...) against a fresh cluster on
# the production guard and asserts that the flip trips guards and heals
# entries with zero client-visible failures; the JSON scorecard is kept
# as an artifact (driftload.json).
# Binaries are built -race so the run doubles as a data-race hunt
# across the serve + cluster hot paths (disable with RACE=0).
#
# Usage: scripts/cluster_smoke.sh [workdir]
set -euo pipefail

WORKDIR="${1:-$(mktemp -d)}"
MODEL="${MODEL:-cifar10}"
# Each mid-load phase must still be running when its kill / join lands:
# a warm request is sub-millisecond, so a few hundred of them would end
# before the first progress poll.
REQUESTS="${REQUESTS:-3000}"
RACE="${RACE:-1}"
BUILDFLAGS=()
if [ "$RACE" = "1" ]; then
    BUILDFLAGS+=(-race)
fi

echo "cluster_smoke: workdir $WORKDIR (race=$RACE)"
go build "${BUILDFLAGS[@]}" -o "$WORKDIR/capnn-serve" ./cmd/capnn-serve
go build "${BUILDFLAGS[@]}" -o "$WORKDIR/capnn-gateway" ./cmd/capnn-gateway
go build "${BUILDFLAGS[@]}" -o "$WORKDIR/capnn-loadgen" ./cmd/capnn-loadgen

PIDS=()
cleanup() {
    for pid in "${PIDS[@]}"; do
        kill "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
}
trap cleanup EXIT

# wait_addr LOG: poll a server log for its bound address ("on HOST:PORT (").
wait_addr() {
    local log="$1" addr=""
    for _ in $(seq 300); do
        addr=$(sed -n 's/.* on \([0-9.:]*\) (Ctrl-C to stop).*/\1/p' "$log" 2>/dev/null | head -1)
        if [ -n "$addr" ]; then
            echo "$addr"
            return 0
        fi
        sleep 0.2
    done
    echo "cluster_smoke: FAIL: no bound address in $log" >&2
    return 1
}

# wait_maddr LOG: poll a server log for its metrics address
# ("metrics on http://HOST:PORT/metrics").
wait_maddr() {
    local log="$1" addr=""
    for _ in $(seq 300); do
        addr=$(sed -n 's|.* metrics on http://\([0-9.:]*\)/metrics.*|\1|p' "$log" 2>/dev/null | head -1)
        if [ -n "$addr" ]; then
            echo "$addr"
            return 0
        fi
        sleep 0.2
    done
    echo "cluster_smoke: FAIL: no metrics address in $log" >&2
    return 1
}

# metric_val NAME FILE: value of an unlabeled series in a /metrics dump.
metric_val() {
    awk -v m="$1" '$1 == m {print $2; exit}' "$2"
}

echo "cluster_smoke: phase 1 — start 3 serve shards (shard 1 with chaos) + gateway"
NODE_ADDRS=()
NODE_PIDS=()
for i in 0 1 2; do
    CHAOS=""
    if [ "$i" = "1" ]; then
        # Mild transport chaos on one shard: dropped/latency-injured
        # backend connections must be absorbed by gateway retries.
        CHAOS="seed=7,drop=0.05,latency=5ms"
    fi
    # The shard-side queue cap must be sized like the gateway budgets
    # below: on a small CI machine a shard kill queues cold prunes on
    # the replicas for far longer than the 30s production default, and
    # a too-small cap turns that backlog into busy sheds.
    MADDR=""
    if [ "$i" = "0" ]; then
        # Shard 0 exposes its observability surface for the /metrics
        # phase below.
        MADDR="127.0.0.1:0"
    fi
    "$WORKDIR/capnn-serve" -addr 127.0.0.1:0 -model "$MODEL" -no-guard \
        -request-timeout 100s \
        ${MADDR:+-metrics-addr "$MADDR"} \
        ${CHAOS:+-chaos "$CHAOS"} >"$WORKDIR/serve$i.log" 2>&1 &
    NODE_PIDS+=($!)
    PIDS+=($!)
done
for i in 0 1 2; do
    NODE_ADDRS+=("$(wait_addr "$WORKDIR/serve$i.log")")
    echo "cluster_smoke: shard $i at ${NODE_ADDRS[$i]} (pid ${NODE_PIDS[$i]})"
done

# Race-built binaries run personalization 10-20× slower (a cold prune
# is seconds, not hundreds of ms), and a shard kill forces cold prunes
# on the dead shard's replicas — so the failover budget must be sized
# for the instrumented build, not production defaults.
# Three owners per key: with two, a key owned by the killed shard and
# the chaos shard has nowhere to go when chaos black-holes a fresh
# connection (3 of 3000 requests failed that way, the same 3 at every
# Prune speed), and "zero failures" would assert luck, not failover.
"$WORKDIR/capnn-gateway" -addr 127.0.0.1:0 -metrics-addr 127.0.0.1:0 \
    -nodes "$(IFS=,; echo "${NODE_ADDRS[*]}")" -replication 3 \
    -probe-every 250ms -probe-timeout 1s -fail-threshold 2 -cooldown 2s \
    -request-timeout 120s -attempt-timeout 60s \
    >"$WORKDIR/gateway.log" 2>&1 &
GW_PID=$!
PIDS+=("$GW_PID")
GW_ADDR=$(wait_addr "$WORKDIR/gateway.log")
GW_MADDR=$(wait_maddr "$WORKDIR/gateway.log")
SERVE0_MADDR=$(wait_maddr "$WORKDIR/serve0.log")
echo "cluster_smoke: gateway at $GW_ADDR (pid $GW_PID, metrics $GW_MADDR; shard 0 metrics $SERVE0_MADDR)"

echo "cluster_smoke: phase 2 — warm every user's personalization on every shard"
# Warm each shard directly (not through the gateway, which only touches
# primaries): after the kill, failover must land on replicas whose mask
# caches already hold the dead shard's users. On a small CI machine a
# race-built cold prune takes tens of seconds, and a failover stampede
# of them would outrun any sane budget — the smoke asserts routing and
# failover, not single-core prune throughput.
for i in 0 1 2; do
    if ! "$WORKDIR/capnn-loadgen" -addr "${NODE_ADDRS[$i]}" -model "$MODEL" -n 16 -users 8 \
        -concurrency 8 -timeout 150s -progress-every 0 >"$WORKDIR/warm$i.log" 2>&1; then
        if [ "$i" = "1" ]; then
            # Shard 1 runs under transport chaos: non-retrying warm clients
            # see injected drops by design. The cache fill still lands
            # for served requests, which is all the warm needs.
            echo "cluster_smoke: note: chaos shard warm saw injected faults (expected)"
        else
            sed 's/^/  warm| /' "$WORKDIR/warm$i.log" | tail -5
            echo "cluster_smoke: FAIL: warm-up requests failed on shard $i"; exit 1
        fi
    fi
done

echo "cluster_smoke: phase 3 — drive $REQUESTS requests, kill -9 shard 2 mid-load"
"$WORKDIR/capnn-loadgen" -addr "$GW_ADDR" -model "$MODEL" -n "$REQUESTS" \
    -users 8 -concurrency 8 -timeout 150s -progress-every 25 >"$WORKDIR/load.log" 2>&1 &
LOAD_PID=$!
PIDS+=("$LOAD_PID")
# Kill once the load is demonstrably mid-flight (~1/3 through).
THIRD=$((REQUESTS / 3))
for _ in $(seq 2400); do
    if ! kill -0 "$LOAD_PID" 2>/dev/null; then
        break
    fi
    DONE=$(sed -n 's/.*progress \([0-9]*\)\/.*/\1/p' "$WORKDIR/load.log" 2>/dev/null | tail -1)
    if [ -n "${DONE:-}" ] && [ "$DONE" -ge "$THIRD" ]; then
        break
    fi
    sleep 0.05
done
# First /metrics scrape while the load is demonstrably mid-flight.
curl -sf "http://$GW_MADDR/metrics" >"$WORKDIR/gw_metrics1.txt" || {
    echo "cluster_smoke: FAIL: gateway /metrics unreachable mid-load"; exit 1; }
curl -sf "http://$SERVE0_MADDR/metrics" >"$WORKDIR/serve0_metrics1.txt" || {
    echo "cluster_smoke: FAIL: shard 0 /metrics unreachable mid-load"; exit 1; }
kill -9 "${NODE_PIDS[2]}" 2>/dev/null || true
echo "cluster_smoke: killed shard 2 (pid ${NODE_PIDS[2]}) mid-load"

if ! wait "$LOAD_PID"; then
    sed 's/^/  load| /' "$WORKDIR/load.log" | tail -8
    echo "cluster_smoke: FAIL: client-visible failures after shard kill"
    exit 1
fi
sed 's/^/  load| /' "$WORKDIR/load.log" | tail -3
grep -q ", 0 failed" "$WORKDIR/load.log" || {
    echo "cluster_smoke: FAIL: loadgen reported failures"; exit 1; }

echo "cluster_smoke: phase 4 — observability surface: /metrics series exist and increase"
curl -sf "http://$GW_MADDR/metrics" >"$WORKDIR/gw_metrics2.txt" || {
    echo "cluster_smoke: FAIL: gateway /metrics unreachable after load"; exit 1; }
curl -sf "http://$SERVE0_MADDR/metrics" >"$WORKDIR/serve0_metrics2.txt" || {
    echo "cluster_smoke: FAIL: shard 0 /metrics unreachable after load"; exit 1; }
GW_REQ1=$(metric_val capnn_gateway_requests_total "$WORKDIR/gw_metrics1.txt")
GW_REQ2=$(metric_val capnn_gateway_requests_total "$WORKDIR/gw_metrics2.txt")
[ -n "$GW_REQ1" ] && [ -n "$GW_REQ2" ] || {
    echo "cluster_smoke: FAIL: capnn_gateway_requests_total missing from /metrics"; exit 1; }
[ "$GW_REQ2" -gt "$GW_REQ1" ] || {
    echo "cluster_smoke: FAIL: capnn_gateway_requests_total did not increase ($GW_REQ1 -> $GW_REQ2)"; exit 1; }
SRV_REQ=$(metric_val capnn_serve_requests_total "$WORKDIR/serve0_metrics1.txt")
[ -n "$SRV_REQ" ] && [ "$SRV_REQ" -gt 0 ] || {
    echo "cluster_smoke: FAIL: capnn_serve_requests_total missing or zero on shard 0"; exit 1; }
# Shed-reason series are pre-seeded: they must exist on a scrape even
# before the first shed.
grep -q 'capnn_gateway_shed_total{reason="over-quota"}' "$WORKDIR/gw_metrics1.txt" || {
    echo "cluster_smoke: FAIL: gateway shed-reason series not pre-seeded"; exit 1; }
grep -q 'capnn_serve_shed_total{reason="queue-full"}' "$WORKDIR/serve0_metrics1.txt" || {
    echo "cluster_smoke: FAIL: serve shed-reason series not pre-seeded"; exit 1; }
grep -q 'capnn_serve_forward_latency_ns_bucket' "$WORKDIR/serve0_metrics2.txt" || {
    echo "cluster_smoke: FAIL: serve latency histogram missing from /metrics"; exit 1; }
# The shard kill must be attributable: a failover event in the
# gateway's structured event log, and /debug/cluster must answer.
curl -sf "http://$GW_MADDR/debug/events" >"$WORKDIR/gw_events.json" || {
    echo "cluster_smoke: FAIL: gateway /debug/events unreachable"; exit 1; }
grep -q '"failover"' "$WORKDIR/gw_events.json" || {
    echo "cluster_smoke: FAIL: no failover event recorded after the shard kill"; exit 1; }
curl -sf "http://$GW_MADDR/debug/cluster" >"$WORKDIR/gw_cluster.json" || {
    echo "cluster_smoke: FAIL: gateway /debug/cluster unreachable"; exit 1; }
grep -q '"ring_version"' "$WORKDIR/gw_cluster.json" || {
    echo "cluster_smoke: FAIL: /debug/cluster missing ring_version"; exit 1; }
# Compiled inference must be live on the surviving shard 0. Plans are
# built inside the cache fill, so one direct round at it (its mask cache
# is warm from phase 2) has to land on the compiled path at once, with
# zero compile errors and compiled weights resident.
CD1=$(metric_val capnn_serve_compiled_dispatch_total "$WORKDIR/serve0_metrics2.txt")
"$WORKDIR/capnn-loadgen" -addr "${NODE_ADDRS[0]}" -model "$MODEL" -n 8 -users 4 \
    -concurrency 4 -timeout 150s -progress-every 0 >"$WORKDIR/compiled.log" 2>&1 || true
curl -sf "http://$SERVE0_MADDR/metrics" >"$WORKDIR/serve0_metrics3.txt" || {
    echo "cluster_smoke: FAIL: shard 0 /metrics unreachable after the direct round"; exit 1; }
CD2=$(metric_val capnn_serve_compiled_dispatch_total "$WORKDIR/serve0_metrics3.txt")
CE2=$(metric_val capnn_serve_compile_errors_total "$WORKDIR/serve0_metrics3.txt")
CB=$(metric_val capnn_serve_compiled_bytes "$WORKDIR/serve0_metrics3.txt")
[ -n "$CD1" ] && [ -n "$CD2" ] && [ "$CD2" -gt "$CD1" ] && [ "$CE2" = "0" ] && [ -n "$CB" ] && [ "$CB" -gt 0 ] || {
    echo "cluster_smoke: FAIL: shard 0 compiled inference not live (compiled dispatch ${CD1:-missing} -> ${CD2:-missing}, compile errors ${CE2:-missing}, compiled bytes ${CB:-missing})"; exit 1; }
echo "cluster_smoke: /metrics ok (gateway requests $GW_REQ1 -> $GW_REQ2, shard 0 requests $SRV_REQ, compiled dispatch $CD1 -> $CD2, $CB compiled bytes)"

echo "cluster_smoke: phase 5 — scrape gateway stats, expect failovers and an open breaker"
"$WORKDIR/capnn-loadgen" -addr "$GW_ADDR" -scrape >"$WORKDIR/stats.log" 2>&1
sed 's/^/  stats| /' "$WORKDIR/stats.log"
grep -Eq "failovers=[1-9]" "$WORKDIR/stats.log" || {
    echo "cluster_smoke: FAIL: gateway recorded no failovers after a shard died"; exit 1; }
grep -q "state=open" "$WORKDIR/stats.log" || {
    echo "cluster_smoke: FAIL: dead shard's breaker never opened"; exit 1; }

echo "cluster_smoke: phase 6 — elastic scale: 3 -> 5 -> 2 shards under sustained load"
# A fresh cluster reshapes itself while a client drives load through
# the gateway the whole time. The elasticity contract:
#   - every membership change advances the epoch gauge in /metrics,
#   - a key whose owner changes costs one personalization on its new
#     owner and never a request error, holding the cache-hit floor:
#     each key is personalized at most once per survivor,
#   - a kill -9 of an outgoing owner leaves its keys to refill cold on
#     the survivors — the epoch still flips and the client never sees
#     a failure.
# The shards run the production config, ε-guard on, and the load is a
# stationary zipf trace (every request drawn from the preferences it
# claims), so no entry — filled or refilled — may trip or heal: the
# personalization count is the fills alone.
E_TRACE=(-workload zipf -users 8 -seed 1)
E_NODE_ADDRS=(); E_NODE_MADDRS=(); E_NODE_PIDS=()
for i in 0 1 2 3 4; do
    "$WORKDIR/capnn-serve" -addr 127.0.0.1:0 -model "$MODEL" \
        -request-timeout 100s -metrics-addr 127.0.0.1:0 \
        >"$WORKDIR/eserve$i.log" 2>&1 &
    E_NODE_PIDS+=($!)
    PIDS+=($!)
done
for i in 0 1 2 3 4; do
    E_NODE_ADDRS+=("$(wait_addr "$WORKDIR/eserve$i.log")")
    E_NODE_MADDRS+=("$(wait_maddr "$WORKDIR/eserve$i.log")")
done
"$WORKDIR/capnn-gateway" -addr 127.0.0.1:0 -metrics-addr 127.0.0.1:0 \
    -nodes "${E_NODE_ADDRS[0]},${E_NODE_ADDRS[1]},${E_NODE_ADDRS[2]}" \
    -probe-every 250ms -probe-timeout 1s -fail-threshold 2 -cooldown 2s \
    -request-timeout 120s -attempt-timeout 60s \
    >"$WORKDIR/egateway.log" 2>&1 &
PIDS+=($!)
EGW_ADDR=$(wait_addr "$WORKDIR/egateway.log")
EGW_MADDR=$(wait_maddr "$WORKDIR/egateway.log")
echo "cluster_smoke: elastic gateway at $EGW_ADDR (metrics $EGW_MADDR), members ${E_NODE_ADDRS[0]} ${E_NODE_ADDRS[1]} ${E_NODE_ADDRS[2]}"

# Warm through the gateway: each key's personalization runs exactly
# once, on its primary.
"$WORKDIR/capnn-loadgen" -addr "$EGW_ADDR" -model "$MODEL" -n 64 "${E_TRACE[@]}" \
    -concurrency 8 -timeout 150s -progress-every 0 >"$WORKDIR/ewarm.log" 2>&1 || {
    sed 's/^/  ewarm| /' "$WORKDIR/ewarm.log" | tail -5
    echo "cluster_smoke: FAIL: elastic-cluster warm-up failed"; exit 1; }
curl -sf "http://$EGW_MADDR/metrics" >"$WORKDIR/egw_metrics1.txt" || {
    echo "cluster_smoke: FAIL: elastic gateway /metrics unreachable"; exit 1; }
EPOCH1=$(metric_val capnn_gateway_ring_epoch "$WORKDIR/egw_metrics1.txt")
[ "${EPOCH1:-missing}" = "1" ] || {
    echo "cluster_smoke: FAIL: fresh ring epoch gauge is ${EPOCH1:-missing}, want 1"; exit 1; }

"$WORKDIR/capnn-loadgen" -addr "$EGW_ADDR" -model "$MODEL" -n "$REQUESTS" \
    "${E_TRACE[@]}" -concurrency 8 -timeout 150s -progress-every 25 >"$WORKDIR/eload.log" 2>&1 &
ELOAD_PID=$!
PIDS+=("$ELOAD_PID")
# Let the load get demonstrably airborne before reshaping the cluster.
for _ in $(seq 300); do
    grep -q "progress" "$WORKDIR/eload.log" 2>/dev/null && break
    kill -0 "$ELOAD_PID" 2>/dev/null || break
    sleep 0.1
done

# Scale out 3 -> 5: each admin join preflight-probes the joiner, flips
# the epoch, and broadcasts the new ring to every shard's fence.
for i in 3 4; do
    curl -sf -X POST "http://$EGW_MADDR/admin/ring/join?node=${E_NODE_ADDRS[$i]}" \
        >"$WORKDIR/ejoin$i.json" || {
        echo "cluster_smoke: FAIL: admin join of shard $i refused"; exit 1; }
done
curl -sf "http://$EGW_MADDR/metrics" >"$WORKDIR/egw_metrics2.txt" || {
    echo "cluster_smoke: FAIL: elastic gateway /metrics unreachable after joins"; exit 1; }
EPOCH2=$(metric_val capnn_gateway_ring_epoch "$WORKDIR/egw_metrics2.txt")
[ "${EPOCH2:-0}" = "3" ] || {
    echo "cluster_smoke: FAIL: epoch gauge after two joins is ${EPOCH2:-missing}, want 3"; exit 1; }
echo "cluster_smoke: scaled 3 -> 5 (epoch $EPOCH2)"

# Scale in 5 -> 2. The first leave is the chaos case: kill -9 the
# outgoing owner first — the leave never contacts it, so it must still
# converge (epoch flipped, its keys refill cold on the survivors) with
# zero client-visible failures.
kill -9 "${E_NODE_PIDS[3]}" 2>/dev/null || true
echo "cluster_smoke: killed joiner shard 3 (pid ${E_NODE_PIDS[3]}) before its leave"
curl -sf -X POST "http://$EGW_MADDR/admin/ring/leave?node=${E_NODE_ADDRS[3]}" >/dev/null || {
    echo "cluster_smoke: FAIL: leave of the killed shard did not converge"; exit 1; }
for i in 4 1; do
    curl -sf -X POST "http://$EGW_MADDR/admin/ring/leave?node=${E_NODE_ADDRS[$i]}" >/dev/null || {
        echo "cluster_smoke: FAIL: admin leave of shard $i refused"; exit 1; }
done

if ! wait "$ELOAD_PID"; then
    sed 's/^/  eload| /' "$WORKDIR/eload.log" | tail -8
    echo "cluster_smoke: FAIL: client-visible failures while scaling 3 -> 5 -> 2"
    exit 1
fi
sed 's/^/  eload| /' "$WORKDIR/eload.log" | tail -3
grep -q ", 0 failed" "$WORKDIR/eload.log" || {
    echo "cluster_smoke: FAIL: loadgen reported failures during elastic scaling"; exit 1; }

# Post-scale burst: the two survivors now own the whole keyspace.
"$WORKDIR/capnn-loadgen" -addr "$EGW_ADDR" -model "$MODEL" -n 64 "${E_TRACE[@]}" \
    -concurrency 8 -timeout 150s -progress-every 0 >"$WORKDIR/epost.log" 2>&1 || {
    sed 's/^/  epost| /' "$WORKDIR/epost.log" | tail -5
    echo "cluster_smoke: FAIL: requests failed after scale-in to 2 shards"; exit 1; }

curl -sf "http://$EGW_MADDR/metrics" >"$WORKDIR/egw_metrics3.txt" || {
    echo "cluster_smoke: FAIL: elastic gateway /metrics unreachable after scale-in"; exit 1; }
EPOCH3=$(metric_val capnn_gateway_ring_epoch "$WORKDIR/egw_metrics3.txt")
[ "${EPOCH3:-0}" = "6" ] || {
    echo "cluster_smoke: FAIL: final epoch gauge is ${EPOCH3:-missing}, want 6 (2 joins + 3 leaves)"; exit 1; }
curl -sf "http://$EGW_MADDR/debug/events" >"$WORKDIR/egw_events.json" || {
    echo "cluster_smoke: FAIL: elastic gateway /debug/events unreachable"; exit 1; }
grep -q '"ring-changed"' "$WORKDIR/egw_events.json" || {
    echo "cluster_smoke: FAIL: no ring-changed events in /debug/events"; exit 1; }

# Cache-hit floor: a key personalizes at most once per shard (entries
# are never dropped below the cap), so across both survivors misses
# stay <= 16 — and hits must dominate despite five topology changes.
HITS=0; MISSES=0; E_TRIPS=0; E_HEALS=0
for i in 0 2; do
    curl -sf "http://${E_NODE_MADDRS[$i]}/metrics" >"$WORKDIR/eserve${i}_final.txt" || {
        echo "cluster_smoke: FAIL: survivor shard $i /metrics unreachable"; exit 1; }
    HITS=$((HITS + $(metric_val capnn_serve_cache_hits_total "$WORKDIR/eserve${i}_final.txt")))
    MISSES=$((MISSES + $(metric_val capnn_serve_cache_misses_total "$WORKDIR/eserve${i}_final.txt")))
    E_TRIPS=$((E_TRIPS + $(metric_val capnn_serve_guard_trips_total "$WORKDIR/eserve${i}_final.txt")))
    E_HEALS=$((E_HEALS + $(metric_val capnn_serve_heals_total "$WORKDIR/eserve${i}_final.txt")))
done
[ "$E_TRIPS" -eq 0 ] && [ "$E_HEALS" -eq 0 ] || {
    echo "cluster_smoke: FAIL: stationary load tripped $E_TRIPS guards and healed $E_HEALS entries on the survivors"; exit 1; }
[ "$MISSES" -le 16 ] || {
    echo "cluster_smoke: FAIL: survivors personalized $MISSES times (cache-hit floor broken; want <= 16)"; exit 1; }
[ $((HITS * 2)) -ge $((HITS + MISSES)) ] || {
    echo "cluster_smoke: FAIL: survivor hit ratio under 50% (hits=$HITS misses=$MISSES)"; exit 1; }
echo "cluster_smoke: elastic scaling ok (epoch 1 -> $EPOCH3, survivor hits=$HITS misses=$MISSES)"

echo "cluster_smoke: phase 7 — bulk flood: quota'd bulk tenant saturates 3 fresh shards"
# A bulk tenant floods a fresh 3-shard cluster through a gateway whose
# bulk lane is quota'd to a near-zero refill (burst 10, 0.01/s), while
# interactive traffic rides along with a real deadline budget. The QoS
# contract under flood: every interactive request serves inside its
# budget (no expired sheds, no failures), the bulk overflow is shed with
# the typed retryable over-quota code (not errors), and the gateway's
# scrape attributes the sheds to the bulk tenant's stream.
Q_NODE_ADDRS=()
for i in 0 1 2; do
    "$WORKDIR/capnn-serve" -addr 127.0.0.1:0 -model "$MODEL" -no-guard \
        -request-timeout 100s >"$WORKDIR/qserve$i.log" 2>&1 &
    PIDS+=($!)
done
for i in 0 1 2; do
    Q_NODE_ADDRS+=("$(wait_addr "$WORKDIR/qserve$i.log")")
done
"$WORKDIR/capnn-gateway" -addr 127.0.0.1:0 \
    -nodes "$(IFS=,; echo "${Q_NODE_ADDRS[*]}")" \
    -quota-bulk 0.01:10 \
    -probe-every 250ms -probe-timeout 1s -fail-threshold 2 -cooldown 2s \
    -request-timeout 120s -attempt-timeout 60s \
    >"$WORKDIR/qgateway.log" 2>&1 &
PIDS+=($!)
QGW_ADDR=$(wait_addr "$WORKDIR/qgateway.log")
echo "cluster_smoke: quota gateway at $QGW_ADDR (shards ${Q_NODE_ADDRS[*]})"

# Warm every user's primary shard on the unlimited interactive lane so
# the flood phase measures queueing, not cold personalization.
"$WORKDIR/capnn-loadgen" -addr "$QGW_ADDR" -model "$MODEL" -n 16 -users 8 \
    -concurrency 8 -timeout 150s -progress-every 0 >"$WORKDIR/qwarm.log" 2>&1 || {
    sed 's/^/  qwarm| /' "$WORKDIR/qwarm.log" | tail -5
    echo "cluster_smoke: FAIL: quota-cluster warm-up failed"; exit 1; }

# 70% bulk under tenant "batch", 30% interactive with a 120s budget
# (race-built shards are slow; the budget asserts bounded waiting, not
# production latency). Typed sheds are soft, so exit status only trips
# on real errors.
if ! "$WORKDIR/capnn-loadgen" -addr "$QGW_ADDR" -model "$MODEL" -n "$REQUESTS" \
    -users 8 -concurrency 8 -timeout 150s -progress-every 25 -json \
    -bulk-frac 0.7 -bulk-tenant batch -budget 120s >"$WORKDIR/qload.log" 2>&1; then
    sed 's/^/  qload| /' "$WORKDIR/qload.log" | tail -8
    echo "cluster_smoke: FAIL: hard failures during bulk flood"
    exit 1
fi
sed 's/^/  qload| /' "$WORKDIR/qload.log" | tail -3
grep -Eq "lane interactive: sent=[0-9]+ ok=[0-9]+ shed=0 \(over-quota=0 expired=0\) failed=0" "$WORKDIR/qload.log" || {
    echo "cluster_smoke: FAIL: interactive lane was shed or failed under bulk flood"; exit 1; }
grep -Eq "lane bulk: .*over-quota=[1-9]" "$WORKDIR/qload.log" || {
    echo "cluster_smoke: FAIL: bulk flood was never shed over-quota"; exit 1; }
grep -q ", 0 failed" "$WORKDIR/qload.log" || {
    echo "cluster_smoke: FAIL: bulk flood produced client-visible failures"; exit 1; }
# The flood ran with -json: the machine-readable summary must be on
# stdout alongside the stderr human lines.
grep -q '"qps"' "$WORKDIR/qload.log" || {
    echo "cluster_smoke: FAIL: loadgen -json summary missing"; exit 1; }

"$WORKDIR/capnn-loadgen" -addr "$QGW_ADDR" -scrape >"$WORKDIR/qstats.log" 2>&1
sed 's/^/  qstats| /' "$WORKDIR/qstats.log"
grep -Eq "over-quota=[1-9]" "$WORKDIR/qstats.log" || {
    echo "cluster_smoke: FAIL: gateway counted no over-quota sheds"; exit 1; }
grep -q "tenant batch/bulk" "$WORKDIR/qstats.log" || {
    echo "cluster_smoke: FAIL: gateway stats missing the bulk tenant's stream"; exit 1; }

echo "cluster_smoke: phase 8 — drift: seeded skew-flip trace through a guarded cluster"
# The trace: 6 zipf users over 10 classes whose behaviour flips every
# 400 events while the preferences they claim lag 200 events behind —
# every user spends half of each epoch sending off-preference traffic
# under a stale key, the window the ε-guard exists to catch. The guard
# runs its production judgement; only its sampling is sized to the short
# run (every 2nd request shadowed, a 48-deep window), so a flipped entry
# shows its drift within a few dozen requests. The contract: the flip
# trips guards and heals entries, and no client sees a failure.
DRIFT_TRACE=(-workload zipf -users 6 -seed 7 -drift "flip=400,lag=200" -n 1600)
D_ADDRS=(); D_MADDRS=()
for i in 0 1 2; do
    "$WORKDIR/capnn-serve" -addr 127.0.0.1:0 -model "$MODEL" \
        -request-timeout 100s -metrics-addr 127.0.0.1:0 \
        -guard-sample-every 2 -guard-window 48 >"$WORKDIR/dserve$i.log" 2>&1 &
    PIDS+=($!)
done
for i in 0 1 2; do
    D_ADDRS+=("$(wait_addr "$WORKDIR/dserve$i.log")")
    D_MADDRS+=("$(wait_maddr "$WORKDIR/dserve$i.log")")
done
"$WORKDIR/capnn-gateway" -addr 127.0.0.1:0 \
    -nodes "$(IFS=,; echo "${D_ADDRS[*]}")" \
    -probe-every 250ms -probe-timeout 1s -fail-threshold 2 -cooldown 2s \
    -request-timeout 120s -attempt-timeout 60s \
    >"$WORKDIR/dgateway.log" 2>&1 &
PIDS+=($!)
DGW_ADDR=$(wait_addr "$WORKDIR/dgateway.log")
echo "cluster_smoke: drift cluster at $DGW_ADDR, shards ${D_ADDRS[*]}"

if ! "$WORKDIR/capnn-loadgen" -addr "$DGW_ADDR" -model "$MODEL" "${DRIFT_TRACE[@]}" \
    -concurrency 8 -timeout 150s -progress-every 200 -json \
    >"$WORKDIR/driftload.json" 2>"$WORKDIR/driftload.log"; then
    sed 's/^/  drift| /' "$WORKDIR/driftload.log" | tail -8
    echo "cluster_smoke: FAIL: client-visible failures replaying the drift trace"
    exit 1
fi
grep -q ", 0 failed" "$WORKDIR/driftload.log" || {
    echo "cluster_smoke: FAIL: drift replay reported failures"; exit 1; }

# Sum the guard/heal accounting across the three shards; a heal is a
# goroutine running a Prune, so give the last trip a moment to land.
for _ in $(seq 50); do
    D_TRIPS=0; D_HEALS=0; D_FALLBACK=0
    for i in 0 1 2; do
        curl -sf "http://${D_MADDRS[$i]}/metrics" >"$WORKDIR/dserve${i}_metrics.txt" || {
            echo "cluster_smoke: FAIL: drift shard $i /metrics unreachable"; exit 1; }
        D_TRIPS=$((D_TRIPS + $(metric_val capnn_serve_guard_trips_total "$WORKDIR/dserve${i}_metrics.txt")))
        D_HEALS=$((D_HEALS + $(metric_val capnn_serve_heals_total "$WORKDIR/dserve${i}_metrics.txt")))
        D_FALLBACK=$((D_FALLBACK + $(metric_val capnn_serve_fallback_served_total "$WORKDIR/dserve${i}_metrics.txt")))
    done
    [ "$D_HEALS" -ge "$D_TRIPS" ] && break
    sleep 0.2
done
echo "cluster_smoke: drift: guard trips=$D_TRIPS heals=$D_HEALS fallback-served=$D_FALLBACK"
[ "$D_TRIPS" -ge 1 ] || {
    echo "cluster_smoke: FAIL: the flip trace never tripped a guard"; exit 1; }
[ "$D_HEALS" -ge 1 ] || {
    echo "cluster_smoke: FAIL: the flip trace tripped $D_TRIPS guards but healed none"; exit 1; }
# Why each entry healed is on the debug surface: the trip event carries
# the observed and predicted shares with their bounds.
curl -sf "http://${D_MADDRS[0]}/debug/events" >"$WORKDIR/dserve0_events.json" || true
curl -sf "http://${D_MADDRS[1]}/debug/events" >"$WORKDIR/dserve1_events.json" || true
curl -sf "http://${D_MADDRS[2]}/debug/events" >"$WORKDIR/dserve2_events.json" || true
grep -qh "predicted by the confusion rows" "$WORKDIR"/dserve?_events.json || {
    echo "cluster_smoke: FAIL: no guard-trip event carries its evidence in /debug/events"; exit 1; }
echo "cluster_smoke: drift ok (scorecard in driftload.json)"

# The race-built binaries must not have tripped the detector anywhere.
if [ "$RACE" = "1" ] && grep -l "WARNING: DATA RACE" "$WORKDIR"/*.log >/dev/null 2>&1; then
    grep -A 20 "WARNING: DATA RACE" "$WORKDIR"/*.log | head -40
    echo "cluster_smoke: FAIL: data race detected"
    exit 1
fi

echo "cluster_smoke: PASS"
