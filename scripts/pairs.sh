#!/usr/bin/env bash
# Paired parent/change runs of the repository's benchmark, written to
# BENCH_PR<n>.json at the root. A performance claim is judged on pairs,
# never on single runs: the host has slow phases that move every metric,
# so each pair runs both sides back to back on one seed, and the side
# that goes first alternates from pair to pair.
#
# Usage: scripts/pairs.sh <parent-rev> <n> [workload[=pairs] ...]
#
# The parent is exported with `git archive` into a temporary directory,
# removed on exit; the change is this checkout's working tree. Each side
# runs its own tree's
#
#	bash benchmark/run.sh --workload W --seed N --seconds 20 --trace 0
#
# for seeds 1..pairs (default: every BENCHMARK.json workload, 10 pairs).
# Then each side's own `go test -c` binaries run the rows named in
# benchrows below, 10 alternating pairs: internal/nn's BenchmarkKernels
# rows at `-test.benchtime 2000x`, on the highest rung of the dispatch
# ladder both sides report (avx512, avx2, generic), and the root
# module's BenchmarkPruneM (50x), BenchmarkTrainStep/workers-2 (20x) and
# served rows (5000x).
# The file holds the host's CPU model and nproc, both revisions, and per
# workload and BENCHMARK.json end-to-end metric both sides' runs in seed
# order, their medians and quartiles, the median per-pair ratio
# change/parent, the pairs the change won and scripts/verdict.jq's
# verdict (gain, unresolved, regression or flat); per run, `correct` and
# `failed`; and the same, without a verdict, for each benchmark row's
# ns/op under "bench". It exits non-zero if any run failed or was not
# correct.
# Needs bash, go and jq.
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: scripts/pairs.sh <parent-rev> <n> [workload[=pairs] ...]" >&2
	exit 2
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
parent="$(git rev-parse --verify "$1^{commit}")"
change="$(git describe --always --dirty --abbrev=40)"
out="$root/BENCH_PR$2.json"
shift 2
specs=("$@")
if [ ${#specs[@]} -eq 0 ]; then
	mapfile -t specs < <(jq -r '.workloads[].name' BENCHMARK.json)
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git archive "$parent" | tar -x -C "$tmp/parent"

# side <dir> <workload> <seed> prints the result line of one run, or a
# failed stand-in when the run printed none.
side() {
	local line
	line="$( (cd "$1" && bash benchmark/run.sh --workload "$2" --seed "$3" --seconds 20 --trace 0 2>/dev/null) | tail -n 1)" || true
	if jq -e 'has("metrics")' <<<"$line" >/dev/null 2>&1; then
		echo "$line"
	else
		echo '{"correct": false, "failed": -1, "metrics": {}}'
	fi
}

for spec in "${specs[@]}"; do
	w="${spec%%=*}" pairs=10
	if [ "$spec" != "$w" ]; then pairs="${spec#*=}"; fi
	for seed in $(seq 1 "$pairs"); do
		order="parent change"
		if [ $((seed % 2)) -eq 0 ]; then order="change parent"; fi
		for s in $order; do
			dir="$root"
			if [ "$s" = parent ]; then dir="$tmp/parent"; fi
			res="$(side "$dir" "$w" "$seed")"
			jq -c --arg w "$w" --argjson seed "$seed" --arg side "$s" --arg first "${order%% *}" \
				'{workload: $w, seed: $seed, side: $side, first: $first, correct, failed, metrics}' <<<"$res" >>"$tmp/runs.jsonl"
			echo "pairs: $w seed $seed $s $(jq -c '{correct, failed, setup_s: .metrics.setup_s.value, req_per_s: .metrics.req_per_s.value}' <<<"$res")" >&2
		done
	done
done

# The forward of a served plan and of the unpruned one, per request, on
# every rung (the regex matches level by level); then one Algorithm M
# search, one data-parallel training step on two workers, and a warm
# request in process, to one shard and through a gateway — a fill or hop
# change gets a per-layer row here.
benchrows=(plan-M/sum/forward plan-0/sum/forward PruneM TrainStep/workers-2 ServeThroughput/serve GatewayRouting/direct-serve GatewayRouting/via-gateway)
regex='^BenchmarkKernels$/^plan-(M|0)$/^sum$/^forward$'
served='^Benchmark(ServeThroughput|GatewayRouting)$/^(serve|direct-serve|via-gateway)$'
for s in parent change; do
	dir="$root"
	if [ "$s" = parent ]; then dir="$tmp/parent"; fi
	(cd "$dir" && GOCACHE="$dir/.bench_build/gocache" GOTOOLCHAIN=local go test -c -o "$tmp/$s.nn.test" ./internal/nn &&
		GOCACHE="$dir/.bench_build/gocache" GOTOOLCHAIN=local go test -c -o "$tmp/$s.root.test" .)
done
# rows <side> <pair> <prefix> turns `go test -bench` output into
# bench.jsonl lines, named without <prefix> and the -GOMAXPROCS suffix.
rows() {
	awk -v side="$1" -v pair="$2" -v prefix="$3" 'index($1, prefix) == 1 && $4 == "ns/op" {
		full = $1; sub(/-[0-9]+$/, "", full); name = substr(full, length(prefix) + 1)
		printf "{\"pair\": %d, \"side\": \"%s\", \"name\": \"%s\", \"row\": \"%s\", \"ns\": %s}\n", pair, side, name, full, $3
	}' >>"$tmp/bench.jsonl"
}
for i in $(seq 1 10); do
	order="parent change"
	if [ $((i % 2)) -eq 0 ]; then order="change parent"; fi
	for s in $order; do
		dir="$root"
		if [ "$s" = parent ]; then dir="$tmp/parent"; fi
		(cd "$dir/internal/nn" && "$tmp/$s.nn.test" -test.run '^$' -test.bench "$regex" -test.benchtime 2000x) | rows "$s" "$i" BenchmarkKernels/
		(cd "$dir" && "$tmp/$s.root.test" -test.run '^$' -test.bench '^BenchmarkPruneM$' -test.benchtime 50x) | rows "$s" "$i" Benchmark
		(cd "$dir" && "$tmp/$s.root.test" -test.run '^$' -test.bench '^BenchmarkTrainStep$/^workers-2$' -test.benchtime 20x) | rows "$s" "$i" Benchmark
		(cd "$dir" && "$tmp/$s.root.test" -test.run '^$' -test.bench "$served" -test.benchtime 5000x) | rows "$s" "$i" Benchmark
	done
	echo "pairs: bench pair $i done" >&2
done
rows="$(printf '%s\n' "${benchrows[@]}" | jq -R . | jq -sc .)"

jq -s --slurpfile bench BENCHMARK.json --slurpfile kb "$tmp/bench.jsonl" --argjson rows "$rows" --arg parent "$parent" --arg change "$change" \
	--arg cpu "$(grep -m 1 'model name' /proc/cpuinfo | cut -d: -f2- | sed 's/^ *//')" --argjson nproc "$(nproc)" '
# quantile(q): linear interpolation between the closest ranks.
def quantile(q): sort | if length == 0 then null else (q * (length - 1)) as $i | .[$i | floor] + ($i - ($i | floor)) * (.[$i | ceil] - .[$i | floor]) end;
def median: quantile(0.5);
def summary: map(select(. != null)) | {median: median, q1: quantile(0.25), q3: quantile(0.75)};
. as $runs
| {host: {cpu_model: $cpu, nproc: $nproc},
   revs: {parent: $parent, change: $change},
   command: "bash benchmark/run.sh --workload W --seed N --seconds 20 --trace 0",
   ok: all($runs[]; .correct == true and .failed == 0),
   workloads: ([$runs[].workload] | unique | map(. as $w
     | ([$runs[] | select(.workload == $w and .side == "parent")] | sort_by(.seed)) as $p
     | ([$runs[] | select(.workload == $w and .side == "change")] | sort_by(.seed)) as $c
     | {key: $w, value: {
         pairs: ($p | length),
         runs: [$runs[] | select(.workload == $w) | {seed, side, first, correct, failed}],
         metrics: ($bench[0].end_to_end | map(. as $m
           | [$p[].metrics[$m.name].value] as $pv
           | [$c[].metrics[$m.name].value] as $cv
           | [range(0; [$pv, $cv] | map(length) | min) | {p: $pv[.], c: $cv[.]} | select(.p != null and .c != null)] as $pairs
           | {key: $m.name, value: {
               unit: $m.unit, better: $m.better, parent: $pv, change: $cv,
               parent_summary: ($pv | summary), change_summary: ($cv | summary),
               median_pair_ratio: ([$pairs[] | select(.p != 0) | .c / .p] | median),
               wins: ([$pairs[] | select(if $m.better == "lower" then .c < .p else .c > .p end)] | length)}})
           | from_entries)}})
     | from_entries),
   bench: (($kb | group_by(.name) | map({key: .[0].name, value: .}) | from_entries) as $by
     | ($rows | map(. as $row
       | ([(["avx512", "avx2", "generic"][] | "\($row)/\(.)"), $row
           | select(($by[.] // []) as $r | any($r[]; .side == "parent") and any($r[]; .side == "change"))] | first) as $name
       | select($name != null)
       | ([$by[$name][] | select(.side == "parent")] | sort_by(.pair) | map(.ns)) as $pv
       | ([$by[$name][] | select(.side == "change")] | sort_by(.pair) | map(.ns)) as $cv
       | [range(0; [$pv, $cv] | map(length) | min) | {p: $pv[.], c: $cv[.]}] as $pairs
       | {key: $row, value: {
           row: $by[$name][0].row, unit: "ns/op", better: "lower", parent: $pv, change: $cv,
           parent_summary: ($pv | summary), change_summary: ($cv | summary),
           median_pair_ratio: ([$pairs[] | select(.p != 0) | .c / .p] | median),
           wins: ([$pairs[] | select(.c < .p)] | length)}})
       | from_entries))}' "$tmp/runs.jsonl" | jq --slurpfile bench BENCHMARK.json -f scripts/verdict.jq >"$out"
echo "pairs: wrote $out; verdicts: $(jq -c '[.workloads[].metrics[].verdict] | group_by(.) | map({(.[0]): length}) | add' "$out")" >&2
jq -e '.ok' "$out" >/dev/null
