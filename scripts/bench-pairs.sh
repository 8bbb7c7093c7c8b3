#!/usr/bin/env bash
# bench-pairs.sh compares the decision-path benchmark (bench/) built from
# the working tree against the same benchmark built at a base revision, in
# alternating pairs, and prints per-metric medians, the base's IQR and the
# pairs the working tree won.
#
#   make bench-pairs BASE=HEAD~1 PAIRS=10 SEEDS='20230101 77003' \
#        WORKLOADS='snap-fcfs stream-cons' BENCH_SECONDS=10
#
# Environment (all optional):
#   BASE           git revision to compare against (default HEAD)
#   PAIRS          pairs per workload and seed (default 10)
#   SEEDS          trace seeds (default '20230101 77003')
#   WORKLOADS      workloads (default: every workload in BENCHMARK.json)
#   BENCH_SECONDS  --seconds per run (default 10; SECONDS is bash's own)
#
# Every run's final JSON line is appended to bench-pairs.jsonl at the repo
# root, tagged with side, workload, seed, pair and the digest from the
# run's aggregate decision_digest line; the summary reads only the lines
# this invocation appended. Per workload and seed it also prints both
# sides' digests and whether they match: a change that must not alter
# decisions shows "match" everywhere.
#
# Each bench is built once: BASE from a `git archive` export in a
# temporary directory, the working tree in place. Within a pair the side
# that runs first alternates, so drift in machine speed falls on both
# sides equally. A pair is won when the working tree's value is strictly
# better, in the direction BENCHMARK.json gives for the metric.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
cd "$root"
BASE=${BASE:-HEAD}
PAIRS=${PAIRS:-10}
SEEDS=${SEEDS:-20230101 77003}
BENCH_SECONDS=${BENCH_SECONDS:-10}
out=$root/bench-pairs.jsonl
if [ -z "${WORKLOADS:-}" ]; then
	WORKLOADS=$(awk '/"workloads"/{w=1} /"end_to_end"/{w=0}
		w && /"name"/ {gsub(/[",]/, "", $2); printf "%s ", $2}' BENCHMARK.json)
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$(git rev-parse --verify "$BASE^{commit}")" | tar -x -C "$tmp/base"
echo "building bench at $BASE and from the working tree" >&2
(cd "$tmp/base/bench" && go build -o "$tmp/bench-base" .)
(cd "$root/bench" && go build -o "$tmp/bench-head" .)

# run SIDE WORKLOAD SEED PAIR appends one tagged JSON line to out. Each
# side runs from its own bench/ directory, as `go run -C bench` would.
# bench prints the aggregate decision_digest line (the one that counts
# repetitions) on stdout before its final JSON line.
run() {
	local side=$1 w=$2 seed=$3 pair=$4 dir stdout line digest
	dir=$root/bench
	[ "$side" = base ] && dir=$tmp/base/bench
	stdout=$(cd "$dir" && "$tmp/bench-$side" --workload "$w" --seed "$seed" --seconds "$BENCH_SECONDS" --trace 0)
	line=$(tail -n 1 <<<"$stdout")
	digest=$(awk '/repetitions,.*decision_digest/ {
		for (i = 1; i < NF; i++) if ($i == "decision_digest") { d = $(i + 1); sub(/,$/, "", d); print d }
	}' <<<"$stdout")
	printf '{"side":"%s","workload":"%s","seed":%s,"pair":%d,"digest":"%s","run":%s}\n' \
		"$side" "$w" "$seed" "$pair" "$digest" "$line" >>"$out"
}

touch "$out"
start=$(wc -l <"$out")

for w in $WORKLOADS; do
	for seed in $SEEDS; do
		for ((p = 1; p <= PAIRS; p++)); do
			echo "$w seed $seed pair $p/$PAIRS" >&2
			if ((p % 2)); then
				run base "$w" "$seed" "$p"
				run head "$w" "$seed" "$p"
			else
				run head "$w" "$seed" "$p"
				run base "$w" "$seed" "$p"
			fi
		done
	done
done

# Summary over the lines this invocation appended.
better=$(awk '/"end_to_end"/{e=1} /"per_layer"/{e=0}
	e && /"name"/ {gsub(/[",]/, "", $2); n=$2}
	e && /"better"/ {gsub(/[",]/, "", $2); printf "%s=%s ", n, $2}' BENCHMARK.json)
tail -n "+$((start + 1))" "$out" | awk -v better="$better" '
function field(s, key,   m) {
	if (match(s, "\"" key "\":\"?[^,\"}]*")) {
		m = substr(s, RSTART, RLENGTH)
		sub(/^"[^"]*":"?/, "", m)
		return m
	}
	return ""
}
function sort(a, n,   i, j, x) {
	for (i = 2; i <= n; i++) {
		x = a[i]
		for (j = i - 1; j >= 1 && a[j] > x; j--) a[j + 1] = a[j]
		a[j + 1] = x
	}
}
function quantile(a, n, q,   pos, lo) {
	pos = 1 + (n - 1) * q
	lo = int(pos)
	return lo >= n ? a[n] : a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
}
BEGIN {
	nb = split(better, b, " ")
	for (i = 1; i <= nb; i++) { split(b[i], kv, "="); dir[kv[1]] = kv[2]; metric[i] = kv[1] }
}
{
	side = field($0, "side"); w = field($0, "workload"); seed = field($0, "seed"); p = field($0, "pair")
	key = w SUBSEP seed
	if (!(key in seen)) { seen[key] = 1; order[++nk] = key }
	if (p > maxp[key]) maxp[key] = p
	failed[key, side] += field($0, "failed")
	d = field($0, "digest")
	if (index(" " digests[key, side] " ", " " d " ") == 0)
		digests[key, side] = digests[key, side] (digests[key, side] == "" ? "" : " ") d
	for (i = 1; i <= nb; i++) {
		m = metric[i]
		if (match($0, "\"" m "\":\\{\"value\":[-0-9.eE+]*")) {
			v = substr($0, RSTART, RLENGTH); sub(/.*:/, "", v)
			val[key, m, side, p] = v + 0
			has[key, m, side, p] = 1
		}
	}
}
END {
	printf "%-20s %-9s %-17s %12s %12s %8s %11s %6s\n", "workload", "seed", "metric", "base_med", "head_med", "delta%", "base_IQR", "won"
	for (k = 1; k <= nk; k++) {
		key = order[k]; split(key, parts, SUBSEP)
		for (i = 1; i <= nb; i++) {
			m = metric[i]; nbv = 0; nhv = 0; pairs = 0; won = 0
			delete bv; delete hv
			for (p = 1; p <= maxp[key]; p++) {
				if ((key SUBSEP m SUBSEP "base" SUBSEP p) in has) bv[++nbv] = val[key, m, "base", p]
				if ((key SUBSEP m SUBSEP "head" SUBSEP p) in has) hv[++nhv] = val[key, m, "head", p]
				if (((key SUBSEP m SUBSEP "base" SUBSEP p) in has) && ((key SUBSEP m SUBSEP "head" SUBSEP p) in has)) {
					pairs++
					x = val[key, m, "head", p]; y = val[key, m, "base", p]
					if ((dir[m] == "higher" && x > y) || (dir[m] == "lower" && x < y)) won++
				}
			}
			if (nbv == 0 || nhv == 0) continue
			sort(bv, nbv); sort(hv, nhv)
			bm = quantile(bv, nbv, 0.5); hm = quantile(hv, nhv, 0.5)
			iqr = quantile(bv, nbv, 0.75) - quantile(bv, nbv, 0.25)
			printf "%-20s %-9s %-17s %12.6g %12.6g %+7.1f%% %11.4g %3d/%-2d\n", parts[1], parts[2], m, bm, hm, bm ? 100 * (hm - bm) / bm : 0, iqr, won, pairs
		}
		printf "%-20s %-9s failed: base %d, head %d\n", parts[1], parts[2], failed[key, "base"], failed[key, "head"]
		printf "%-20s %-9s decision_digest: base %s, head %s: %s\n", parts[1], parts[2], digests[key, "base"],
			digests[key, "head"], digests[key, "base"] == digests[key, "head"] ? "match" : "DIFFER"
	}
}'
