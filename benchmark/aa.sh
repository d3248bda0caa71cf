#!/usr/bin/env bash
# A/A check: two interleaved sets of N runs of the *same* tree per workload,
# run i of either set with seed i. For every workload × end-to-end metric it
# prints each set's median and quartile spread ((Q3 − Q1) / median, as
# Python's statistics.quantiles(values, n=4) gives them) and the gap between
# the two medians in the metric's worse direction, all against the metric's
# bound in BENCHMARK.json. Exits 1 if any spread or gap exceeds its bound;
# a spread above a third of the bound is marked "tight" and does not fail.
#
#   benchmark/aa.sh [N]        (default N = 5; the committed results use 10)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
n="${1:-5}"
spec="$here/../BENCHMARK.json"
mkdir -p "$here/out"
runs="$(mktemp -d "$here/out/aa.XXXXXX")"
trap 'rm -rf "$runs"' EXIT

seconds="$(python3 -c "import json,sys; print(json.load(open(sys.argv[1]))['run_seconds'])" "$spec")"
workloads="$(python3 -c "import json,sys; print(' '.join(w['name'] for w in json.load(open(sys.argv[1]))['workloads']))" "$spec")"

echo "host $(hostname) | nproc $(nproc) | $(rustc --version) | git $(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
echo "every run pinned to one CPU | kernel threads 1 | socket workers 2 | 4 graph instances per run | N = $n runs per set, --seconds $seconds"

for w in $workloads; do
    for i in $(seq 1 "$n"); do
        for set in a b; do
            "$here/run.sh" --workload "$w" --seed "$i" --seconds "$seconds" --trace 0 \
                | tail -n 1 >"$runs/$w.$set.$i.json"
        done
    done
done

python3 - "$spec" "$runs" "$n" <<'EOF'
import json, statistics, sys

spec, runs, n = json.load(open(sys.argv[1])), sys.argv[2], int(sys.argv[3])
bad = 0
for w in (w["name"] for w in spec["workloads"]):
    sets = {}
    for s in "ab":
        results = [json.load(open(f"{runs}/{w}.{s}.{i}.json")) for i in range(1, n + 1)]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        sets[s] = results
        print(f"{w} set {s}: ops_attempted {attempted} ops_failed {failed}")
        bad += failed
    print(f"{'metric':<24}{'unit':>6}{'median a':>14}{'median b':>14}{'spread a':>10}{'spread b':>10}{'gap':>9}{'bound':>8}")
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        med, spread = {}, {}
        for s in "ab":
            values = [r["metrics"][name]["value"] for r in sets[s]]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med[s] = statistics.median(values)
            spread[s] = (q3 - q1) / med[s]
        worse = med["b"] - med["a"] if m["better"] == "lower" else med["a"] - med["b"]
        gap = worse / med["a"]
        # setup_s is held to its bound on the gap only, as the driver does.
        over = abs(gap) > bound or (name != "setup_s" and max(spread.values()) > bound)
        bad += over
        tight = name != "setup_s" and max(spread.values()) > bound / 3
        print(f"{name:<24}{m['unit']:>6}{med['a']:>14.6g}{med['b']:>14.6g}"
              f"{spread['a']:>10.2%}{spread['b']:>10.2%}{gap:>+9.2%}{bound:>8.0%}"
              + ("  OVER" if over else "  tight" if tight else ""))
    print()
print("A/A", "FAILED" if bad else "passed")
sys.exit(1 if bad else 0)
EOF
