#!/usr/bin/env bash
# Alternating parent/change pairs of the repo benchmark (perfbench/), judged
# by the paired-run rule of docs/PERF.md: a gain is claimed only when the
# change wins at least 9 of every 10 pairs (ties count for neither side) and
# its median beats the base's by more than the base's own interquartile
# range.
#
# Usage: scripts/perf_pairs.sh <base-commit> <workload> [pairs] [seconds]
#   pairs    default 10; pair i runs seed i, base first on odd i
#   seconds  default BENCHMARK.json's run_seconds
#
# The change side is this checkout's working tree. The base side is
# <base-commit> exported (git archive) into a temporary directory under
# $TMPDIR, removed on exit. Each side builds its own perfbench tree
# (.bench_build/ under its checkout) during an untimed one-second warm-up
# run. For every end-to-end metric the script prints each side's median
# and [Q1, Q3], the change's win count and a verdict; the raw per-run JSON
# lines go to stderr. Verdicts, per metric:
#   identical           every pair tied
#   GAIN                the gain rule above holds
#   WORSE beyond bound  the change's median is worse than the base's by
#                       more than the metric's BENCHMARK.json bound
#   unresolved          the base's IQR is wider than the bound and not
#                       every change run beats every base run, so "no
#                       worse" cannot be told from noise (choosing-metrics
#                       §6 step 5)
#   no claim            within the bound, no gain
#   NOT TIED            a sim_* metric (simulated, deterministic) differs
#                       in some pair
#
# Exit status: 0 when every run was correct and present, no metric is WORSE
# beyond bound and every sim_* metric tied in every pair; 1 otherwise
# (the failing checks are listed last); 2 on a usage error.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
  sed -n '8,10p' "$0" >&2
  exit 2
fi
base_rev="$1"
workload="$2"
pairs="${3:-10}"

cd "$(dirname "$0")/.."
root="$(pwd)"
seconds="${4:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$base_rev" | tar -x -C "$tmp/base"

# run <checkout> <seed> <seconds> -> the run's JSON result line on stdout
run() {
  (cd "$1" && python3 perfbench/run.py --workload "$workload" --seed "$2" \
     --seconds "$3" --trace 0 2>/dev/null | tail -n 1)
}

echo "perf_pairs: warm-up builds (base $base_rev, change = working tree)" >&2
run "$tmp/base" 1 1 >/dev/null
run "$root" 1 1 >/dev/null

results="$tmp/results.jsonl"
for ((i = 1; i <= pairs; i++)); do
  if ((i % 2 == 1)); then order=(base change); else order=(change base); fi
  for side in "${order[@]}"; do
    dir="$root"
    [ "$side" = base ] && dir="$tmp/base"
    line="$(run "$dir" "$i" "$seconds")" || line=""  # a failed run is missing
    echo "$side seed $i: $line" >&2
    printf '{"pair": %d, "side": "%s", "result": %s}\n' "$i" "$side" \
      "${line:-null}" >>"$results"
  done
done

RESULTS="$results" WORKLOAD="$workload" PAIRS="$pairs" python3 - <<'PY'
import json, os, statistics, sys

bench = json.load(open("BENCHMARK.json"))
rows = [json.loads(l) for l in open(os.environ["RESULTS"])]
runs = {"base": {}, "change": {}}
failed = {"base": 0, "change": 0}
for r in rows:
    res = r["result"]
    if not res or not res.get("correct", False):
        failed[r["side"]] += 1
        continue
    runs[r["side"]][r["pair"]] = res

def quartiles(vs):
    if len(vs) < 2:
        return vs[0], vs[0], vs[0]
    q1, med, q3 = statistics.quantiles(vs, n=4)
    return q1, med, q3

problems = []
print(f"workload {os.environ['WORKLOAD']}: {len(runs['base'])} base and "
      f"{len(runs['change'])} change runs; incorrect or missing: "
      f"base {failed['base']}, change {failed['change']}")
want = int(os.environ["PAIRS"])
for side in runs:
    if len(runs[side]) != want:
        problems.append(f"{want - len(runs[side])} {side} run(s) incorrect "
                        "or missing")
pairs = sorted(set(runs["base"]) & set(runs["change"]))
for m in bench["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    vals = {s: [runs[s][p]["metrics"][name]["value"] for p in pairs
                if name in runs[s][p]["metrics"]] for s in runs}
    if not vals["base"] or len(vals["base"]) != len(vals["change"]):
        print(f"{name:16s} missing")
        problems.append(f"{name}: missing from some run")
        continue
    wins = sum((c < b) if lower else (c > b)
               for b, c in zip(vals["base"], vals["change"]))
    ties = sum(b == c for b, c in zip(vals["base"], vals["change"]))
    bq1, bmed, bq3 = quartiles(vals["base"])
    cq1, cmed, cq3 = quartiles(vals["change"])
    gain = (bmed - cmed) if lower else (cmed - bmed)
    iqr = bq3 - bq1
    bound = m["bound"] * abs(bmed)
    n = len(pairs)
    if ties == n:
        verdict = "identical"
    elif name.startswith("sim_"):
        verdict = "NOT TIED"
        problems.append(f"{name}: tied in {ties}/{n} pairs only")
    elif 10 * wins >= 9 * n and gain > iqr:
        verdict = "GAIN"
    elif gain < 0 and -gain > bound:
        verdict = "WORSE beyond bound"
        problems.append(f"{name}: worse beyond its bound")
    elif iqr > bound and not (max(vals["change"]) < min(vals["base"])
                              if lower else
                              min(vals["change"]) > max(vals["base"])):
        verdict = "unresolved"
    else:
        verdict = "no claim"
    print(f"{name:16s} base {bmed:.6g} [{bq1:.6g}, {bq3:.6g}]  "
          f"change {cmed:.6g} [{cq1:.6g}, {cq3:.6g}]  "
          f"wins {wins}/{n} ties {ties}  gain {gain:+.6g} vs base IQR "
          f"{iqr:.6g}: {verdict}")
for p in problems:
    print(f"FAIL: {p}")
sys.exit(1 if problems else 0)
PY
