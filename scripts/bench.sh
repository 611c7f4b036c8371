#!/usr/bin/env bash
# Wall-clock executor benchmark driver: runs bench/bench_wallclock and
# folds its google-benchmark JSON into BENCH_wallclock.json at the repo
# root, preserving the committed baseline section so successive PRs can
# diff executor throughput (see docs/PERF.md).
#
# Usage: scripts/bench.sh [build_dir]
#   ACSR_BENCH_QUICK=1      smoke mode: ~25x shorter measurement windows; the
#                           result is stamped "quick" and numbers are noisy —
#                           use only as a does-it-run CI gate.
#   ACSR_BENCH_REBASELINE=1 re-record the baseline section from this run
#                           (use after intentional model changes, or to fix
#                           a mode mismatch).
#
# Baseline and current sections are stamped with the mode they were measured
# in; the script refuses to emit speedups across modes (quick-vs-full diffs
# once produced a phantom 14% acsr regression — see docs/PERF.md). They are
# also stamped with the commit; `current` reads "<HEAD>-dirty" when the
# tree has uncommitted changes other than BENCH_wallclock.json itself.
set -euo pipefail

cd "$(dirname "$0")/.."
build="${1:-build}"
out="BENCH_wallclock.json"

if [ ! -x "$build/bench/bench_wallclock" ]; then
  echo "bench.sh: $build/bench/bench_wallclock not built (run scripts/check.sh first)" >&2
  exit 1
fi

mode="full"
extra=()
if [ "${ACSR_BENCH_QUICK:-0}" != "0" ]; then
  mode="quick"
  extra+=(--quick)
fi

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT
"$build/bench/bench_wallclock" "${extra[@]}" \
  --benchmark_out="$raw" --benchmark_out_format=json \
  --benchmark_counters_tabular=true

MODE="$mode" RAW="$raw" OUT="$out" \
REBASELINE="${ACSR_BENCH_REBASELINE:-0}" python3 - <<'PY'
import json, os, subprocess, sys

raw = json.load(open(os.environ["RAW"]))
out_path = os.environ["OUT"]
mode = os.environ["MODE"]

current = {
    b["name"]: round(b["real_time"], 4)
    for b in raw.get("benchmarks", [])
    if b.get("run_type", "iteration") == "iteration"
}
try:
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    status = subprocess.run(["git", "status", "--porcelain"],
                            capture_output=True, text=True).stdout
except OSError:
    commit, status = "", ""
# A record taken from an uncommitted tree measures the change, not HEAD:
# stamp `current` "<HEAD>-dirty" unless the only change is this record.
dirty = any(line[3:] != out_path for line in status.splitlines())
current_commit = commit + "-dirty" if commit and dirty else commit

doc = {}
if os.path.exists(out_path):
    with open(out_path) as f:
        doc = json.load(f)

# The baseline section is written once (pre-optimisation numbers) and then
# carried forward verbatim; only the current section is refreshed.
doc.setdefault("unit", "ms (real time per simulated SpMV / launch)")
doc.setdefault("spec", "GTX Titan preset, default corpus scale")
if "baseline" not in doc or os.environ.get("REBASELINE") == "1":
    doc["baseline"] = {"commit": commit, "mode": mode, "benchmarks": current}
# The host the run measured: the block pool's width follows its cores.
ctx = raw.get("context", {})
host = {"cores": int(ctx.get("host_cores", ctx.get("num_cpus", 0))),
        "pool_width": int(ctx.get("pool_width", 0))}
doc["current"] = {"commit": current_commit, "mode": mode, "host": host,
                  "benchmarks": current}

# A quick-mode current diffed against a full-mode baseline (or vice versa)
# compares different measurement windows, not different code. Refuse to
# fold mismatched results in — the run still served as a does-it-run
# smoke, but BENCH_wallclock.json keeps its consistent pair.
base_mode = doc["baseline"].get("mode", "full")
if base_mode != mode:
    print(
        f"bench.sh: baseline is {base_mode!r} mode but this run is {mode!r} "
        f"— refusing to diff across modes; {out_path} left untouched.\n"
        f"bench.sh: re-run with the matching ACSR_BENCH_QUICK setting, or "
        f"set ACSR_BENCH_REBASELINE=1 to re-record the baseline in "
        f"{mode!r} mode."
    )
    sys.exit(0)

base = doc["baseline"]["benchmarks"]
# Benchmarks added after the baseline was recorded (a PR introducing a new
# series, e.g. spmm_executor/ or serve_scheduler/) have no committed
# reference yet: adopt their first same-mode measurement as the baseline
# so later runs can diff against it. Existing entries are never touched —
# the pre-optimisation numbers stay the yardstick.
adopted = sorted(n for n in current if n not in base)
for n in adopted:
    base[n] = current[n]
if adopted:
    print(f"bench.sh: adopted {mode}-mode baseline for "
          f"{len(adopted)} new benchmark(s):")
    for n in adopted:
        print(f"  {n}: {current[n]:.3f} ms")

doc["speedup"] = {
    name: round(base[name] / t, 3)
    for name, t in current.items()
    if name in base and t > 0
}

with open(out_path, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=False)
    f.write("\n")

print(f"bench.sh: wrote {out_path} ({mode} mode)")
for name, s in doc["speedup"].items():
    print(f"  {name}: {base[name]:.3f} -> {current[name]:.3f} ms ({s}x)")
PY
