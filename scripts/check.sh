#!/usr/bin/env bash
# CI gate: configure, build, run the tier-1 test label (timed — executor
# wall-clock is a tracked quantity, see docs/PERF.md), the cross-engine
# differential fuzz harness at a fixed seed, the fault-injection matrix
# (one representative ACSR_FAULTS plan per fault class through the
# FaultEnv smoke — see docs/RESILIENCE.md — plus ctest -L faults), the
# out-of-core storage matrix (one io fault plan per class through the
# OocEnv smoke under a sub-footprint device budget — see docs/OOC.md), a
# profiler smoke (trace JSON validated, model metrics diffed against the
# committed PROF_baseline.json — see docs/OBSERVABILITY.md), then a quick
# wall-clock bench smoke (does-it-run only; bench.sh refuses to fold
# quick-mode numbers into the full-mode BENCH_wallclock.json). Fails on
# the first broken step. See docs/TESTING.md for the label scheme.
#
# Usage: scripts/check.sh [build_dir]
set -euo pipefail

cd "$(dirname "$0")/.."
build="${1:-build}"

echo "== configure"
# CI (ACSR_CI=1) promotes warnings to errors; local runs stay permissive.
werror=()
if [ "${ACSR_CI:-0}" = "1" ]; then werror=(-DACSR_WERROR=ON); fi
if [ -f "$build/CMakeCache.txt" ]; then
  cmake -B "$build" "${werror[@]}"  # reuse the cached generator
else
  cmake -B "$build" -G Ninja "${werror[@]}"
fi

echo "== build"
cmake --build "$build"

echo "== analysis (scripts/lint.sh + acsr_verify --all)"
scripts/lint.sh "$build"
"$build/tools/acsr_verify" --all

# The audit tier (docs/ANALYSIS.md): fault-taxonomy exhaustiveness, gate
# discipline, the absorbed lint rules and the seeded source-defect
# corpus. (Timeline accounting is enforced in the code itself and
# checked by test_ooc's conformance test over ooc-csr's real log.) The
# JSON report is the machine interface; findings are fatal under
# ACSR_CI=1 and a loud warning otherwise (mirroring the clang-tidy gate).
echo "== audit (acsr_audit --all --report=json)"
audit_json="$(mktemp --suffix=.json)"
audit_rc=0
"$build/tools/acsr_audit" --all --root=. --report=json >"$audit_json" \
  || audit_rc=$?
python3 - "$audit_json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
s = doc["summary"]
print(f"   {s['taxonomy_types']} fault types, {s['gate_sites']} gate sites,"
      f" {s['defects_flagged']}/{s['defects_expected']} defects flagged")
for f in doc["findings"]:
    print(f"   [{f['kind']}] {f['plane']}: {f['subject']} — {f['detail']}")
PY
rm -f "$audit_json"
if [ "$audit_rc" -ne 0 ]; then
  if [ "${ACSR_CI:-0}" = "1" ]; then
    echo "check.sh: acsr_audit found problems (fatal under ACSR_CI=1)"
    exit "$audit_rc"
  fi
  echo "check.sh: WARNING: acsr_audit found problems (fatal under ACSR_CI=1)"
fi

echo "== clang-tidy (non-fatal unless ACSR_CI=1)"
if command -v clang-tidy >/dev/null 2>&1; then
  tidy_files=$(git ls-files 'src/*.cpp' 'tools/*.cpp')
  if [ "${ACSR_CI:-0}" = "1" ]; then
    clang-tidy -p "$build" $tidy_files
  else
    clang-tidy -p "$build" $tidy_files || true
  fi
else
  echo "   clang-tidy not installed; skipping"
fi

# ACSR_MEMO is pinned unset so this leg is the memo-off run of every
# tier-1 test whatever the caller's environment; the ACSR_MEMO=1 leg below
# is the memo-on run.
echo "== tier-1 tests (ctest -L tier1)"
tier1_start=$SECONDS
env -u ACSR_MEMO ctest --test-dir "$build" -L tier1 --output-on-failure
echo "check.sh: tier-1 suite took $((SECONDS - tier1_start))s"

# The executor's two oracle routes (docs/PERF.md): every Warp memory access
# takes the per-lane route with every probe under reference metering and
# the sanitizer route under ACSR_SANITIZE. The tier-1 suite must pass with
# either plane switched on from the environment. Under ACSR_MEMO a replayed
# launch computes y through its engine's exact-order value kernel instead
# of the grid, so the whole suite with memo on is that route's broad gate.
for plane in ACSR_REFERENCE_METERING ACSR_SANITIZE ACSR_MEMO; do
  echo "== tier-1 tests under $plane=1"
  env "$plane=1" ctest --test-dir "$build" -L tier1 --output-on-failure
done

# Sanitizer preset (docs/TESTING.md): under ACSR_CI=1, rebuild with
# -fsanitize=address,undefined (the ACSR_ASAN CMake option) in a separate
# tree and run the tier-1 label under it. The simulator is pure host C++,
# so ASan/UBSan see every buffer the virtual GPU touches.
if [ "${ACSR_CI:-0}" = "1" ]; then
  echo "== sanitizer tier-1 (ASan+UBSan, ${build}-asan)"
  if [ -f "$build-asan/CMakeCache.txt" ]; then
    cmake -B "$build-asan" -DACSR_ASAN=ON "${werror[@]}"
  else
    cmake -B "$build-asan" -G Ninja -DACSR_ASAN=ON "${werror[@]}"
  fi
  cmake --build "$build-asan"
  ctest --test-dir "$build-asan" -L tier1 --output-on-failure
fi

# ThreadSanitizer leg (docs/PERF.md, "Block-parallel metering" and "Replay
# on every core"): grids that declare blocks_independent run their blocks,
# and the row-granular value kernels their chunks, on the host worker pool.
# In a separate -fsanitize=thread tree, build the suites that force the pool
# on (ScopedBlockParallelism at 2-4 workers from one block or one nnz per
# worker: the invariance matrix's parallel modes, the bin grids, the served
# batches, the executor's merge/exception tests, every engine's value
# kernels and two threads applying at once) and fail on any data-race
# report.
echo "== ThreadSanitizer (block-parallel launches, ${build}-tsan)"
tsan_flags=(-DCMAKE_CXX_FLAGS=-fsanitize=thread
            -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread)
if [ -f "$build-tsan/CMakeCache.txt" ]; then
  cmake -B "$build-tsan" "${tsan_flags[@]}" >/dev/null
else
  cmake -B "$build-tsan" -G Ninja "${tsan_flags[@]}" >/dev/null
fi
tsan_tests=(test_metering_invariance test_spmm test_acsr test_vgpu_kernel
            test_value_parallel)
cmake --build "$build-tsan" --target "${tsan_tests[@]}"
for t in "${tsan_tests[@]}"; do
  echo "   $t"
  TSAN_OPTIONS="halt_on_error=1 exitcode=66" \
    "$build-tsan/tests/$t" --gtest_brief=1
done

# The memo plane (docs/PERF.md): the two tier-1 legs above already run
# every test with the cache off and on — the metering invariance matrix,
# the memo unit tests, the fault, out-of-core and SpMM suites among them.
# The memo tests also run with the slo plane and the profiler switched on
# from the environment, which tier-1 does not: the slo span annotation
# must not count cache hits or misses, and the tests must not depend on
# the process's profiler state.
echo "== memo plane (memo tests under ACSR_SLO=1, ACSR_PROF=1)"
for plane in ACSR_SLO ACSR_PROF; do
  echo "   $plane=1"
  env "$plane=1" "$build/tests/test_memo" --gtest_brief=1
done

echo "== differential fuzz (seed ${ACSR_FUZZ_SEED:-2014}, ${ACSR_FUZZ_MATRICES:-200} matrices)"
ACSR_FUZZ_SEED="${ACSR_FUZZ_SEED:-2014}" \
ACSR_FUZZ_MATRICES="${ACSR_FUZZ_MATRICES:-200}" \
  ctest --test-dir "$build" -L fuzz --output-on-failure

echo "== fault-injection matrix (one plan per fault class)"
fault_plans=(
  "oom@alloc#1"
  "transient@launch#1"
  "ecc@launch#2:seed=7"
  "corrupt@transfer#1"
  "stall@transfer#1:ms=20"
  "lost@launch#2"
)
for plan in "${fault_plans[@]}"; do
  echo "   ACSR_FAULTS=\"$plan\""
  ACSR_FAULTS="$plan" "$build/tests/test_faults" \
    --gtest_filter='FaultEnv.*' --gtest_brief=1
done
ctest --test-dir "$build" -L faults --output-on-failure

# The out-of-core tier (docs/OOC.md): one representative plan per storage
# fault class through the OocEnv smoke, which solves under a device budget
# smaller than the matrix footprint and requires either a bitwise-clean
# recovery or a typed IoError escalation.
echo "== out-of-core storage matrix (one plan per io fault class)"
ooc_plans=(
  "io_transient@read#1"
  "io_timeout@read#1:ms=20"
  "io_checksum@read#1:seed=5"
  "io_degrade@read#1*3:x=4"
)
for plan in "${ooc_plans[@]}"; do
  echo "   ACSR_FAULTS=\"$plan\""
  ACSR_FAULTS="$plan" "$build/tests/test_ooc" \
    --gtest_filter='OocEnv.*' --gtest_brief=1
done

echo "== profiler smoke (acsr_prof trace + metric drift vs PROF_baseline.json)"
prof_trace="$(mktemp --suffix=.json)"
trap 'rm -f "$prof_trace"' EXIT
# One engine exercises the whole pipeline: env-gated enable, per-SM/child
# trace export, schema-valid JSON.
ACSR_TRACE="$prof_trace" "$build/tools/acsr_prof" --quiet --engine acsr
python3 - "$prof_trace" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert events, "empty traceEvents"
for ev in events:
    assert {"name", "ph", "pid", "tid"} <= ev.keys(), ev
print(f"   trace ok: {len(events)} events")
PY
# Model metrics are bit-reproducible, so drift vs the committed baseline
# means the cost model changed. Warn loudly (non-fatal: re-record the
# baseline with `tools/acsr_prof --out PROF_baseline.json` when the
# change is intentional).
if ! "$build/tools/acsr_prof" --quiet --diff PROF_baseline.json; then
  echo "check.sh: WARNING: profiler metrics drifted >10% vs PROF_baseline.json"
  echo "check.sh: (intentional model change? re-record with:" \
       "$build/tools/acsr_prof --out PROF_baseline.json)"
fi

echo "== slo smoke (acsr_slo trace + --check vs slo.json)"
slo_trace="$(mktemp --suffix=.json)"
trap 'rm -f "$prof_trace" "$slo_trace"' EXIT
# A faulted multi-tenant run crosses serve -> engine -> storage: the trace
# must carry slo:* request tracks and the timeline span sink's h2d/compute/
# ssd<N> tracks next to the profiler's own, schema-valid under ACSR_FAULTS.
ACSR_FAULTS="io_transient@read#2*2" ACSR_TRACE="$slo_trace" \
  "$build/tools/acsr_slo" --quiet --engine ooc-csr --tenants 4 \
  --trace "$slo_trace"
python3 - "$slo_trace" <<'PY'
import json, re, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert events, "empty traceEvents"
slo_tracks = set()
for ev in events:
    assert {"name", "ph", "pid", "tid"} <= ev.keys(), ev
    # Tracks are named by thread_name metadata (docs/SLO.md).
    if ev["ph"] == "M" and ev["name"] == "thread_name":
        track = ev.get("args", {}).get("name", "")
        if track.startswith("slo:"):
            slo_tracks.add(track)
for want in (r"slo:req:.+", "slo:serve", "slo:h2d", "slo:compute", r"slo:ssd\d+"):
    assert any(re.fullmatch(want, t) for t in slo_tracks), (want, slo_tracks)
print(f"   slo trace ok: {len(events)} events, {len(slo_tracks)} slo tracks")
PY
# The committed slo.json is the SLO gate: a breach exits 4. Warn-only
# locally, fatal under ACSR_CI=1 (the acsr_audit discipline).
if ! "$build/tools/acsr_slo" --quiet --check slo.json; then
  if [ "${ACSR_CI:-0}" = "1" ]; then
    echo "check.sh: acsr_slo found SLO breaches (fatal under ACSR_CI=1)"
    exit 1
  fi
  echo "check.sh: WARNING: acsr_slo found SLO breaches (fatal under ACSR_CI=1)"
fi

echo "== wall-clock bench smoke (bench_wallclock --quick)"
ACSR_BENCH_QUICK=1 scripts/bench.sh "$build"

echo "check.sh: all gates green"
