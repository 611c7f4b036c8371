// Cross-engine differential fuzz harness (the paper's Table II claim,
// adversarially): every registered SpMV engine, on a few hundred seeded
// random matrices spanning the structural space (R-MAT, power-law,
// banded, empty-row-heavy, singleton rows, a dense row past the DP bin
// threshold, and degenerate shapes), must
//
//   1. match the host CSR oracle row-for-row, via both its host `apply`
//      path and its simulated device kernels, within a per-row tolerance
//      scaled by the row's nnz (reassociation bound) — and, since every
//      engine's `apply` is its kernels' exact-order value kernel, match
//      its own simulated y bit for bit — and
//   2. come out of a fully sanitizer-instrumented run with ZERO findings
//      (no OOB, no uninitialized reads, no races) — the same instrumentation
//      that test_sanitizer.cpp proves catches injected defects.
//
// Reproducibility: every matrix derives from ACSR_FUZZ_SEED (default 2014)
// through split streams, so a failure report's (seed, index) pair replays
// exactly. ACSR_FUZZ_MATRICES overrides the matrix count (default 200).
//
// A second mode fuzzes the *fault plane* (docs/RESILIENCE.md): random
// ACSR_FAULTS plans thrown at ResilientEngine must end in exactly one of
// two legal outcomes — a recovered result bit-identical to a clean run of
// the surviving format, or a typed recoverable error with device
// attribution. Never a crash, never a silent wrong answer.
// ACSR_FAULT_FUZZ overrides the plan count (default 200).
//
// A third mode fuzzes the *memo plane* (ACSR_MEMO, src/vgpu/memo.hpp):
// random matrices and engines driven through multi-iteration solve
// sequences — and, for the dynamic path, random update/solve
// interleavings over IncrementalCsr — must produce bit-identical results,
// durations, and Counters with memoization on and off.
// ACSR_MEMO_FUZZ overrides the case count (default 40).
//
// A fourth mode fuzzes the *batched SpMM path* (docs/SERVING.md): random
// (matrix, engine, width) triples must satisfy apply_batch == k scalar
// applies bit-for-bit, simulate_batch within the oracle tolerance per
// column, width 0 a free no-op — all under the sanitizer.
// ACSR_SPMM_FUZZ overrides the case count (default 60).
//
// A fifth mode fuzzes the *out-of-core storage plane* (docs/OOC.md):
// random ACSR_FAULTS `read` plans against budget-constrained streamed
// solves must recover to within 1e-9 of an in-core run or escape as a
// typed IoError; fault-free streamed solve sequences must be bit-equal
// with the memo plane off and on; and a natural-OOM fallback onto the
// ooc-csr rung must invalidate the displaced format's memo entries.
// ACSR_OOC_FUZZ overrides the case count (default 40).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/factory.hpp"
#include "core/incremental_csr.hpp"
#include "mat/dense_block.hpp"
#include "core/resilient.hpp"
#include "graph/dynamic.hpp"
#include "graph/powerlaw.hpp"
#include "graph/rmat.hpp"
#include "vgpu/device.hpp"
#include "vgpu/fault.hpp"
#include "vgpu/memo.hpp"
#include "vgpu/sanitizer.hpp"

#include "fuzz_shapes.hpp"
#include "memo_guard.hpp"

namespace {

using acsr::Rng;
using acsr::test::empty_matrix;
using acsr::test::make_fuzz_matrix;
using acsr::test::push_row;
using acsr::core::EngineConfig;
using acsr::core::make_engine;
using acsr::mat::Csr;
using acsr::mat::index_t;
using acsr::mat::offset_t;
using acsr::vgpu::Device;
using acsr::vgpu::DeviceSpec;
using acsr::vgpu::Sanitizer;

const char* const kEngines[] = {
    "csr-scalar", "csr-vector", "csr",  "ell",  "coo",
    "hyb",        "brc",        "bccoo", "tcoo", "sic",
    "bcsr",       "sell",       "merge-csr", "acsr", "acsr-binning",
};


std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

struct FuzzStats {
  std::size_t engine_runs = 0;
  std::size_t format_skips = 0;  // ELL refusing pathological shapes
};

void diff_against_oracle(const Csr<double>& a, const std::string& engine_name,
                         const std::vector<double>& x,
                         const std::vector<double>& y_ref, FuzzStats* stats) {
  SCOPED_TRACE("engine " + engine_name);
  Device dev(DeviceSpec::gtx_titan());
  EngineConfig cfg;
  cfg.hyb_breakeven = 64;  // scaled-down matrices: scale the CUSP constant
  cfg.ooc.budget_bytes = 8 * 1024;  // several slabs on the larger matrices

  std::unique_ptr<acsr::spmv::SpmvEngine<double>> engine;
  try {
    engine = make_engine<double>(engine_name, dev, a, cfg);
  } catch (const acsr::InputError&) {
    // Pure ELL legitimately refuses matrices whose padded slab would
    // explode; every other engine must take everything the fuzzer makes.
    ASSERT_EQ(engine_name, "ell");
    ++stats->format_skips;
    return;
  }

  std::vector<double> y_apply;
  engine->apply(x, y_apply);
  std::vector<double> y_sim;
  const double t = engine->simulate(x, y_sim);
  EXPECT_GE(t, 0.0);
  ++stats->engine_runs;

  ASSERT_EQ(y_apply.size(), y_ref.size());
  ASSERT_EQ(y_sim.size(), y_ref.size());
  EXPECT_EQ(y_apply, y_sim) << "apply is not the kernels' value";
  const double eps = std::numeric_limits<double>::epsilon();
  for (std::size_t r = 0; r < y_ref.size(); ++r) {
    // Positive summands: any summation order is within ~nnz*eps relative.
    const double n_row =
        static_cast<double>(a.row_nnz(static_cast<index_t>(r)));
    const double tol =
        (8.0 + 8.0 * n_row) * eps * std::max(1.0, std::abs(y_ref[r]));
    EXPECT_NEAR(y_apply[r], y_ref[r], tol) << "apply diverges at row " << r;
    EXPECT_NEAR(y_sim[r], y_ref[r], tol) << "simulate diverges at row " << r;
  }

  // The sanitizer contract: a clean engine leaves zero findings.
  const auto& reports = Sanitizer::instance().reports();
  EXPECT_TRUE(reports.empty())
      << reports.size() << " sanitizer findings; first: "
      << reports.front().message;
}

TEST(DifferentialFuzz, AllEnginesMatchOracleUnderSanitizer) {
  const std::uint64_t seed = env_u64("ACSR_FUZZ_SEED", 2014);
  const std::size_t n_matrices =
      static_cast<std::size_t>(env_u64("ACSR_FUZZ_MATRICES", 200));

  Sanitizer& san = Sanitizer::instance();
  san.clear();
  san.set_enabled(true);
  const Rng root(seed);

  FuzzStats stats;
  std::size_t total_nnz = 0;
  for (std::size_t i = 0; i < n_matrices; ++i) {
    std::string family;
    const Csr<double> a =
        make_fuzz_matrix(i, root.split(i + 1), &family);
    a.validate();
    total_nnz += static_cast<std::size_t>(a.nnz());
    SCOPED_TRACE("matrix #" + std::to_string(i) + " [" + family +
                 "] seed " + std::to_string(seed));

    Rng xrng = root.split(0xabcd0000 + i);
    std::vector<double> x(static_cast<std::size_t>(a.cols));
    for (auto& v : x) v = xrng.next_double(0.5, 1.5);
    std::vector<double> y_ref;
    a.spmv(x, y_ref);

    for (const char* engine_name : kEngines) {
      diff_against_oracle(a, engine_name, x, y_ref, &stats);
      san.clear();  // findings asserted empty above; drop tombstones
      if (::testing::Test::HasFatalFailure()) break;
    }
    if (!::testing::Test::HasFatalFailure()) {
      diff_against_oracle(a, "ooc-csr", x, y_ref, &stats);
      san.clear();
    }
    if (::testing::Test::HasFatalFailure()) break;
  }

  san.set_enabled(false);
  san.clear();

  // The harness must genuinely exercise the engine matrix: every engine on
  // (almost) every matrix, with only ELL's documented refusals skipped.
  const std::size_t expected =
      n_matrices * (sizeof(kEngines) / sizeof(kEngines[0]) + 1);
  EXPECT_EQ(stats.engine_runs + stats.format_skips, expected);
  if (n_matrices > 0) {
    EXPECT_LT(stats.format_skips, n_matrices);  // ELL must run sometimes
  }
  std::cout << "[fuzz] " << n_matrices << " matrices, " << total_nnz
            << " total nnz, " << stats.engine_runs << " engine runs, "
            << stats.format_skips << " format skips (seed " << seed << ")\n";
}

// Batched-SpMM fuzz: random (matrix, engine, width) triples. Contracts
// (docs/SERVING.md): the host batch path is the k scalar applies bit for
// bit; the device batch path — looped default or the real column-blocked
// SpMM kernels — matches the host CSR oracle per column within the same
// reassociation tolerance as the scalar leg; width 0 is a launch-free
// no-op; and the sanitizer stays silent throughout.
TEST(DifferentialFuzz, BatchedSpmmMatchesOracleUnderSanitizer) {
  const std::uint64_t seed = env_u64("ACSR_FUZZ_SEED", 2014);
  const std::size_t n_cases =
      static_cast<std::size_t>(env_u64("ACSR_SPMM_FUZZ", 60));
  using acsr::mat::DenseBlock;

  Sanitizer& san = Sanitizer::instance();
  san.clear();
  san.set_enabled(true);
  const Rng root(seed ^ 0x59f3);

  std::size_t batch_runs = 0;
  std::size_t format_skips = 0;
  for (std::size_t i = 0; i < n_cases; ++i) {
    Rng rng = root.split(i + 1);
    std::string family;
    const Csr<double> a = make_fuzz_matrix(i, root.split(i + 1), &family);
    a.validate();
    const char* engine_name = kEngines[rng.next_below(std::size(kEngines))];
    // Widths 0..12 cover the no-op, the width-1 fast path, a partial
    // column tile, and a multi-tile batch (kSpmmTile = 8).
    const int k = static_cast<int>(rng.next_below(13));
    SCOPED_TRACE("case #" + std::to_string(i) + " [" + family +
                 "] engine " + engine_name + " width " + std::to_string(k) +
                 " seed " + std::to_string(seed));

    DenseBlock<double> x(a.cols, k);
    for (int c = 0; c < k; ++c)
      for (index_t r = 0; r < a.cols; ++r)
        x.at(r, c) = rng.next_double(0.5, 1.5);

    Device dev(DeviceSpec::gtx_titan());
    EngineConfig cfg;
    cfg.hyb_breakeven = 64;
    std::unique_ptr<acsr::spmv::SpmvEngine<double>> engine;
    try {
      engine = make_engine<double>(engine_name, dev, a, cfg);
    } catch (const acsr::InputError&) {
      ASSERT_STREQ(engine_name, "ell");
      ++format_skips;
      continue;
    }

    DenseBlock<double> y_apply;
    engine->apply_batch(x, y_apply);
    DenseBlock<double> y_sim;
    const double t = engine->simulate_batch(x, y_sim);
    ++batch_runs;
    ASSERT_EQ(y_apply.rows, a.rows);
    ASSERT_EQ(y_apply.width, k);
    ASSERT_EQ(y_sim.rows, a.rows);
    ASSERT_EQ(y_sim.width, k);
    if (k == 0) {
      EXPECT_EQ(t, 0.0) << "width-0 batch must not launch";
    } else {
      EXPECT_GE(t, 0.0);
    }

    const double eps = std::numeric_limits<double>::epsilon();
    for (int c = 0; c < k; ++c) {
      const std::vector<double> xc = x.column(c);
      std::vector<double> y_scalar;
      engine->apply(xc, y_scalar);
      EXPECT_EQ(y_apply.column(c), y_scalar)
          << "apply_batch diverges from scalar apply at column " << c;
      std::vector<double> y_ref;
      a.spmv(xc, y_ref);
      const std::vector<double> y_col = y_sim.column(c);
      EXPECT_EQ(y_col, y_scalar)
          << "simulate_batch is not apply bit for bit at column " << c;
      for (std::size_t r = 0; r < y_ref.size(); ++r) {
        const double n_row =
            static_cast<double>(a.row_nnz(static_cast<index_t>(r)));
        const double tol =
            (8.0 + 8.0 * n_row) * eps * std::max(1.0, std::abs(y_ref[r]));
        EXPECT_NEAR(y_col[r], y_ref[r], tol)
            << "simulate_batch diverges at column " << c << " row " << r;
      }
    }

    const auto& reports = Sanitizer::instance().reports();
    EXPECT_TRUE(reports.empty())
        << reports.size() << " sanitizer findings; first: "
        << reports.front().message;
    san.clear();
    if (::testing::Test::HasFatalFailure()) break;
  }
  san.set_enabled(false);
  san.clear();

  EXPECT_EQ(batch_runs + format_skips, n_cases);
  std::cout << "[spmm-fuzz] " << n_cases << " cases, " << batch_runs
            << " batch runs, " << format_skips << " format skips (seed "
            << seed << ")\n";
}

// Fault-plane fuzz: random injection plans (detectable kinds only — the
// silent=1 knob is the sanitizer-escape hatch, tested separately) against
// ResilientEngine with a standby device. Legal outcomes per case:
//
//   1. the driver recovers and the result is bitwise equal to a clean
//      simulate() of whatever format survived, on a fresh same-spec
//      device with injection off, or
//   2. a typed DeviceFault/DeviceOom escapes, carrying attribution.
//
// Anything else — a crash, a bare InvariantError, a silently wrong
// vector — is a bug in the recovery ladder.
TEST(DifferentialFuzz, RandomFaultPlansRecoverOrFailTyped) {
  const std::uint64_t seed = env_u64("ACSR_FUZZ_SEED", 2014);
  const std::size_t n_cases =
      static_cast<std::size_t>(env_u64("ACSR_FAULT_FUZZ", 200));
  using acsr::core::ResilientEngine;
  using acsr::vgpu::FaultInjector;

  static const char* const kClauses[] = {
      "oom@alloc",        "transient@launch", "ecc@launch", "corrupt@transfer",
      "stall@transfer",   "lost@launch",      "lost@transfer"};
  static const char* const kPreferred[] = {
      "csr-scalar", "csr", "ell", "hyb", "bccoo", "acsr", "acsr-binning"};

  const Rng root(seed ^ 0xfa0175);
  std::size_t recovered = 0;
  std::size_t typed_escapes = 0;
  for (std::size_t i = 0; i < n_cases; ++i) {
    Rng rng = root.split(i + 1);
    acsr::graph::PowerLawSpec s;
    s.rows = 8 + static_cast<index_t>(rng.next_below(120));
    s.cols = s.rows;
    s.mean_nnz_per_row = rng.next_double(1.0, 8.0);
    s.alpha = 1.6;
    s.max_row_nnz = std::max<offset_t>(1, s.rows / 2);
    s.seed = rng.next_u64();
    Csr<double> a = acsr::graph::powerlaw_matrix(s);
    for (auto& v : a.vals) v = rng.next_double(0.5, 1.5);

    std::string plan;
    const int n_clauses = 1 + static_cast<int>(rng.next_below(3));
    for (int c = 0; c < n_clauses; ++c) {
      if (c > 0) plan += ';';
      plan += kClauses[rng.next_below(std::size(kClauses))];
      plan += '#' + std::to_string(1 + rng.next_below(12));
      if (rng.next_bool(0.3)) plan += "*2";
      if (rng.next_bool(0.5))
        plan += ":seed=" + std::to_string(1 + rng.next_below(1000));
    }
    const std::string preferred =
        kPreferred[rng.next_below(std::size(kPreferred))];
    SCOPED_TRACE("case #" + std::to_string(i) + " plan '" + plan +
                 "' preferred " + preferred + " seed " + std::to_string(seed));

    std::vector<double> x(static_cast<std::size_t>(a.cols));
    for (auto& v : x) v = rng.next_double(0.5, 1.5);

    FaultInjector::instance().configure(plan);
    Device d0(DeviceSpec::gtx_titan());
    Device d1(DeviceSpec::gtx_titan());
    std::vector<double> y;
    std::string format;
    bool ok = false;
    try {
      ResilientEngine<double> engine({&d0, &d1}, a, preferred);
      engine.simulate(x, y);
      format = engine.active_format();
      ok = true;
    } catch (const acsr::vgpu::DeviceFault& e) {
      // Legal escalation (e.g. both devices lost): typed + attributed.
      EXPECT_FALSE(std::string(e.what()).empty());
      EXPECT_FALSE(e.device().empty());
      ++typed_escapes;
    } catch (const acsr::vgpu::DeviceOom& e) {
      // Fallback-chain exhaustion under persistent alloc failure.
      EXPECT_FALSE(std::string(e.what()).empty());
      ++typed_escapes;
    }
    FaultInjector::instance().disable();

    if (ok) {
      Device clean(DeviceSpec::gtx_titan());
      const auto oracle = make_engine<double>(format, clean, a, EngineConfig{});
      std::vector<double> want;
      oracle->simulate(x, want);
      EXPECT_EQ(y, want) << "recovered result diverges from a clean run of '"
                         << format << "'";
      ++recovered;
    }
    if (::testing::Test::HasFailure()) break;
  }
  FaultInjector::instance().disable();

  EXPECT_GT(recovered, 0u);  // the plans must not all be fatal
  std::cout << "[fault-fuzz] " << n_cases << " plans, " << recovered
            << " recovered bit-correct, " << typed_escapes
            << " typed escapes (seed " << seed << ")\n";
}

// ---------------------------------------------------------------------------
// Memo-plane fuzz.

#define EXPECT_COUNTER_EQ(field) \
  EXPECT_EQ(off.field, on.field) << "counter '" #field "' diverges"

void expect_counters_equal(const acsr::vgpu::Counters& off,
                           const acsr::vgpu::Counters& on) {
  EXPECT_COUNTER_EQ(blocks);
  EXPECT_COUNTER_EQ(warps);
  EXPECT_COUNTER_EQ(issue_cycles);
  EXPECT_COUNTER_EQ(sp_flops);
  EXPECT_COUNTER_EQ(dp_flops);
  EXPECT_COUNTER_EQ(gmem_requests);
  EXPECT_COUNTER_EQ(gmem_transactions);
  EXPECT_COUNTER_EQ(gmem_bytes);
  EXPECT_COUNTER_EQ(tex_requests);
  EXPECT_COUNTER_EQ(tex_transactions);
  EXPECT_COUNTER_EQ(tex_bytes);
  EXPECT_COUNTER_EQ(shuffle_ops);
  EXPECT_COUNTER_EQ(smem_accesses);
  EXPECT_COUNTER_EQ(atomic_ops);
  EXPECT_COUNTER_EQ(atomic_conflicts);
  EXPECT_COUNTER_EQ(child_launches);
  EXPECT_COUNTER_EQ(child_blocks);
}

#undef EXPECT_COUNTER_EQ

/// One multi-iteration solve sequence of `engine_name` on `a`: per-iter
/// simulated seconds and result vectors, plus the last run's counters.
struct SolveTrace {
  std::vector<double> ts;
  std::vector<std::vector<double>> ys;
  acsr::vgpu::KernelRun last;
  bool skipped = false;
};

SolveTrace run_solve_sequence(const Csr<double>& a, const char* engine_name,
                              const std::vector<std::vector<double>>& xs) {
  SolveTrace tr;
  Device dev(DeviceSpec::gtx_titan());
  EngineConfig cfg;
  cfg.hyb_breakeven = 64;
  std::unique_ptr<acsr::spmv::SpmvEngine<double>> engine;
  try {
    engine = make_engine<double>(engine_name, dev, a, cfg);
  } catch (const acsr::InputError&) {
    EXPECT_STREQ(engine_name, "ell");
    tr.skipped = true;
    return tr;
  }
  for (const auto& x : xs) {
    std::vector<double> y;
    tr.ts.push_back(engine->simulate(x, y));
    tr.ys.push_back(std::move(y));
  }
  tr.last = engine->report().last_run;
  return tr;
}

// Memoized multi-iteration solves (replay from iteration 2 on) must be
// observationally indistinguishable from unmemoized ones: same results,
// same durations, same counters, bit for bit.
TEST(DifferentialFuzz, MemoizedSolveSequencesMatchUnmemoizedExactly) {
  const std::uint64_t seed = env_u64("ACSR_FUZZ_SEED", 2014);
  const std::size_t n_cases =
      static_cast<std::size_t>(env_u64("ACSR_MEMO_FUZZ", 40));
  const Rng root(seed ^ 0x3e30);

  std::size_t compared = 0;
  for (std::size_t i = 0; i < n_cases; ++i) {
    Rng rng = root.split(i + 1);
    std::string family;
    const Csr<double> a = make_fuzz_matrix(i, root.split(i + 1), &family);
    a.validate();
    const char* engine_name = kEngines[rng.next_below(std::size(kEngines))];
    SCOPED_TRACE("case #" + std::to_string(i) + " [" + family +
                 "] engine " + engine_name + " seed " + std::to_string(seed));

    const int iters = 2 + static_cast<int>(rng.next_below(3));
    std::vector<std::vector<double>> xs;
    for (int k = 0; k < iters; ++k) {
      std::vector<double> x(static_cast<std::size_t>(a.cols));
      for (auto& v : x) v = rng.next_double(0.5, 1.5);
      xs.push_back(std::move(x));
    }

    acsr::vgpu::memo::set_memo_enabled(false);
    const SolveTrace off = run_solve_sequence(a, engine_name, xs);
    acsr::vgpu::memo::MemoCache::instance().clear();
    acsr::vgpu::memo::set_memo_enabled(true);
    const SolveTrace on = run_solve_sequence(a, engine_name, xs);
    acsr::vgpu::memo::set_memo_enabled(false);
    acsr::vgpu::memo::MemoCache::instance().clear();

    ASSERT_EQ(off.skipped, on.skipped);
    if (off.skipped) continue;
    EXPECT_EQ(off.ts, on.ts) << "simulated durations diverge";
    ASSERT_EQ(off.ys.size(), on.ys.size());
    for (std::size_t k = 0; k < off.ys.size(); ++k)
      EXPECT_EQ(off.ys[k], on.ys[k]) << "y diverges at iteration " << k;
    {
      const auto &off_run = off.last, &on_run = on.last;
      expect_counters_equal(off_run.counters, on_run.counters);
      EXPECT_EQ(off_run.duration_s, on_run.duration_s);
    }
    ++compared;
    if (::testing::Test::HasFatalFailure()) break;
  }
  std::cout << "[memo-fuzz] " << n_cases << " cases, " << compared
            << " compared memo-on vs memo-off (seed " << seed << ")\n";
}

// Dynamic path: random update/solve interleavings over IncrementalCsr,
// the solver leg keyed by the structure version. Updates must invalidate
// (key drift), solves between updates must replay, and the whole
// observable trace must match an unmemoized run exactly.
TEST(DifferentialFuzz, MemoizedUpdateSolveInterleavingsMatchExactly) {
  const std::uint64_t seed = env_u64("ACSR_FUZZ_SEED", 2014);
  const std::size_t n_cases =
      static_cast<std::size_t>(env_u64("ACSR_MEMO_FUZZ", 40) / 4 + 1);
  using acsr::core::AcsrLauncher;
  using acsr::core::Binning;
  using acsr::core::IncrementalCsr;

  const Rng root(seed ^ 0xd9a1);
  for (std::size_t i = 0; i < n_cases; ++i) {
    Rng rng = root.split(i + 1);
    acsr::graph::PowerLawSpec s;
    s.rows = 40 + static_cast<index_t>(rng.next_below(160));
    s.cols = s.rows;
    s.mean_nnz_per_row = rng.next_double(2.0, 8.0);
    s.alpha = 1.6;
    s.max_row_nnz = std::max<offset_t>(1, s.rows / 2);
    s.seed = rng.next_u64();
    Csr<double> a0 = acsr::graph::powerlaw_matrix(s);
    for (auto& v : a0.vals) v = rng.next_double(0.5, 1.5);

    // op sequence: true = solve, false = update (always starts with a
    // solve so the capture/replay pair is exercised before the first
    // invalidation).
    std::vector<bool> ops = {true, true};
    const int extra = 3 + static_cast<int>(rng.next_below(5));
    for (int k = 0; k < extra; ++k) ops.push_back(rng.next_bool(0.55));
    SCOPED_TRACE("case #" + std::to_string(i) + " rows " +
                 std::to_string(s.rows) + " ops " + std::to_string(ops.size()) +
                 " seed " + std::to_string(seed));

    const auto n = static_cast<std::size_t>(a0.rows);
    std::vector<double> x(n);
    for (auto& v : x) v = rng.next_double(0.5, 1.5);

    // Both runs replay this exact op/update schedule.
    auto run_trace = [&](bool memo_on) {
      acsr::vgpu::memo::MemoCache::instance().clear();
      acsr::vgpu::memo::set_memo_enabled(memo_on);
      std::vector<double> ts;
      std::vector<std::vector<double>> ys;
      Csr<double> current = a0;
      Device dev(DeviceSpec::gtx_titan());
      IncrementalCsr<double> inc(dev, current);
      auto x_dev = dev.alloc<double>(n, "fuzz.x");
      x_dev.host() = x;
      auto y_dev = dev.alloc<double>(n, "fuzz.y");
      acsr::core::AcsrOptions aopt;
      acsr::core::BinningOptions bopt = aopt.binning;
      bopt.enable_dp = dev.spec().supports_dynamic_parallelism();
      auto make_launcher = [&] {
        return std::make_unique<AcsrLauncher<double>>(
            dev, Binning::build(inc.row_lengths(), bopt, nullptr), aopt);
      };
      auto launcher = make_launcher();
      acsr::vgpu::memo::Memoizer memo(
          acsr::vgpu::memo::spec_fingerprint(dev.spec()) + "|fuzz-dyn");
      std::uint64_t update_seq = 0;
      for (const bool is_solve : ops) {
        if (is_solve) {
          y_dev.host().assign(n, 0.0);
          const double t = memo.run(
              dev,
              acsr::test::fixed_tail("spmv@v" +
                                     std::to_string(inc.version())),
              [&] {
                return launcher->run(inc.row_begin(), inc.row_end(),
                                     inc.col_idx(), inc.vals(),
                                     x_dev.cspan(), y_dev.span());
              });
          ts.push_back(t);
          ys.push_back(y_dev.host());
        } else {
          acsr::graph::UpdateParams up;
          up.seed = rng.next_u64() ^ ++update_seq;  // rng NOT shared: see below
          acsr::graph::UpdateBatch<double> batch =
              acsr::graph::generate_update(current, up);
          acsr::graph::apply_update_host(current, batch);
          inc.apply_update(batch);
          launcher = make_launcher();  // re-bin after a structural change
        }
      }
      acsr::vgpu::memo::set_memo_enabled(false);
      acsr::vgpu::memo::MemoCache::instance().clear();
      return std::make_pair(std::move(ts), std::move(ys));
    };

    // The lambda draws from `rng` for update seeds; fork identical copies
    // so both runs generate identical batches.
    Rng saved = rng;
    const auto off = run_trace(false);
    rng = saved;
    const auto on = run_trace(true);

    EXPECT_EQ(off.first, on.first) << "simulated durations diverge";
    ASSERT_EQ(off.second.size(), on.second.size());
    for (std::size_t k = 0; k < off.second.size(); ++k)
      EXPECT_EQ(off.second[k], on.second[k])
          << "y diverges at solve " << k;
    if (::testing::Test::HasFailure()) break;
  }
}

// ---------------------------------------------------------------------------
// Out-of-core storage-plane fuzz.

// Random storage-fault plans against budget-constrained streamed solves.
// Three sub-oracles per case:
//
//   1. faulted: an OocCsrEngine under a random `read`-site plan either
//      recovers to within 1e-9 of an in-core csr-vector run (the tier's
//      retry/checksum machinery absorbed the faults) or escapes as a
//      typed IoError with drive attribution — never a crash, never a
//      silent wrong vector;
//   2. memoized: a 3-iteration streamed solve sequence through the
//      resilient driver, under the case's `read` plan plus a seeded
//      launch transient, is bit-identical with ACSR_MEMO off and on in
//      results, durations, escaped errors, recovery log and fired
//      faults (memo replays under every plan that flips no bytes);
//   3. transition: on a device too small for any in-core format, a
//      memoized ResilientEngine must land on ooc-csr and still match the
//      memo-off run bitwise — the fallback rebuild invalidates the
//      displaced format's memo entries instead of replaying them.
TEST(DifferentialFuzz, OutOfCoreStorageFaultsMatchInCore) {
  const std::uint64_t seed = env_u64("ACSR_FUZZ_SEED", 2014);
  const std::size_t n_cases =
      static_cast<std::size_t>(env_u64("ACSR_OOC_FUZZ", 40));
  using acsr::core::OocCsrEngine;
  using acsr::core::OocOptions;
  using acsr::core::ResilientEngine;
  using acsr::vgpu::FaultInjector;

  static const char* const kIoClauses[] = {
      "io_transient@read", "io_timeout@read", "io_checksum@read",
      "io_degrade@read"};

  const Rng root(seed ^ 0x00c517);
  std::size_t recovered = 0;
  std::size_t typed_escapes = 0;
  std::uint64_t memo_replays = 0;
  for (std::size_t i = 0; i < n_cases; ++i) {
    Rng rng = root.split(i + 1);
    acsr::graph::PowerLawSpec s;
    s.rows = 16 + static_cast<index_t>(rng.next_below(200));
    s.cols = s.rows;
    s.mean_nnz_per_row = rng.next_double(1.0, 8.0);
    s.alpha = 1.6;
    s.max_row_nnz = std::max<offset_t>(1, s.rows / 2);
    s.seed = rng.next_u64();
    Csr<double> a = acsr::graph::powerlaw_matrix(s);
    for (auto& v : a.vals) v = rng.next_double(0.5, 1.5);
    std::vector<double> x(static_cast<std::size_t>(a.cols));
    for (auto& v : x) v = rng.next_double(0.5, 1.5);

    std::string plan;
    const int n_clauses = 1 + static_cast<int>(rng.next_below(2));
    for (int c = 0; c < n_clauses; ++c) {
      if (c > 0) plan += ';';
      const std::size_t k = rng.next_below(std::size(kIoClauses));
      plan += kIoClauses[k];
      plan += '#' + std::to_string(1 + rng.next_below(6));
      if (rng.next_bool(0.4))
        plan += '*' + std::to_string(1 + rng.next_below(8));
      if (k == 1) plan += ":ms=" + std::to_string(1 + rng.next_below(30));
      if (k == 2)
        plan += ":seed=" + std::to_string(1 + rng.next_below(1000));
      if (k == 3) plan += ":x=" + std::to_string(2 + rng.next_below(7));
    }
    OocOptions opt;
    opt.budget_bytes = std::size_t{4096} << rng.next_below(4);
    SCOPED_TRACE("case #" + std::to_string(i) + " plan '" + plan +
                 "' budget " + std::to_string(opt.budget_bytes) + " seed " +
                 std::to_string(seed));

    // In-core oracle, injection off.
    std::vector<double> want;
    {
      Device clean(DeviceSpec::gtx_titan());
      const auto oracle = make_engine<double>("csr-vector", clean, a);
      oracle->simulate(x, want);
    }

    // 1. Faulted streamed solve: 1e-9 against in-core, or typed IoError.
    FaultInjector::instance().configure(plan);
    {
      Device dev(DeviceSpec::gtx_titan());
      OocCsrEngine<double> engine(dev, a, opt);
      std::vector<double> y;
      try {
        engine.simulate(x, y);
        ASSERT_EQ(y.size(), want.size());
        for (std::size_t r = 0; r < want.size(); ++r)
          EXPECT_NEAR(y[r], want[r], 1e-9) << "row " << r;
        ++recovered;
      } catch (const acsr::vgpu::IoError& e) {
        EXPECT_FALSE(e.device().empty());
        ++typed_escapes;
      }
    }
    FaultInjector::instance().disable();

    // 2. Memo differential on the faulted streamed path: 3 iterations
    // through the resilient driver under the case's read-site plan plus a
    // seeded launch transient, replay from iteration 2 on. Memo replays
    // under every plan that flips no device bytes, and must be
    // observationally indistinguishable from metering: results, seconds,
    // escaped errors, the recovery log and the fired faults. MemoGuard
    // switches off the planes memo bypasses (sanitizer, reference
    // metering, profiler), so the oracle replays under any environment.
    Rng lrng = rng.split(0x7a);
    const std::string memo_plan =
        plan + ";transient@launch#" +
        std::to_string(1 + lrng.next_below(12)) +
        (lrng.next_bool(0.3) ? "*2" : "");
    struct Streamed {
      std::vector<double> ts;
      std::vector<std::vector<double>> ys;
      std::vector<std::string> escapes;
      std::vector<std::string> log;
      std::vector<std::string> events;
      std::uint64_t hits = 0;
    };
    auto streamed_trace = [&](bool memo) {
      acsr::test::MemoGuard guard(memo);
      FaultInjector::instance().configure(memo_plan);
      Streamed out;
      {
        Device dev(DeviceSpec::gtx_titan());
        EngineConfig cfg;
        cfg.ooc.budget_bytes = opt.budget_bytes;
        ResilientEngine<double> engine({&dev}, a, "ooc-csr", cfg);
        for (int it = 0; it < 3; ++it) {
          std::vector<double> y;
          double t = -1.0;
          std::string escape;
          try {
            t = engine.simulate(x, y);
          } catch (const acsr::vgpu::DeviceFault& e) {
            escape = e.what();
          }
          out.ts.push_back(t);
          out.ys.push_back(std::move(y));
          out.escapes.push_back(std::move(escape));
        }
        out.log = engine.recovery_log();
      }
      out.hits = acsr::vgpu::memo::MemoCache::instance().stats().hits;
      for (const acsr::vgpu::FaultEvent& e : FaultInjector::instance().events())
        out.events.push_back(std::string(acsr::vgpu::to_string(e.kind)) +
                             "#" + std::to_string(e.op_index) + "@" + e.where);
      FaultInjector::instance().disable();
      return out;
    };
    {
      SCOPED_TRACE("memo plan '" + memo_plan + "'");
      const Streamed off = streamed_trace(false);
      const Streamed on = streamed_trace(true);
      EXPECT_EQ(off.ts, on.ts) << "streamed durations diverge under memo";
      EXPECT_EQ(off.ys, on.ys) << "streamed results diverge under memo";
      EXPECT_EQ(off.escapes, on.escapes) << "escaped errors diverge";
      EXPECT_EQ(off.log, on.log) << "recovery logs diverge under memo";
      EXPECT_EQ(off.events, on.events) << "fired faults diverge under memo";
      memo_replays += on.hits;
    }

    // 3. Occasionally: natural-OOM fallback with the memo plane on. The
    // csr-vector rung is built (and possibly captured) first; its OOM
    // rebuild must invalidate those entries, not replay them as ooc-csr.
    // Needs a matrix whose half-footprint arena still holds the streamed
    // working set (two floor-sized slabs + staged x), so it gets its own
    // denser draw instead of reusing `a`.
    if (rng.next_bool(0.25)) {
      acsr::graph::PowerLawSpec fs;
      fs.rows = 384 + static_cast<index_t>(rng.next_below(256));
      fs.cols = fs.rows;
      fs.mean_nnz_per_row = 8.0;
      fs.alpha = 1.6;
      fs.max_row_nnz = fs.rows / 2;
      fs.seed = rng.next_u64();
      Csr<double> fa = acsr::graph::powerlaw_matrix(fs);
      for (auto& v : fa.vals) v = rng.next_double(0.5, 1.5);
      std::vector<double> fx(static_cast<std::size_t>(fa.cols));
      for (auto& v : fx) v = rng.next_double(0.5, 1.5);
      const std::size_t cap =
          (static_cast<std::size_t>(fa.rows) + 1) * sizeof(offset_t) +
          static_cast<std::size_t>(fa.nnz()) *
              (sizeof(index_t) + sizeof(double));
      auto fallback_trace = [&](bool memo) {
        acsr::vgpu::memo::set_memo_enabled(memo);
        Device dev(DeviceSpec::gtx_titan());
        dev.set_memory_capacity(cap / 2);
        ResilientEngine<double> engine({&dev}, fa, "csr-vector");
        EXPECT_EQ(engine.active_format(), "ooc-csr");
        std::vector<std::vector<double>> ys;
        for (int it = 0; it < 2; ++it) {
          std::vector<double> y;
          engine.simulate(fx, y);
          ys.push_back(std::move(y));
        }
        acsr::vgpu::memo::set_memo_enabled(false);
        acsr::vgpu::memo::MemoCache::instance().clear();
        return ys;
      };
      EXPECT_EQ(fallback_trace(false), fallback_trace(true))
          << "fallback results diverge under memo";
    }
    if (::testing::Test::HasFailure()) break;
  }
  FaultInjector::instance().disable();

  EXPECT_GT(recovered, 0u);  // the plans must not all be fatal
  EXPECT_GT(memo_replays, 0u);  // sub-oracle 2 replayed under its plans
  std::cout << "[ooc-fuzz] " << n_cases << " plans, " << recovered
            << " recovered within 1e-9, " << typed_escapes
            << " typed escapes, " << memo_replays
            << " faulted memo replays (seed " << seed << ")\n";
}

}  // namespace
