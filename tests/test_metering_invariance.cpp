// Metering-invariance contract of the executor fast path (docs/PERF.md).
//
// Warp's affine-gather fast path, the epoch-stamped sector caches, and the
// shared-memory arena are pure wall-clock optimisations: they must not
// change a single metered event. This harness runs every registered engine
// over seeded matrices spanning the structural space in ten executor
// modes —
//
//   fast        the default: analytic affine gathers, range-checked
//   reference   ACSR_REFERENCE_METERING semantics: the original per-lane
//               probe loops everywhere (set_reference_metering(true))
//   sanitized   fully instrumented (per-access memcheck/racecheck hooks;
//               the fast path is disabled automatically)
//   profiled    ACSR_PROF semantics (set_profiler_enabled(true)): the
//               fast path stays on and the profiler's lane tallies record
//               to the side — metering must be unaffected
//   memoized    ACSR_MEMO semantics (set_memo_enabled(true)): the first
//               simulate captures per-launch metering, the second replays
//               it and computes y through the launches' value kernels;
//               the *replayed* iteration is what gets compared here
//   fresh replay  the same plane, across devices: an engine captures on
//               one device, and a second engine over the same operand,
//               built on a fresh device, replays from its first call —
//               that call is what gets compared here
//   traced      ACSR_SLO semantics (slo::set_slo_enabled(true)): the
//               request-tracing plane records spans to the side —
//               spans are a view of the timeline (docs/SLO.md), so
//               metering must be unaffected
//   parallel    the host block pool forced to 2, 3 and 4 workers from one
//               block per worker (ScopedBlockParallelism): every grid that
//               declares blocks_independent runs its blocks on the pool
//               and merges the workers' shards (docs/PERF.md,
//               "Block-parallel metering")
//
// and asserts that the numeric result, every Counters field, and every
// KernelRun roofline term are BIT-identical across the ten. A second
// leg does the same for the batched SpMM kernels (simulate_batch) in the
// nine modes that change how a kernel executes.
//
// Each run uses a fresh Device: MemoryArena address slices are spaced
// 2^44 bytes apart, so corresponding buffers in consecutive arenas have
// addresses that differ by a multiple of 2^44 — which preserves both the
// 32 B sector offsets and the sector index modulo any power-of-two cache
// way count (<= 256). Identical access sequences therefore meter
// identically on fresh devices, and any divergence observed here is a real
// fast-path bug, not address noise. The memo key relies on the same fact
// (docs/PERF.md), which the fresh-replay mode pins.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/factory.hpp"
#include "graph/powerlaw.hpp"
#include "graph/rmat.hpp"
#include "prof/prof.hpp"
#include "slo/trace.hpp"
#include "vgpu/device.hpp"
#include "vgpu/memo.hpp"
#include "vgpu/sanitizer.hpp"

#include "memo_guard.hpp"

namespace {

using acsr::Rng;
using acsr::core::EngineConfig;
using acsr::core::make_engine;
using acsr::mat::Csr;
using acsr::mat::DenseBlock;
using acsr::mat::index_t;
using acsr::mat::offset_t;
using acsr::spmv::SpmvEngine;
using acsr::vgpu::Counters;
using acsr::vgpu::Device;
using acsr::vgpu::DeviceSpec;
using acsr::vgpu::KernelRun;
using acsr::vgpu::Sanitizer;

const char* const kEngines[] = {
    "csr-scalar", "csr-vector", "csr",  "ell",  "coo",
    "hyb",        "brc",        "bccoo", "tcoo", "sic",
    "bcsr",       "sell",       "merge-csr", "acsr", "acsr-binning",
    "ooc-csr",
};

Csr<double> rmat_matrix(int scale, double epv, Rng& rng) {
  acsr::graph::RmatParams p;
  p.scale = scale;
  p.edges_per_vertex = epv;
  p.seed = rng.next_u64();
  Csr<double> m = Csr<double>::from_coo(acsr::graph::rmat(p));
  for (auto& v : m.vals) v = rng.next_double(0.5, 1.5);
  return m;
}

Csr<double> powerlaw(index_t rows, index_t cols, double mean, Rng& rng) {
  acsr::graph::PowerLawSpec s;
  s.rows = rows;
  s.cols = cols;
  s.mean_nnz_per_row = mean;
  s.alpha = 1.6;
  s.max_row_nnz = std::max<offset_t>(1, cols / 2);
  s.tail_rows = 2;
  s.seed = rng.next_u64();
  Csr<double> m = acsr::graph::powerlaw_matrix(s);
  for (auto& v : m.vals) v = rng.next_double(0.5, 1.5);
  return m;
}

/// A dense row past the dynamic-parallelism bin threshold plus sparse
/// rest: exercises ACSR's child launches through all three modes.
Csr<double> dense_row_matrix(index_t n, int dense_nnz, Rng& rng) {
  Csr<double> m;
  m.rows = n;
  m.cols = n;
  m.row_off.assign(1, 0);
  const auto dense_at = static_cast<index_t>(n / 3);
  std::vector<index_t> cols;
  for (index_t r = 0; r < n; ++r) {
    const int want = r == dense_at ? dense_nnz
                                   : static_cast<int>(rng.next_below(4));
    cols.clear();
    while (static_cast<int>(cols.size()) < want) {
      cols.push_back(static_cast<index_t>(
          rng.next_below(static_cast<std::uint64_t>(n))));
      std::sort(cols.begin(), cols.end());
      cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
    }
    for (index_t c : cols) {
      m.col_idx.push_back(c);
      m.vals.push_back(rng.next_double(0.5, 1.5));
    }
    m.row_off.push_back(static_cast<offset_t>(m.col_idx.size()));
  }
  return m;
}

Csr<double> all_empty(index_t rows, index_t cols) {
  Csr<double> m;
  m.rows = rows;
  m.cols = cols;
  m.row_off.assign(static_cast<std::size_t>(rows) + 1, 0);
  return m;
}

std::vector<Csr<double>> make_matrices(std::uint64_t seed) {
  const Rng root(seed);
  std::vector<Csr<double>> ms;
  Rng r1 = root.split(1);
  ms.push_back(rmat_matrix(6, 4.0, r1));
  Rng r2 = root.split(2);
  ms.push_back(powerlaw(180, 160, 5.0, r2));
  Rng r3 = root.split(3);
  ms.push_back(dense_row_matrix(300, 300, r3));
  ms.push_back(all_empty(17, 9));
  Rng r4 = root.split(4);
  ms.push_back(powerlaw(40, 2000, 30.0, r4));  // wide rows, long gathers
  return ms;
}

/// Every Counters field, by name (the X-macro field list).
void expect_counters_identical(const Counters& a, const Counters& b) {
#define ACSR_EXPECT_SAME_FIELD(type, name, unit, what) \
  EXPECT_EQ(a.name, b.name) << "counter '" #name "' diverges";
  ACSR_COUNTERS_FIELDS(ACSR_EXPECT_SAME_FIELD)
#undef ACSR_EXPECT_SAME_FIELD
}

void expect_run_identical(const KernelRun& a, const KernelRun& b) {
  expect_counters_identical(a.counters, b.counters);
  // Roofline terms: derived purely from counters + spec, so they must be
  // bit-equal doubles, not merely close.
  EXPECT_EQ(a.issue_s, b.issue_s);
  EXPECT_EQ(a.flop_s, b.flop_s);
  EXPECT_EQ(a.memory_s, b.memory_s);
  EXPECT_EQ(a.latency_s, b.latency_s);
  EXPECT_EQ(a.launch_s, b.launch_s);
  EXPECT_EQ(a.dp_s, b.dp_s);
  EXPECT_EQ(a.dram_bytes, b.dram_bytes);
  EXPECT_EQ(a.duration_s, b.duration_s);
}

struct ModeResult {
  bool skipped = false;  // ELL refusing a pathological shape
  double duration = 0.0;
  std::vector<double> y;
  KernelRun run;
};

enum class Mode { kFast, kReference, kSanitized, kProfiled, kMemoized,
                  kMemoFresh, kTraced, kParallel2, kParallel3, kParallel4 };

/// Pool workers of a parallel mode, 0 for the others.
int parallel_workers(Mode m) {
  switch (m) {
    case Mode::kParallel2: return 2;
    case Mode::kParallel3: return 3;
    case Mode::kParallel4: return 4;
    default: return 0;
  }
}

/// One simulated product on an engine: returns simulated seconds and
/// fills y (a batch's y is its column-major block payload).
using Simulate =
    std::function<double(SpmvEngine<double>&, std::vector<double>&)>;

ModeResult run_mode(const Csr<double>& a, const char* engine_name,
                    const Simulate& simulate, Mode mode) {
  Sanitizer& san = Sanitizer::instance();
  acsr::vgpu::set_reference_metering(mode == Mode::kReference);
  if (mode == Mode::kSanitized) {
    san.clear();
    san.set_enabled(true);
  }
  if (mode == Mode::kProfiled) {
    acsr::prof::Profiler::instance().clear();
    acsr::prof::set_profiler_enabled(true);
  }
  const bool memo = mode == Mode::kMemoized || mode == Mode::kMemoFresh;
  if (memo) {
    acsr::vgpu::memo::MemoCache::instance().clear();
    acsr::vgpu::memo::MemoCache::instance().reset_stats();
    acsr::vgpu::memo::set_memo_enabled(true);
  }
  if (mode == Mode::kTraced) {
    acsr::slo::Tracer::instance().clear();
    acsr::slo::set_slo_enabled(true);
  }
  std::optional<acsr::vgpu::ScopedBlockParallelism> pool;
  if (parallel_workers(mode) > 0)
    pool.emplace(parallel_workers(mode), /*min_blocks_per_worker=*/1);

  ModeResult res;
  EngineConfig cfg;
  cfg.hyb_breakeven = 64;
  if (mode == Mode::kMemoFresh) {
    // The capture, on a device and engine of its own.
    Device dev(DeviceSpec::gtx_titan());
    try {
      auto engine = make_engine<double>(engine_name, dev, a, cfg);
      std::vector<double> y;
      simulate(*engine, y);
    } catch (const acsr::InputError&) {
    }
  }
  {
    Device dev(DeviceSpec::gtx_titan());
    try {
      auto engine = make_engine<double>(engine_name, dev, a, cfg);
      res.duration = simulate(*engine, res.y);
      if (mode == Mode::kMemoized) {
        // The first simulate captured the launch metering; the second
        // replays it (y from the value kernels, metering from the cache).
        // The replayed iteration is the one under test.
        res.y.clear();
        res.duration = simulate(*engine, res.y);
      }
      res.run = engine->report().last_run;
    } catch (const acsr::InputError&) {
      EXPECT_STREQ(engine_name, "ell");
      res.skipped = true;
    }
  }

  acsr::vgpu::set_reference_metering(false);
  if (mode == Mode::kSanitized) {
    EXPECT_TRUE(san.reports().empty())
        << san.reports().size() << " sanitizer findings; first: "
        << san.reports().front().message;
    san.set_enabled(false);
    san.clear();
  }
  if (mode == Mode::kProfiled) {
    // ACSR on an all-empty matrix issues no kernels at all (every bin and
    // the DP work list are empty), so only demand samples when there is
    // work to launch.
    EXPECT_TRUE(res.skipped || a.nnz() == 0 ||
                !acsr::prof::Profiler::instance().launches().empty())
        << "profiler recorded no launches while enabled";
    acsr::prof::set_profiler_enabled(false);
    acsr::prof::Profiler::instance().clear();
  }
  if (memo) {
    // The compared simulate must have been served from the cache — if it
    // missed, this mode silently degenerated into plain re-simulation and
    // the comparison below would prove nothing.
    const auto st = acsr::vgpu::memo::MemoCache::instance().stats();
    EXPECT_TRUE(res.skipped || (st.hits >= 1 && st.misses == 1))
        << "memoized replay never hit the cache (hits=" << st.hits
        << " misses=" << st.misses << " bypasses=" << st.bypasses << ")";
    acsr::vgpu::memo::set_memo_enabled(false);
    acsr::vgpu::memo::MemoCache::instance().clear();
  }
  if (mode == Mode::kTraced) {
    acsr::slo::set_slo_enabled(false);
    acsr::slo::Tracer::instance().clear();
  }
  return res;
}

const Mode kAllModes[] = {Mode::kFast,      Mode::kReference,
                          Mode::kSanitized, Mode::kProfiled,
                          Mode::kMemoized,  Mode::kMemoFresh,
                          Mode::kTraced,    Mode::kParallel2,
                          Mode::kParallel3, Mode::kParallel4};

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kFast: return "fast";
    case Mode::kReference: return "reference";
    case Mode::kSanitized: return "sanitized";
    case Mode::kProfiled: return "profiled";
    case Mode::kMemoized: return "memoized replay";
    case Mode::kMemoFresh: return "fresh replay";
    case Mode::kTraced: return "traced";
    case Mode::kParallel2: return "parallel x2";
    case Mode::kParallel3: return "parallel x3";
    case Mode::kParallel4: return "parallel x4";
  }
  return "?";
}

/// Runs `simulate` in every mode of `modes` (the first is the baseline)
/// and expects y, the simulated seconds and the KernelRun bit-identical
/// to the baseline's. False when the engine refused the matrix.
template <std::size_t N>
bool expect_modes_identical(const Csr<double>& a, const char* engine_name,
                            const Simulate& simulate, const Mode (&modes)[N]) {
  std::vector<ModeResult> res;
  for (const Mode m : modes)
    res.push_back(run_mode(a, engine_name, simulate, m));
  const ModeResult& base = res.front();
  for (std::size_t i = 1; i < N; ++i) {
    SCOPED_TRACE(std::string(mode_name(modes[0])) + " vs " +
                 mode_name(modes[i]));
    const ModeResult& other = res[i];
    EXPECT_EQ(base.skipped, other.skipped);
    if (base.skipped || other.skipped) continue;
    // Numeric result: the fast path reads the same elements in the same
    // per-lane order, so y must match to the last bit.
    EXPECT_EQ(base.y.size(), other.y.size());
    for (std::size_t r = 0; r < std::min(base.y.size(), other.y.size()); ++r)
      EXPECT_EQ(base.y[r], other.y[r]) << "y diverges at element " << r;
    EXPECT_EQ(base.duration, other.duration);
    expect_run_identical(base.run, other.run);
  }
  return !base.skipped;
}

TEST(MeteringInvariance, FastReferenceAndSanitizedPathsAreBitIdentical) {
  const auto matrices = make_matrices(/*seed=*/2014);
  const Rng root(0x5eed);

  std::size_t compared = 0;
  const std::uint64_t pooled = acsr::vgpu::block_parallel_launches();
  for (std::size_t mi = 0; mi < matrices.size(); ++mi) {
    const Csr<double>& a = matrices[mi];
    a.validate();
    Rng xrng = root.split(mi + 1);
    std::vector<double> x(static_cast<std::size_t>(a.cols));
    for (auto& v : x) v = xrng.next_double(0.5, 1.5);

    for (const char* engine_name : kEngines) {
      SCOPED_TRACE("matrix #" + std::to_string(mi) + " engine " +
                   engine_name);
      const Simulate simulate = [&](SpmvEngine<double>& e,
                                    std::vector<double>& y) {
        return e.simulate(x, y);
      };
      if (!expect_modes_identical(a, engine_name, simulate, kAllModes))
        continue;
      ++compared;
    }
  }
  // The contract must have been exercised broadly, not vacuously skipped.
  EXPECT_GE(compared, matrices.size() * 14);
  // The parallel modes ran grids on the pool, not only in order.
  EXPECT_GT(acsr::vgpu::block_parallel_launches(), pooled);
  std::cout << "[invariance] " << compared << " engine/matrix cells over "
            << matrices.size() << " matrices, 10 modes each\n";
}

/// The batched SpMM kernels (simulate_batch) of the three engines with
/// real column-blocked kernels, at widths on both sides of the
/// kSpmmTile = 8 column tile (1 routes through the scalar SpMV), in the
/// nine modes that change how a kernel executes: fast, reference,
/// sanitized, profiled, memoized replay, fresh replay and the three
/// parallel ones. The matrices include ACSR's dynamic-parallelism rows,
/// so the batched child grids run too.
TEST(MeteringInvariance, BatchedSpmmIsBitIdenticalAcrossModes) {
  const Mode kModes[] = {Mode::kFast,      Mode::kReference,
                         Mode::kSanitized, Mode::kProfiled,
                         Mode::kMemoized,  Mode::kMemoFresh,
                         Mode::kParallel2, Mode::kParallel3,
                         Mode::kParallel4};
  const auto matrices = make_matrices(/*seed=*/2014);
  const Rng root(0xb47c);

  std::size_t compared = 0;
  const std::uint64_t pooled = acsr::vgpu::block_parallel_launches();
  std::uint64_t acsr_child_launches = 0;
  for (std::size_t mi = 0; mi < matrices.size(); ++mi) {
    const Csr<double>& a = matrices[mi];
    for (const int k : {1, 3, 8, 9, 17, 32}) {
      Rng xrng = root.split(mi * 64 + static_cast<std::size_t>(k));
      DenseBlock<double> xb(a.cols, k);
      for (int c = 0; c < k; ++c)
        for (index_t r = 0; r < a.cols; ++r)
          xb.at(r, c) = xrng.next_double(0.5, 1.5);
      for (const char* engine_name : {"acsr", "csr-vector", "csr-scalar"}) {
        SCOPED_TRACE("matrix #" + std::to_string(mi) + " width " +
                     std::to_string(k) + " engine " + engine_name);
        std::uint64_t children = 0;
        const Simulate simulate = [&](SpmvEngine<double>& e,
                                      std::vector<double>& y) {
          DenseBlock<double> yb;
          const double t = e.simulate_batch(xb, yb);
          y = yb.data;
          children += e.report().last_run.counters.child_launches;
          return t;
        };
        if (!expect_modes_identical(a, engine_name, simulate, kModes))
          continue;
        if (k > 1 && std::string(engine_name) == "acsr")
          acsr_child_launches += children;
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, matrices.size() * 6 * 3);
  EXPECT_GT(acsr_child_launches, 0u)
      << "no batched dynamic-parallelism child grid ran";
  EXPECT_GT(acsr::vgpu::block_parallel_launches(), pooled);
  std::cout << "[invariance] " << compared
            << " batched engine/matrix/width cells, 9 modes each\n";
}

/// The raw warp-level primitives, pinned directly: affine loads/stores at
/// every stride the fast path accepts (0, partial-sector, exactly one
/// sector) plus the rejection cases (negative, > one sector, non-affine),
/// compared fast-vs-reference at counter granularity.
TEST(MeteringInvariance, WarpPrimitivesMatchAtEveryStride) {
  using acsr::vgpu::LaneArray;

  struct Pattern {
    const char* name;
    long long base, step;
    int live;  // active prefix lanes
  };
  const Pattern patterns[] = {
      {"broadcast (step 0)", 40, 0, 32},   {"unit stride", 3, 1, 32},
      {"unit stride ragged", 5, 1, 19},    {"stride 2", 0, 2, 32},
      {"stride 4 (sector)", 8, 4, 32},     {"stride 5 (reject)", 0, 5, 32},
      {"descending (reject)", 200, -3, 32}, {"single lane", 77, 9, 1},
  };

  for (const Pattern& p : patterns) {
    SCOPED_TRACE(p.name);
    // Modes: fast, then reference, with every other plane off.
    const acsr::test::MemoGuard planes(/*memo_on=*/false);
    KernelRun runs[2];
    std::vector<double> outs[2];
    for (int mode = 0; mode < 2; ++mode) {
      acsr::vgpu::set_reference_metering(mode == 1);
      Device dev(DeviceSpec::gtx_titan());
      auto src = dev.alloc<double>(4096, "src");
      auto col = dev.alloc<int>(4096, "col");
      for (std::size_t i = 0; i < 4096; ++i) {
        src.host()[i] = static_cast<double>(i) * 0.5;
        col.host()[i] = static_cast<int>(3 * i + 1);
      }
      auto dst = dev.alloc<double>(4096, "dst");
      dst.host().assign(4096, 0.0);
      auto s = src.cspan();
      auto c = col.cspan();
      auto d = dst.span();
      acsr::vgpu::LaunchConfig cfg;
      cfg.name = "stride_probe";
      cfg.block_dim = 64;
      cfg.grid_dim = 2;
      runs[mode] = dev.launch_warps(cfg, [&](acsr::vgpu::Warp& w) {
        const auto idx = LaneArray<long long>::iota(p.base, p.step);
        const acsr::vgpu::Mask m = acsr::vgpu::first_lanes(p.live);
        const auto v = w.load(s, idx, m);
        const auto t = w.load_tex(s, idx, m);
        const auto u = w.load_gather_uncached(s, idx, m);
        LaneArray<double> pv;
        LaneArray<int> pc;
        w.load_pair(s, c, idx, m, pv, pc);
        LaneArray<double> sum;
        for (int l = 0; l < acsr::vgpu::kWarpSize; ++l)
          sum[l] = v[l] + t[l] + u[l] + pv[l] + pc[l];
        w.store(d, idx, sum, m);
      });
      outs[mode] = dst.host();
    }
    acsr::vgpu::set_reference_metering(false);
    expect_run_identical(runs[0], runs[1]);
    EXPECT_EQ(outs[0], outs[1]);
  }

  // Non-affine gather (hash scatter): must take the reference loop on both
  // modes and still agree.
  KernelRun runs[2];
  for (int mode = 0; mode < 2; ++mode) {
    acsr::vgpu::set_reference_metering(mode == 1);
    Device dev(DeviceSpec::gtx_titan());
    auto src = dev.alloc<double>(4096, "src");
    src.host().assign(4096, 1.0);
    auto s = src.cspan();
    acsr::vgpu::LaunchConfig cfg;
    cfg.name = "scatter_probe";
    cfg.block_dim = 64;
    cfg.grid_dim = 2;
    runs[mode] = dev.launch_warps(cfg, [&](acsr::vgpu::Warp& w) {
      const auto idx = w.global_threads().map(
          [](long long t) { return (t * 2654435761LL + 7) & 4095; });
      const auto v = w.load(s, idx, w.active_mask());
      w.count_flops(w.active_mask(), static_cast<int>(v[0] > 0.0), true);
    });
  }
  acsr::vgpu::set_reference_metering(false);
  expect_run_identical(runs[0], runs[1]);
}

}  // namespace
