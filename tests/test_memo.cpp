// Unit tests for the launch-metering memo layer (src/vgpu/memo.hpp).
//
// Cache-key semantics: an entry is keyed by what metering depends on —
// the spec, the owner's recipe (engine, config, operand structure), and
// where its buffers sit relative to the arena's base. Repeated
// key-identical executions hit, and so does a second engine built the
// same way on a fresh device, from its first call; spec, config, layout,
// launch-geometry and structure-version differences miss; value-only
// changes hit and the value plane is recomputed. Entries outlive their
// owners and the cache evicts the least recently used past its bound; a
// rebuild on the same device (the resilient driver's scrub, fallback and
// failover paths) starts at a later arena offset, so it captures. Fault
// plans that flip device bytes (ecc, corrupt) bypass memoization
// outright; every other plan replays, and fires at the same ordinals
// with the same outcome as a metered run.
//
// The bit-identity of replayed metering across all engines is pinned
// separately by tests/test_metering_invariance.cpp (the memoized modes).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/factory.hpp"
#include "core/incremental_csr.hpp"
#include "core/resilient.hpp"
#include "graph/dynamic.hpp"
#include "graph/powerlaw.hpp"
#include "slo/trace.hpp"
#include "spmv/csr_vector.hpp"
#include "vgpu/device.hpp"
#include "vgpu/fault.hpp"
#include "vgpu/memo.hpp"
#include "vgpu/sanitizer.hpp"

#include "memo_guard.hpp"

namespace {

using acsr::core::EngineConfig;
using acsr::core::IncrementalCsr;
using acsr::core::make_engine;
using acsr::core::ResilientEngine;
using acsr::mat::Csr;
using acsr::slo::Tracer;
using acsr::vgpu::Device;
using acsr::vgpu::DeviceSpec;
using acsr::vgpu::FaultInjector;
using acsr::vgpu::KernelRun;
using acsr::vgpu::memo::MemoCache;
using acsr::vgpu::memo::MemoEntry;
using acsr::vgpu::memo::MemoStats;
using acsr::vgpu::memo::Memoizer;
using acsr::vgpu::memo::spec_fingerprint;
using acsr::test::fixed_tail;
using acsr::test::MemoGuard;

Csr<double> powerlaw(int rows, double mu, std::uint64_t seed) {
  acsr::graph::PowerLawSpec s;
  s.rows = rows;
  s.cols = rows;
  s.mean_nnz_per_row = mu;
  s.alpha = 1.6;
  s.max_row_nnz = rows / 2;
  s.seed = seed;
  Csr<double> m = acsr::graph::powerlaw_matrix(s);
  acsr::Rng rng(seed ^ 0x5eed);
  for (auto& v : m.vals) v = rng.next_double(0.5, 1.5);
  return m;
}

std::vector<double> random_x(std::size_t n, std::uint64_t seed) {
  acsr::Rng rng(seed);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.next_double(0.5, 1.5);
  return x;
}

// ---------------------------------------------------------------------------
// Key material.

TEST(MemoKey, SpecFingerprintSeparatesDevices) {
  const DeviceSpec titan = DeviceSpec::gtx_titan();
  const DeviceSpec k10 = DeviceSpec::tesla_k10();
  EXPECT_EQ(spec_fingerprint(titan), spec_fingerprint(DeviceSpec::gtx_titan()));
  EXPECT_NE(spec_fingerprint(titan), spec_fingerprint(k10));
  EXPECT_NE(spec_fingerprint(titan), spec_fingerprint(DeviceSpec::gtx580()));

  // Every parameter, changed in turn by the smallest step its type has
  // (integers +1, doubles one ulp up), must give a new fingerprint: keys
  // are shared across devices, so a cached entry from a device that
  // differs anywhere would replay wrong roofline terms on another.
#define ACSR_STEP_INT(f) {#f, [](DeviceSpec& s) { ++s.f; }}
#define ACSR_STEP_REAL(f) \
  {#f, [](DeviceSpec& s) { s.f = std::nextafter(s.f, HUGE_VAL); }}
  const std::pair<const char*, void (*)(DeviceSpec&)> steps[] = {
      {"name", [](DeviceSpec& s) { s.name += '_'; }},
      ACSR_STEP_INT(compute_major),
      ACSR_STEP_INT(compute_minor),
      ACSR_STEP_INT(sm_count),
      ACSR_STEP_INT(cores_per_sm),
      ACSR_STEP_REAL(clock_ghz),
      ACSR_STEP_REAL(dram_bandwidth_gbs),
      ACSR_STEP_REAL(pcie_bandwidth_gbs),
      ACSR_STEP_INT(global_mem_bytes),
      ACSR_STEP_INT(l2_bytes),
      ACSR_STEP_INT(warp_size),
      ACSR_STEP_INT(max_threads_per_block),
      ACSR_STEP_INT(max_resident_warps_per_sm),
      ACSR_STEP_INT(shared_mem_per_block_bytes),
      ACSR_STEP_REAL(issue_slots_per_sm),
      ACSR_STEP_REAL(sp_flops_per_cycle_per_sm),
      ACSR_STEP_REAL(dp_throughput_ratio),
      ACSR_STEP_INT(tex_cache_bytes_per_sm),
      ACSR_STEP_REAL(tex_reuse_factor),
      ACSR_STEP_REAL(tex_min_miss),
      ACSR_STEP_REAL(tex_max_miss),
      ACSR_STEP_REAL(gmem_latency_cycles),
      ACSR_STEP_REAL(mem_pipeline_cycles),
      ACSR_STEP_REAL(alu_latency_cycles),
      ACSR_STEP_REAL(host_launch_overhead_s),
      ACSR_STEP_REAL(child_launch_overhead_s),
      ACSR_STEP_INT(pending_launch_limit),
      ACSR_STEP_REAL(over_limit_penalty_s),
      ACSR_STEP_REAL(async_launch_gap_s),
      ACSR_STEP_REAL(transfer_setup_s),
      ACSR_STEP_REAL(multi_gpu_sync_s),
      ACSR_STEP_REAL(dram_efficiency),
      ACSR_STEP_REAL(saturation_warps_per_sm),
  };
#undef ACSR_STEP_INT
#undef ACSR_STEP_REAL
  std::set<std::string> seen = {spec_fingerprint(titan)};
  for (const auto& [field, step] : steps) {
    DeviceSpec s = titan;
    step(s);
    EXPECT_TRUE(seen.insert(spec_fingerprint(s)).second)
        << field << " does not reach the fingerprint";
  }
}

// A tiny copy kernel whose grid is a parameter — the raw-Memoizer probe
// used by the key/geometry tests below. Its value kernel copies what the
// grid's threads copy.
double launch_copy(Device& dev, acsr::vgpu::DeviceSpan<const double> src,
                   acsr::vgpu::DeviceSpan<double> dst, long long grid) {
  acsr::vgpu::LaunchConfig cfg;
  cfg.name = "memo_probe";
  cfg.block_dim = 64;
  cfg.grid_dim = grid;
  const long long n = static_cast<long long>(src.size());
  const KernelRun run = dev.launch_warps(
      cfg,
      [&](acsr::vgpu::Warp& w) {
        const auto idx = w.global_threads();
        const acsr::vgpu::Mask m =
            idx.where([n](long long i) { return i < n; }, w.active_mask());
        if (m == 0) return;
        const auto v = w.load(src, idx, m);
        w.store(dst, idx, v, m);
      },
      nullptr,
      [&] {
        const auto copied = static_cast<std::size_t>(
            std::min(n, grid * cfg.block_dim));
        for (std::size_t i = 0; i < copied; ++i) dst[i] = src[i];
      });
  return run.duration_s;
}

TEST(MemoKey, GridConfigMissesValueChangesHit) {
  MemoGuard guard;
  Device dev(DeviceSpec::gtx_titan());
  auto src = dev.alloc<double>(256, "src");
  auto dst = dev.alloc<double>(256, "dst");
  for (std::size_t i = 0; i < 256; ++i)
    src.host()[i] = static_cast<double>(i);

  Memoizer memo(spec_fingerprint(dev.spec()) + "|probe");
  auto run_grid = [&](long long grid) {
    // Launch geometry is key material: callers fold it into the subkey
    // (replay additionally validates it against the captured record).
    return memo.run(dev, fixed_tail("g" + std::to_string(grid)), [&] {
      return launch_copy(dev, src.cspan(), dst.span(), grid);
    });
  };

  const double t4 = run_grid(4);  // miss: capture
  EXPECT_EQ(MemoCache::instance().stats().misses, 1u);
  EXPECT_EQ(MemoCache::instance().stats().hits, 0u);
  EXPECT_EQ(dst.host()[255], 255.0);

  const double t4_replay = run_grid(4);  // hit: replay
  EXPECT_EQ(MemoCache::instance().stats().hits, 1u);
  EXPECT_EQ(t4_replay, t4);

  run_grid(2);  // different geometry: its own entry
  EXPECT_EQ(MemoCache::instance().stats().misses, 2u);
  EXPECT_EQ(MemoCache::instance().size(), 2u);

  // Value-only change: same key hits, and the replayed launch's value
  // kernel recomputes the value plane from the new input.
  for (std::size_t i = 0; i < 256; ++i)
    src.host()[i] = static_cast<double>(i) * 3.0;
  const double t4_again = run_grid(4);
  EXPECT_EQ(MemoCache::instance().stats().hits, 2u);
  EXPECT_EQ(t4_again, t4);
  EXPECT_EQ(dst.host()[100], 300.0);
}

TEST(MemoKey, ReplayValidatesLaunchGeometry) {
  MemoGuard guard;
  Device dev(DeviceSpec::gtx_titan());
  auto src = dev.alloc<double>(128, "src");
  src.host().assign(128, 1.0);
  auto dst = dev.alloc<double>(128, "dst");

  Memoizer memo(spec_fingerprint(dev.spec()) + "|probe");
  memo.run(dev, fixed_tail("fixed"), [&] {
    return launch_copy(dev, src.cspan(), dst.span(), 2);
  });
  // A caller that fails the subkey discipline — same key, different
  // geometry — must be rejected loudly, never silently replay the wrong
  // metering.
  EXPECT_THROW(memo.run(dev, fixed_tail("fixed"),
                        [&] {
                          return launch_copy(dev, src.cspan(), dst.span(), 4);
                        }),
               acsr::InvariantError);
}

TEST(MemoKey, EntriesOutliveTheirOwnerAndEvictLeastRecentlyUsed) {
  MemoGuard guard;
  Device dev(DeviceSpec::gtx_titan());
  auto src = dev.alloc<double>(64, "src");
  src.host().assign(64, 2.0);
  auto dst = dev.alloc<double>(64, "dst");
  const std::string recipe = spec_fingerprint(dev.spec()) + "|probe";
  const auto copy = [&] {
    return launch_copy(dev, src.cspan(), dst.span(), 1);
  };
  {
    Memoizer memo(recipe);
    memo.run(dev, fixed_tail("spmv"), copy);
  }
  // The owner is gone, its entry is not: a successor with the same recipe
  // over the same layout replays it.
  EXPECT_EQ(MemoCache::instance().size(), 1u);
  Memoizer successor(recipe);
  successor.run(dev, fixed_tail("spmv"), copy);
  EXPECT_EQ(MemoCache::instance().stats().hits, 1u);
  EXPECT_EQ(MemoCache::instance().stats().misses, 1u);

  // The bound: three entries of 0.3 x kMaxBytes fit, a fourth evicts the
  // least recently used one — "b", since finding "a" refreshed it.
  MemoCache& cache = MemoCache::instance();
  cache.clear();
  const auto entry = [] {
    MemoEntry e;
    e.launches.resize(MemoCache::kMaxBytes * 3 / 10 /
                      sizeof(acsr::vgpu::memo::LaunchRecord));
    return e;
  };
  for (const char* key : {"a", "b", "c"}) cache.put(key, entry());
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_NE(cache.find("a"), nullptr);
  cache.put("d", entry());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(cache.contains("a"));
  EXPECT_FALSE(cache.contains("b"));
  EXPECT_TRUE(cache.contains("c"));
  EXPECT_TRUE(cache.contains("d"));
  EXPECT_LE(cache.bytes(), MemoCache::kMaxBytes);
}

// ---------------------------------------------------------------------------
// Structure-version invalidation (dynamic graphs).

TEST(MemoInvalidation, StructureVersionBumpsOnUpdateAndMisses) {
  MemoGuard guard;
  Device dev(DeviceSpec::gtx_titan());
  Csr<double> truth = powerlaw(200, 5.0, 17);
  IncrementalCsr<double> inc(dev, truth);
  EXPECT_EQ(inc.version(), 0u);

  auto src = dev.alloc<double>(64, "src");
  src.host().assign(64, 1.0);
  auto dst = dev.alloc<double>(64, "dst");
  Memoizer memo(spec_fingerprint(dev.spec()) + "|dyn");
  auto run_versioned = [&] {
    // The dynamic path's subkey folds in the structure version, so a
    // batch update invalidates by key drift (the stale entry ages out of
    // the cache).
    const auto tail = fixed_tail("spmv@v" + std::to_string(inc.version()));
    return memo.run(dev, tail, [&] {
      return launch_copy(dev, src.cspan(), dst.span(), 1);
    });
  };

  run_versioned();  // v0: capture
  run_versioned();  // v0: hit
  EXPECT_EQ(MemoCache::instance().stats().hits, 1u);

  acsr::graph::UpdateParams p;
  p.seed = 99;
  const auto batch = acsr::graph::generate_update(truth, p);
  acsr::graph::apply_update_host(truth, batch);
  inc.apply_update(batch);
  EXPECT_EQ(inc.version(), 1u);

  run_versioned();  // v1: the bumped version misses
  EXPECT_EQ(MemoCache::instance().stats().misses, 2u);
  EXPECT_EQ(MemoCache::instance().stats().hits, 1u);

  inc.apply_update(batch);  // every batch bumps, even a re-applied one
  EXPECT_EQ(inc.version(), 2u);
}

// ---------------------------------------------------------------------------
// Engine-level behaviour (the make_engine wrapper).

TEST(MemoEngine, RepeatSimulateReplaysBitIdentical) {
  const Csr<double> a = powerlaw(300, 6.0, 23);
  const auto x1 = random_x(static_cast<std::size_t>(a.cols), 101);
  const auto x2 = random_x(static_cast<std::size_t>(a.cols), 202);

  // Memo-off baseline: same engine instance, two simulates.
  std::vector<double> y1_off, y2_off;
  double t1_off = 0.0, t2_off = 0.0;
  {
    Device dev(DeviceSpec::gtx_titan());
    auto engine = make_engine<double>("acsr", dev, a);
    t1_off = engine->simulate(x1, y1_off);
    t2_off = engine->simulate(x2, y2_off);
  }
  EXPECT_EQ(t1_off, t2_off);  // metering is iteration-stationary

  MemoGuard guard;
  Device dev(DeviceSpec::gtx_titan());
  auto engine = make_engine<double>("acsr", dev, a);
  std::vector<double> y1, y2;
  const double t1 = engine->simulate(x1, y1);  // capture
  const double t2 = engine->simulate(x2, y2);  // replay
  EXPECT_EQ(MemoCache::instance().stats().misses, 1u);
  EXPECT_EQ(MemoCache::instance().stats().hits, 1u);
  EXPECT_EQ(t1, t1_off);
  EXPECT_EQ(t2, t2_off);
  EXPECT_EQ(y1, y1_off);
  EXPECT_EQ(y2, y2_off);  // replayed value plane: bit-identical result
}

/// Every Counters field (the X-macro field list) and every roofline term,
/// bitwise.
void expect_run_identical(const KernelRun& a, const KernelRun& b) {
#define ACSR_EXPECT_SAME_FIELD(type, name, unit, what) \
  EXPECT_EQ(a.counters.name, b.counters.name) << "counter '" #name "'";
  ACSR_COUNTERS_FIELDS(ACSR_EXPECT_SAME_FIELD)
#undef ACSR_EXPECT_SAME_FIELD
  EXPECT_EQ(a.issue_s, b.issue_s);
  EXPECT_EQ(a.flop_s, b.flop_s);
  EXPECT_EQ(a.memory_s, b.memory_s);
  EXPECT_EQ(a.latency_s, b.latency_s);
  EXPECT_EQ(a.launch_s, b.launch_s);
  EXPECT_EQ(a.dp_s, b.dp_s);
  EXPECT_EQ(a.dram_bytes, b.dram_bytes);
  EXPECT_EQ(a.duration_s, b.duration_s);
}

/// One simulate() on a fresh engine over `a` on a fresh Titan; `prep`
/// runs on the device before the build, `between` after it.
struct FreshCall {
  double seconds = 0.0;
  std::vector<double> y, applied;
  KernelRun run;
};
FreshCall fresh_call(
    const char* engine_name, const Csr<double>& a,
    const std::vector<double>& x, const EngineConfig& cfg = {},
    const DeviceSpec& spec = DeviceSpec::gtx_titan(),
    const std::function<void(Device&)>& prep = [](Device&) {},
    const std::function<void(Device&)>& between = [](Device&) {}) {
  Device dev(spec);
  prep(dev);
  auto engine = make_engine<double>(engine_name, dev, a, cfg);
  between(dev);
  FreshCall c;
  c.seconds = engine->simulate(x, c.y);
  engine->apply(x, c.applied);
  c.run = engine->report().last_run;
  return c;
}

TEST(MemoEngine, FreshEngineOnFreshDeviceReplaysFromItsFirstCall) {
  // A second engine over the same operand, built the same way on a fresh
  // device, lays its buffers out at the same offsets from its arena's
  // base: its first call replays the first engine's capture, and must
  // produce what a metered call on a third fresh device does.
  const Csr<double> a = powerlaw(300, 6.0, 29);
  const auto x1 = random_x(static_cast<std::size_t>(a.cols), 1);
  const auto x2 = random_x(static_cast<std::size_t>(a.cols), 2);
  EngineConfig cfg;
  cfg.ooc.budget_bytes = 8192;  // several slabs
  for (const char* engine_name : {"acsr", "csr-vector", "ooc-csr"}) {
    SCOPED_TRACE(engine_name);
    FreshCall metered;
    {
      MemoGuard off(false);
      metered = fresh_call(engine_name, a, x2, cfg);
    }
    MemoGuard guard;
    fresh_call(engine_name, a, x1, cfg);  // capture
    EXPECT_EQ(MemoCache::instance().stats().misses, 1u);
    const FreshCall replayed = fresh_call(engine_name, a, x2, cfg);
    EXPECT_EQ(MemoCache::instance().stats().misses, 1u);
    EXPECT_EQ(MemoCache::instance().stats().hits, 1u);
    EXPECT_EQ(replayed.y, replayed.applied);
    EXPECT_EQ(replayed.y, metered.y);
    EXPECT_EQ(replayed.seconds, metered.seconds);
    expect_run_identical(replayed.run, metered.run);
  }
}

TEST(MemoEngine, DifferentLayoutConfigOrSpecCaptures) {
  // Each variant differs from the captured build in one thing metering
  // depends on, so its first call must capture: where the build starts,
  // where the call's scratch lands, a config field, the spec. Its
  // metering must be what a metered run of the same variant gives.
  const Csr<double> a = powerlaw(300, 6.0, 37);
  const auto x = random_x(static_cast<std::size_t>(a.cols), 3);
  const auto n_cols = static_cast<std::size_t>(a.cols);
  const auto n_rows = static_cast<std::size_t>(a.rows);
  std::vector<acsr::vgpu::DeviceBuffer<double>> held;
  const auto dummy_first = [&](Device& dev) {
    held.push_back(dev.alloc<double>(1, "dummy"));
  };
  const auto scratch_between = [&](Device& dev) {
    held.push_back(dev.alloc<double>(n_cols, "x"));
    held.push_back(dev.alloc<double>(n_rows, "y"));
  };
  const EngineConfig base;
  EngineConfig no_tex;
  no_tex.acsr.use_texture = false;
  DeviceSpec ulp_off = DeviceSpec::gtx_titan();
  ulp_off.clock_ghz = std::nextafter(ulp_off.clock_ghz, HUGE_VAL);
  struct Variant {
    const char* what;
    EngineConfig cfg;
    DeviceSpec spec;
    std::function<void(Device&)> prep, between;
  };
  const auto none = [](Device&) {};
  const DeviceSpec titan = DeviceSpec::gtx_titan();
  const Variant variants[] = {
      {"build offset", base, titan, dummy_first, none},
      {"x/y between build and call", base, titan, none, scratch_between},
      {"acsr.use_texture", no_tex, titan, none, none},
      {"spec one ulp off", base, ulp_off, none, none},
  };
  for (const Variant& v : variants) {
    SCOPED_TRACE(v.what);
    FreshCall metered;
    {
      MemoGuard off(false);
      metered = fresh_call("acsr", a, x, v.cfg, v.spec, v.prep, v.between);
      held.clear();
    }
    MemoGuard guard;
    fresh_call("acsr", a, x);  // the base build: capture
    const FreshCall c =
        fresh_call("acsr", a, x, v.cfg, v.spec, v.prep, v.between);
    held.clear();
    EXPECT_EQ(MemoCache::instance().stats().hits, 0u);
    EXPECT_EQ(MemoCache::instance().stats().misses, 2u);
    EXPECT_EQ(c.y, metered.y);
    EXPECT_EQ(c.seconds, metered.seconds);
    expect_run_identical(c.run, metered.run);
  }
}

TEST(MemoEngine, ExplicitZeroValueCaptures) {
  // Values move metering too: bccoo skips the x load and the flops of an
  // explicit zero, and tunes its block width from trial kernel times. An
  // operand with the same structure and one value set to 0.0 must
  // capture, not replay the other operand's metering.
  const Csr<double> a = powerlaw(300, 6.0, 41);
  Csr<double> zeroed = a;
  zeroed.vals[zeroed.vals.size() / 2] = 0.0;
  const auto x = random_x(static_cast<std::size_t>(a.cols), 5);
  FreshCall metered, metered_zeroed;
  {
    MemoGuard off(false);
    metered = fresh_call("bccoo", a, x);
    metered_zeroed = fresh_call("bccoo", zeroed, x);
  }
  EXPECT_NE(metered.run.counters.dp_flops,
            metered_zeroed.run.counters.dp_flops);
  MemoGuard guard;
  fresh_call("bccoo", a, x);  // capture
  const FreshCall c = fresh_call("bccoo", zeroed, x);
  EXPECT_EQ(MemoCache::instance().stats().hits, 0u);
  EXPECT_EQ(MemoCache::instance().stats().misses, 2u);
  EXPECT_EQ(c.y, metered_zeroed.y);
  EXPECT_EQ(c.seconds, metered_zeroed.seconds);
  expect_run_identical(c.run, metered_zeroed.run);
}

TEST(MemoEngine, MergeCsrCarryMeteringIgnoresXValues) {
  // merge-csr publishes a lane's carry-out when the lane consumed a
  // non-zero since its last row end, whatever its partial sum: metering
  // is a function of the structure, so a replay of an x = 1 capture is
  // the metered x = 0 call. 40 ones per row on 64 rows: every carry of an
  // x = 0 call sums to exactly zero.
  Csr<double> a;
  a.rows = 64;
  a.cols = 64;
  a.row_off.push_back(0);
  for (int r = 0; r < a.rows; ++r) {
    for (int c = 0; c < 40; ++c) {
      a.col_idx.push_back((r + c) % a.cols);
      a.vals.push_back(1.0);
    }
    std::sort(a.col_idx.end() - 40, a.col_idx.end());
    a.row_off.push_back(static_cast<acsr::mat::offset_t>(a.col_idx.size()));
  }
  const std::vector<double> ones(64, 1.0), zeros(64, 0.0);
  const auto second_call = [&](bool memo_on) {
    MemoGuard guard(memo_on);
    Device dev(DeviceSpec::gtx_titan());
    auto engine = make_engine<double>("merge-csr", dev, a);
    std::vector<double> y;
    engine->simulate(ones, y);
    const double t = engine->simulate(zeros, y);
    EXPECT_EQ(y, zeros);
    if (memo_on) {
      EXPECT_EQ(MemoCache::instance().stats().hits, 1u);
    }
    return std::make_pair(engine->report().last_run.counters.atomic_ops, t);
  };
  const auto metered = second_call(false);
  const auto replayed = second_call(true);
  EXPECT_EQ(metered.first, replayed.first);
  EXPECT_EQ(metered.second, replayed.second);
}

TEST(MemoEngine, StagingANewWidthKeepsOtherWidthsWarm) {
  // Each call's key holds only the scratch it touches: x and y for an
  // SpMV (and the column loop), the block scratch of its own width for
  // an SpMM kernel. Staging another width must not move an already
  // captured width's key, however the widths interleave.
  const Csr<double> a = powerlaw(300, 6.0, 43);
  const auto block = [&](int width) {
    acsr::mat::DenseBlock<double> b(a.cols, width);
    for (int c = 0; c < width; ++c)
      b.set_column(c, random_x(static_cast<std::size_t>(a.cols),
                               static_cast<std::uint64_t>(50 + c)));
    return b;
  };
  const auto x = random_x(static_cast<std::size_t>(a.cols), 9);
  EngineConfig cfg;
  cfg.ooc.budget_bytes = 8192;
  for (const char* engine_name : {"acsr", "csr-vector", "ooc-csr", "coo"}) {
    SCOPED_TRACE(engine_name);
    MemoGuard guard;
    Device dev(DeviceSpec::gtx_titan());
    auto engine = make_engine<double>(engine_name, dev, a, cfg);
    acsr::mat::DenseBlock<double> y_block;
    std::vector<double> y;
    const auto calls = [&] {
      engine->simulate_batch(block(2), y_block);
      engine->simulate_batch(block(4), y_block);
      engine->simulate(x, y);
    };
    calls();  // each width captures once
    calls();  // and replays after the others were staged
    EXPECT_EQ(MemoCache::instance().stats().misses, 3u);
    EXPECT_EQ(MemoCache::instance().stats().hits, 3u);
  }
}

TEST(MemoEngine, DisabledPlaneTouchesNoCache) {
  MemoGuard guard(/*memo_on=*/false);

  const Csr<double> a = powerlaw(150, 4.0, 31);
  const auto x = random_x(static_cast<std::size_t>(a.cols), 7);
  Device dev(DeviceSpec::gtx_titan());
  auto engine = make_engine<double>("csr-vector", dev, a);
  std::vector<double> y;
  engine->simulate(x, y);
  engine->simulate(x, y);
  const auto& st = MemoCache::instance().stats();
  EXPECT_EQ(st.hits + st.misses + st.bypasses, 0u);
  EXPECT_EQ(MemoCache::instance().size(), 0u);
}

TEST(MemoEngine, SloAnnotationCountsNoHitOrMiss) {
  // With the slo plane on, MemoEngine tags each execution span capture vs
  // replay. That probe must not count: cache stats after one capture and
  // one replay are the same with the plane on and off.
  const Csr<double> a = powerlaw(200, 5.0, 61);
  const auto x = random_x(static_cast<std::size_t>(a.cols), 13);
  const auto run = [&](bool slo_on) {
    const bool slo_was = acsr::slo::slo_enabled();
    acsr::slo::set_slo_enabled(slo_on);
    MemoGuard guard;
    Device dev(DeviceSpec::gtx_titan());
    auto engine = make_engine<double>("acsr", dev, a);
    std::vector<double> y;
    engine->simulate(x, y);  // capture
    engine->simulate(x, y);  // replay
    const MemoStats st = MemoCache::instance().stats();
    acsr::slo::set_slo_enabled(slo_was);
    acsr::slo::Tracer::instance().clear();
    return st;
  };
  const MemoStats off = run(false);
  const MemoStats on = run(true);
  EXPECT_EQ(off.misses, 1u);
  EXPECT_EQ(off.hits, 1u);
  EXPECT_EQ(on.misses, off.misses);
  EXPECT_EQ(on.hits, off.hits);
  EXPECT_EQ(on.bypasses, off.bypasses);
  EXPECT_EQ(on.evictions, off.evictions);
}

TEST(MemoEngine, SloAnnotationLabelsCaptureReplayAndBypass) {
  // The enclosing span names what Memoizer::run does: capture on a miss,
  // replay on a hit, bypass while another plane owns the run (here the
  // sanitizer) or a memo session is already active on the device.
  const Csr<double> a = powerlaw(200, 5.0, 67);
  const auto x = random_x(static_cast<std::size_t>(a.cols), 17);
  const bool slo_was = acsr::slo::slo_enabled();
  acsr::slo::set_slo_enabled(true);
  Tracer::instance().clear();
  {
    MemoGuard guard;
    Device dev(DeviceSpec::gtx_titan());
    auto engine = make_engine<double>("acsr", dev, a);
    std::vector<double> y;
    const auto traced = [&](const char* name, auto&& body) {
      Tracer::instance().open(acsr::slo::SpanKind::kBatch, name, "serve",
                              0.0);
      body();
      Tracer::instance().close(0.0);
    };
    traced("first", [&] { engine->simulate(x, y); });
    traced("second", [&] { engine->simulate(x, y); });
    acsr::vgpu::Sanitizer::instance().set_enabled(true);
    traced("sanitized", [&] { engine->simulate(x, y); });
    acsr::vgpu::Sanitizer::instance().set_enabled(false);
    acsr::vgpu::Sanitizer::instance().clear();
    Memoizer outer(spec_fingerprint(dev.spec()) + "|outer");
    traced("nested", [&] {
      outer.run(dev, fixed_tail("nested"),
                [&] { return engine->simulate(x, y); });
    });
    EXPECT_EQ(MemoCache::instance().stats().misses, 2u);  // first, outer
    EXPECT_EQ(MemoCache::instance().stats().hits, 1u);    // second
    EXPECT_EQ(MemoCache::instance().stats().bypasses, 2u);
  }
  std::vector<std::string> names;
  for (const acsr::slo::Span& sp : Tracer::instance().spans())
    if (sp.kind == acsr::slo::SpanKind::kBatch) names.push_back(sp.name);
  acsr::slo::set_slo_enabled(slo_was);
  Tracer::instance().clear();
  const std::vector<std::string> want = {
      "first [memo=capture]", "second [memo=replay]",
      "sanitized [memo=bypass]", "nested [memo=bypass]"};
  EXPECT_EQ(names, want);
}

// ---------------------------------------------------------------------------
// Fault plane: recovery must never replay stale metering.

TEST(MemoFaultPlane, InjectionBypassesAndRecoveryStartsCold) {
  MemoGuard guard;
  const Csr<double> a = powerlaw(250, 5.0, 41);
  const auto x = random_x(static_cast<std::size_t>(a.cols), 11);
  std::vector<double> y_truth;
  a.spmv(x, y_truth);

  Device dev(DeviceSpec::gtx_titan());
  ResilientEngine<double> engine({&dev}, a, "csr-vector");
  std::vector<double> y;

  engine.simulate(x, y);  // capture
  engine.simulate(x, y);  // replay
  EXPECT_EQ(MemoCache::instance().stats().misses, 1u);
  EXPECT_EQ(MemoCache::instance().stats().hits, 1u);

  // A detected ECC flip: the driver scrubs (rebuild through make_engine).
  // While injection is live the memo plane is bypassed outright, so the
  // recovery run neither replays nor captures.
  FaultInjector::instance().configure("ecc@launch#1");
  engine.simulate(x, y);
  FaultInjector::instance().disable();
  EXPECT_EQ(engine.scrubs(), 1);
  EXPECT_GE(MemoCache::instance().stats().bypasses, 1u);
  for (std::size_t r = 0; r < y.size(); ++r)
    EXPECT_NEAR(y[r], y_truth[r], 1e-9) << "row " << r;

  // Post-recovery: the rebuilt engine was built at a later arena offset,
  // so its key differs from the captured one — a fresh capture, not a
  // stale hit.
  engine.simulate(x, y);
  EXPECT_EQ(MemoCache::instance().stats().misses, 2u);
  EXPECT_EQ(MemoCache::instance().stats().hits, 1u);

  // An application-triggered scrub (solver guards call it directly, no
  // injector involved) rebuilds at a later offset the same way.
  engine.scrub();
  engine.simulate(x, y);
  EXPECT_EQ(MemoCache::instance().stats().misses, 3u);
  for (std::size_t r = 0; r < y.size(); ++r)
    EXPECT_NEAR(y[r], y_truth[r], 1e-9) << "row " << r;
}

TEST(MemoFaultPlane, StagingReallocatesOnlyUnderFlipPlans) {
  // Staged x/y scratch stays at fixed addresses under every plan that
  // flips no device bytes — the iteration stationarity replay relies
  // on — and is re-allocated per call only under ecc/corrupt plans,
  // which keep it a registered flip target (and bypass memo).
  MemoGuard guard(false);
  const Csr<double> a = powerlaw(200, 5.0, 71);
  const auto x = random_x(static_cast<std::size_t>(a.cols), 3);
  FaultInjector& inj = FaultInjector::instance();
  const auto allocs_per_call = [&](const char* plan) {
    inj.configure(plan);  // never reached: only counts ops
    Device dev(DeviceSpec::gtx_titan());
    auto engine = make_engine<double>("csr-vector", dev, a);
    std::vector<double> y;
    engine->simulate(x, y);  // first use allocates the scratch
    const long long before = inj.alloc_ops();
    engine->simulate(x, y);
    const long long n = inj.alloc_ops() - before;
    inj.disable();
    return n;
  };
  EXPECT_EQ(allocs_per_call("stall@transfer#1000000"), 0);
  EXPECT_EQ(allocs_per_call("transient@launch#1000000"), 0);
  EXPECT_EQ(allocs_per_call("oom@alloc#1000000"), 0);
  EXPECT_EQ(allocs_per_call("ecc@launch#1000000"), 2);      // x and y
  EXPECT_EQ(allocs_per_call("corrupt@transfer#1000000"), 2);
}

/// Everything a caller of a faulted ResilientEngine can observe over a
/// few SpMVs, plus the memo hits the run scored.
struct FaultedTrace {
  std::vector<std::vector<double>> ys;
  std::vector<double> seconds;
  std::vector<std::string> escapes;  // typed error per op ("" when clean)
  std::vector<std::string> log;      // ResilientEngine::recovery_log()
  std::vector<std::string> events;   // kind/op_index/where per fired fault
  std::uint64_t hits = 0;
};

constexpr int kFaultedOps = 5;

FaultedTrace faulted_trace(const Csr<double>& a, const char* engine_name,
                           const EngineConfig& cfg, const std::string& plan,
                           bool memo) {
  MemoGuard guard(memo);
  FaultInjector& inj = FaultInjector::instance();
  inj.configure(plan);  // before the build: alloc/transfer ordinals count it
  FaultedTrace tr;
  {
    Device dev(DeviceSpec::gtx_titan());
    ResilientEngine<double> engine({&dev}, a, engine_name, cfg);
    for (int op = 0; op < kFaultedOps; ++op) {
      const auto x = random_x(static_cast<std::size_t>(a.cols),
                              1000 + static_cast<std::uint64_t>(op));
      std::vector<double> y;
      double t = -1.0;
      std::string escape;
      try {
        t = engine.simulate(x, y);
      } catch (const acsr::vgpu::DeviceFault& e) {
        escape = e.what();
      } catch (const acsr::vgpu::DeviceOom& e) {
        escape = e.what();
      }
      tr.ys.push_back(std::move(y));
      tr.seconds.push_back(t);
      tr.escapes.push_back(std::move(escape));
    }
    tr.log = engine.recovery_log();
  }
  for (const acsr::vgpu::FaultEvent& e : inj.events()) {
    std::ostringstream os;
    os << acsr::vgpu::to_string(e.kind) << '#' << e.op_index << '@'
       << e.where;
    tr.events.push_back(os.str());
  }
  inj.disable();
  tr.hits = MemoCache::instance().stats().hits;
  return tr;
}

TEST(MemoFaultPlane, NonFlipPlansReplayAtSameOrdinals) {
  // A plan that cannot change device bytes leaves metering untouched, so
  // memoized runs replay under it: each launch consults the injector
  // before the replay branch, and alloc/transfer/read faults fire live.
  // Replayed and metered runs must agree bit for bit in results, in
  // simulated seconds, in the recovery log and in the fired faults.
  const Csr<double> a = powerlaw(300, 6.0, 53);
  for (const char* engine_name : {"csr-vector", "acsr", "ooc-csr"}) {
    SCOPED_TRACE(engine_name);
    const bool ooc = std::string(engine_name) == "ooc-csr";
    EngineConfig cfg;
    cfg.ooc.budget_bytes = 8192;  // several slabs

    // Calibrate the plans' ordinals on a clean run: a clause that is never
    // reached enables the op counters without firing.
    struct Ops {
      long long launch, alloc, transfer, read;
    };
    const auto ops_now = [] {
      const FaultInjector& inj = FaultInjector::instance();
      return Ops{inj.launch_ops(), inj.alloc_ops(), inj.transfer_ops(),
                 inj.read_ops()};
    };
    Ops built{}, op1{}, op2{};
    {
      MemoGuard guard(false);
      FaultInjector::instance().configure("io_degrade@read#1000000000");
      Device dev(DeviceSpec::gtx_titan());
      ResilientEngine<double> engine({&dev}, a, engine_name, cfg);
      built = ops_now();
      std::vector<double> y;
      const auto x = random_x(static_cast<std::size_t>(a.cols), 5);
      engine.simulate(x, y);
      op1 = ops_now();
      engine.simulate(x, y);
      op2 = ops_now();
      FaultInjector::instance().disable();
    }
    const long long launches = op2.launch - op1.launch;
    const long long transfers = op2.transfer - op1.transfer;
    const long long reads = op2.read - op1.read;
    ASSERT_GT(launches, 0);
    const auto at = [](long long n) { return std::to_string(n); };

    std::vector<std::string> plans = {
        // First launch of op 3: a replayed launch under memo.
        "transient@launch#" + at(op1.launch + launches + 1),
        // Op 2, twice in a row: the retry's replay faults again.
        "transient@launch#" + at(op1.launch + std::min(2LL, launches)) + "*2",
        // First alloc after the build: the first SpMV's staging (in-core:
        // falls back down the chain; ooc-csr: the terminal rung escapes).
        "oom@alloc#" + at(built.alloc + 1),
        // A stalled transfer in op 2 (ooc-csr streams slabs every op); the
        // in-core engines only transfer at build time.
        "stall@transfer#" +
            at(transfers > 0 ? op1.transfer + transfers + 1 : 1) + ":ms=5",
    };
    if (ooc) {
      ASSERT_GT(reads, 0);
      plans.push_back("io_transient@read#" + at(op1.read + reads + 1));
      plans.push_back("io_timeout@read#" + at(op1.read + 2) + ":ms=5");
      plans.push_back("io_checksum@read#" + at(op1.read + 2 * reads + 1) +
                      ":seed=9");
      plans.push_back("io_degrade@read#" + at(op1.read + 1) + "*3:x=4");
      plans.push_back("io_transient@read#" + at(op1.read + 1) +
                      ";transient@launch#" +
                      at(op1.launch + 3 * launches + 1));
    }
    for (const std::string& plan : plans) {
      SCOPED_TRACE(plan);
      const FaultedTrace off = faulted_trace(a, engine_name, cfg, plan, false);
      const FaultedTrace on = faulted_trace(a, engine_name, cfg, plan, true);
      EXPECT_FALSE(off.events.empty()) << "the plan never fired";
      EXPECT_GT(on.hits, 0u) << "memo never replayed while the plan was live";
      EXPECT_EQ(off.ys, on.ys);
      EXPECT_EQ(off.seconds, on.seconds);
      EXPECT_EQ(off.escapes, on.escapes);
      EXPECT_EQ(off.log, on.log);
      EXPECT_EQ(off.events, on.events);
    }
  }
}

TEST(MemoReplay, CaptureRejectsLaunchWithoutValueKernel) {
  // Every memoized launch passes its value kernel: one without fails at
  // capture, with a typed error naming the kernel, and leaves no entry
  // that a later replay could trip over. Outside a session the same
  // launch runs metered as before.
  MemoGuard guard;
  Device dev(DeviceSpec::gtx_titan());
  acsr::vgpu::LaunchConfig cfg;
  cfg.name = "valueless_probe";
  const auto launch = [&] {
    return dev.launch_warps(cfg, [](acsr::vgpu::Warp& w) { w.count_alu(1); })
        .duration_s;
  };
  EXPECT_GT(launch(), 0.0);
  Memoizer memo(spec_fingerprint(dev.spec()) + "|valueless");
  std::string what = "no error";
  try {
    memo.run(dev, fixed_tail("run"), launch);
  } catch (const acsr::InvariantError& e) {
    what = e.what();
  }
  EXPECT_NE(what.find("'valueless_probe'"), std::string::npos) << what;
  EXPECT_NE(what.find("value kernel"), std::string::npos) << what;
  EXPECT_EQ(MemoCache::instance().size(), 0u);
  EXPECT_EQ(dev.memo_session(), nullptr);
}

TEST(MemoReplay, ValueKernelRejectsMalformedRowsLikeTheMeteredWalk) {
  // A replayed csr_vector launch computes y through its value kernel,
  // which range-checks each row's extent once and then reads
  // col_idx/vals raw. A row_end past both buffers must still fail there,
  // with the metered walk's typed error naming the same buffer, before
  // anything is read past it.
  MemoGuard guard;
  Device dev(DeviceSpec::gtx_titan());
  const Csr<double> a = powerlaw(64, 6.0, 3);
  const auto n = static_cast<std::size_t>(a.rows);
  auto row_off = dev.alloc<acsr::mat::offset_t>(n + 1, "row_off");
  row_off.host() = a.row_off;
  auto col_idx = dev.alloc<acsr::mat::index_t>(a.col_idx.size(), "col_idx");
  col_idx.host() = a.col_idx;
  auto vals = dev.alloc<double>(a.vals.size(), "vals");
  vals.host() = a.vals;
  auto x = dev.alloc<double>(static_cast<std::size_t>(a.cols), "x");
  x.host() = random_x(static_cast<std::size_t>(a.cols), 9);
  auto y = dev.alloc<double>(n, "y");

  constexpr int kVec = 4;
  constexpr int kRowsPerWarp = acsr::vgpu::kWarpSize / kVec;
  const acsr::vgpu::DeviceSpan<const acsr::mat::index_t> no_map;
  int value_calls = 0;
  const auto launch = [&] {
    acsr::vgpu::LaunchConfig cfg;
    cfg.name = "vector_probe";
    cfg.block_dim = 128;
    cfg.grid_dim = (a.rows + 4 * kRowsPerWarp - 1) / (4 * kRowsPerWarp);
    const auto rs = row_off.cspan().subspan(0, n);
    const auto re = row_off.cspan().subspan(1, n);
    return dev
        .launch_warps(
            cfg,
            [&](acsr::vgpu::Warp& w) {
              const long long first = w.global_warp() * kRowsPerWarp;
              if (first >= a.rows) return;
              acsr::spmv::csr_vector_warp<double>(
                  w, kVec, rs, re, col_idx.cspan(), vals.cspan(), x.cspan(),
                  y.span(), no_map, a.rows, first);
            },
            nullptr,
            [&] {
              ++value_calls;
              acsr::spmv::csr_vector_rows<double>(
                  kVec, rs, re, col_idx.cspan(), vals.cspan(), no_map,
                  a.rows, acsr::spmv::x_reader(x.cspan()), y.span());
            })
        .duration_s;
  };
  Memoizer memo(spec_fingerprint(dev.spec()) + "|vector_probe");
  const auto walk = fixed_tail("walk");
  memo.run(dev, walk, launch);  // capture over valid extents
  EXPECT_EQ(value_calls, 0) << "a metered launch called its value kernel";
  const std::vector<double> metered_y = y.host();
  y.host().assign(n, 0.0);
  memo.run(dev, walk, launch);  // replay: the value kernel stores y
  EXPECT_EQ(value_calls, 1);
  EXPECT_EQ(y.host(), metered_y);

  // A value change, so the key still hits: the last row now ends past the
  // end of col_idx and vals.
  row_off.host().back() += 40;
  const auto failure = [](const auto& run) -> std::string {
    try {
      run();
    } catch (const acsr::InvariantError& e) {
      return e.what();
    }
    return "no error";
  };
  const std::string metered = failure(launch);
  const std::uint64_t hits = MemoCache::instance().stats().hits;
  const std::string replayed =
      failure([&] { return memo.run(dev, walk, launch); });
  EXPECT_EQ(MemoCache::instance().stats().hits, hits + 1)
      << "the second run did not replay";
  EXPECT_EQ(value_calls, 2);
  EXPECT_NE(metered.find("(buffer 'col_idx')"), std::string::npos)
      << metered;
  EXPECT_NE(replayed.find("(buffer 'col_idx')"), std::string::npos)
      << replayed;
}

}  // namespace
