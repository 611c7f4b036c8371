// Unit tests for the launch-metering memo layer (src/vgpu/memo.hpp).
//
// Cache-key semantics: repeated key-identical executions hit; device-spec
// differences, launch-geometry differences and structure-version bumps
// (incremental_csr updates) miss; value-only changes hit and the value
// plane is recomputed (replay re-runs the kernels value-only). Owner
// teardown erases the owner's entries, which is how the resilient
// driver's scrub/fallback/failover paths — all of which rebuild the
// engine through make_engine — guarantee stale metering is never
// replayed. Fault plans that flip device bytes (ecc, corrupt) bypass
// memoization outright; every other plan replays, and fires at the same
// ordinals with the same outcome as a metered run.
//
// The bit-identity of replayed metering across all engines is pinned
// separately by tests/test_metering_invariance.cpp (fifth mode).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
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
using acsr::vgpu::memo::MemoStats;
using acsr::vgpu::memo::Memoizer;
using acsr::vgpu::memo::spec_fingerprint;
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

  // Any model-relevant parameter must flip the key: a cached entry from a
  // differently-clocked (or differently-plumbed) device would replay wrong
  // roofline terms.
  DeviceSpec tweaked = titan;
  tweaked.clock_ghz *= 1.5;
  EXPECT_NE(spec_fingerprint(titan), spec_fingerprint(tweaked));
  tweaked = titan;
  tweaked.dram_bandwidth_gbs += 1.0;
  EXPECT_NE(spec_fingerprint(titan), spec_fingerprint(tweaked));
  tweaked = titan;
  tweaked.sm_count += 1;
  EXPECT_NE(spec_fingerprint(titan), spec_fingerprint(tweaked));
}

// A tiny copy kernel whose grid is a parameter — the raw-Memoizer probe
// used by the key/geometry tests below.
double launch_copy(Device& dev, acsr::vgpu::DeviceSpan<const double> src,
                   acsr::vgpu::DeviceSpan<double> dst, long long grid) {
  acsr::vgpu::LaunchConfig cfg;
  cfg.name = "memo_probe";
  cfg.block_dim = 64;
  cfg.grid_dim = grid;
  const long long n = static_cast<long long>(src.size());
  const KernelRun run = dev.launch_warps(cfg, [&](acsr::vgpu::Warp& w) {
    const auto idx = w.global_threads();
    const acsr::vgpu::Mask m =
        idx.where([n](long long i) { return i < n; }, w.active_mask());
    if (m == 0) return;
    const auto v = w.load(src, idx, m);
    w.store(dst, idx, v, m);
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
    return memo.run(dev, "g" + std::to_string(grid), [&] {
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

  // Value-only change: same key hits, and the replayed (value-only)
  // kernels recompute the value plane from the new input.
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
  memo.run(dev, "fixed", [&] {
    return launch_copy(dev, src.cspan(), dst.span(), 2);
  });
  // A caller that fails the subkey discipline — same key, different
  // geometry — must be rejected loudly, never silently replay the wrong
  // metering.
  EXPECT_THROW(memo.run(dev, "fixed",
                        [&] {
                          return launch_copy(dev, src.cspan(), dst.span(), 4);
                        }),
               acsr::InvariantError);
}

TEST(MemoKey, OwnerTeardownErasesItsEntries) {
  MemoGuard guard;
  Device dev(DeviceSpec::gtx_titan());
  auto src = dev.alloc<double>(64, "src");
  src.host().assign(64, 2.0);
  auto dst = dev.alloc<double>(64, "dst");
  {
    Memoizer memo(spec_fingerprint(dev.spec()) + "|probe");
    memo.run(dev, "spmv", [&] {
      return launch_copy(dev, src.cspan(), dst.span(), 1);
    });
    EXPECT_EQ(MemoCache::instance().size(), 1u);
  }
  // The Memoizer died with its owner: its entries are gone, and a
  // successor instance starts cold even with an identical tag prefix.
  EXPECT_EQ(MemoCache::instance().size(), 0u);
  EXPECT_GE(MemoCache::instance().stats().invalidations, 1u);
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
    // batch update invalidates by key drift (the stale entry is dead
    // weight until the owner tears down).
    return memo.run(dev, "spmv@v" + std::to_string(inc.version()), [&] {
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
  EXPECT_EQ(on.invalidations, off.invalidations);
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
      outer.run(dev, "nested", [&] { return engine->simulate(x, y); });
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
  const std::size_t entries_before = MemoCache::instance().size();
  EXPECT_GE(entries_before, 1u);

  // A detected ECC flip: the driver scrubs (rebuild through make_engine),
  // which destroys the captured engine's Memoizer and with it every entry
  // it owned. While injection is live the memo plane is bypassed outright,
  // so the recovery run neither replays nor captures.
  FaultInjector::instance().configure("ecc@launch#1");
  engine.simulate(x, y);
  FaultInjector::instance().disable();
  EXPECT_EQ(engine.scrubs(), 1);
  EXPECT_GE(MemoCache::instance().stats().bypasses, 1u);
  EXPECT_GE(MemoCache::instance().stats().invalidations, entries_before);
  EXPECT_EQ(MemoCache::instance().size(), 0u);  // stale metering is gone
  for (std::size_t r = 0; r < y.size(); ++r)
    EXPECT_NEAR(y[r], y_truth[r], 1e-9) << "row " << r;

  // Post-recovery: the rebuilt engine starts cold — a fresh capture, not
  // a stale hit.
  engine.simulate(x, y);
  EXPECT_EQ(MemoCache::instance().stats().misses, 2u);
  EXPECT_EQ(MemoCache::instance().stats().hits, 1u);

  // An application-triggered scrub (solver guards call it directly, no
  // injector involved) invalidates the same way.
  engine.scrub();
  EXPECT_EQ(MemoCache::instance().size(), 0u);
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
  memo.run(dev, "walk", launch);  // capture over valid extents
  EXPECT_EQ(value_calls, 0) << "a metered launch called its value kernel";
  const std::vector<double> metered_y = y.host();
  y.host().assign(n, 0.0);
  memo.run(dev, "walk", launch);  // replay: the value kernel stores y
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
      failure([&] { return memo.run(dev, "walk", launch); });
  EXPECT_EQ(MemoCache::instance().stats().hits, hits + 1)
      << "the second run did not replay";
  EXPECT_EQ(value_calls, 2);
  EXPECT_NE(metered.find("(buffer 'col_idx')"), std::string::npos)
      << metered;
  EXPECT_NE(replayed.find("(buffer 'col_idx')"), std::string::npos)
      << replayed;
}

}  // namespace
