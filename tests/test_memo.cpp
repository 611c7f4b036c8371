// Unit tests for the launch-metering memo layer (src/vgpu/memo.hpp).
//
// Cache-key semantics: repeated key-identical executions hit; device-spec
// differences, launch-geometry differences and structure-version bumps
// (incremental_csr updates) miss; value-only changes hit and the value
// plane is recomputed (replay re-runs the kernels value-only). Owner
// teardown erases the owner's entries, which is how the resilient
// driver's scrub/fallback/failover paths — all of which rebuild the
// engine through make_engine — guarantee stale metering is never
// replayed. The fault plane bypasses memoization outright.
//
// The bit-identity of replayed metering across all engines is pinned
// separately by tests/test_metering_invariance.cpp (fifth mode).
#include <gtest/gtest.h>

#include <memory>
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
#include "vgpu/device.hpp"
#include "vgpu/fault.hpp"
#include "vgpu/memo.hpp"

#include "memo_guard.hpp"

namespace {

using acsr::core::EngineConfig;
using acsr::core::IncrementalCsr;
using acsr::core::make_engine;
using acsr::core::ResilientEngine;
using acsr::mat::Csr;
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

}  // namespace
