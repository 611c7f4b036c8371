// Sanitizer defect-detection tests: each memcheck/racecheck defect class is
// deliberately triggered and must be caught with the right kind, buffer
// name, and lane/warp/block/grid provenance. The negative tests pin down
// the zero-false-positive guarantees the differential fuzz harness relies
// on: atomics don't race, parent->child DP writes are ordered, sequential
// launches are independent epochs, and clean engines produce no reports.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/check.hpp"
#include "core/factory.hpp"
#include "graph/powerlaw.hpp"
#include "vgpu/device.hpp"
#include "vgpu/sanitizer.hpp"

namespace {

using acsr::InvariantError;
using acsr::core::EngineConfig;
using acsr::core::make_engine;
using acsr::vgpu::Block;
using acsr::vgpu::Device;
using acsr::vgpu::DeviceSpec;
using acsr::vgpu::DeviceSpan;
using acsr::vgpu::kFullMask;
using acsr::vgpu::KernelRun;
using acsr::vgpu::lane_bit;
using acsr::vgpu::LaneArray;
using acsr::vgpu::LaunchConfig;
using acsr::vgpu::Mask;
using acsr::vgpu::Sanitizer;
using acsr::vgpu::SanKind;
using acsr::vgpu::SanReport;
using acsr::vgpu::Warp;

/// Enables the sanitizer in record mode for the test body and restores the
/// default (disabled, no findings) state afterwards, so these tests compose
/// with the rest of the suite whether or not ACSR_SANITIZE is set.
class SanitizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Sanitizer& s = Sanitizer::instance();
    s.clear();
    s.set_enabled(true);
    s.set_halt_on_error(false);
  }
  void TearDown() override {
    Sanitizer& s = Sanitizer::instance();
    s.set_enabled(false);
    s.clear();
  }

  static LaunchConfig one_warp(const std::string& name, long long grid = 1) {
    LaunchConfig cfg;
    cfg.grid_dim = grid;
    cfg.block_dim = 32;
    cfg.name = name;
    return cfg;
  }
};

// --- memcheck: out-of-bounds ------------------------------------------------

TEST_F(SanitizerTest, SpanIndexOutOfBoundsNamesBuffer) {
  Device dev(DeviceSpec::gtx_titan());
  auto buf = dev.alloc<double>(4, "payload");
  buf.host() = {1.0, 2.0, 3.0, 4.0};

  try {
    dev.launch_warps(one_warp("oob_kernel"), [&](Warp& w) {
      w.load(buf.cspan(), LaneArray<long long>::filled(7), lane_bit(0));
    });
    FAIL() << "index past the span end must throw";
  } catch (const InvariantError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("out of bounds"), std::string::npos) << msg;
    EXPECT_NE(msg.find("payload"), std::string::npos)
        << "diagnostic must name the buffer: " << msg;
  }
}

TEST_F(SanitizerTest, ForgedSpanOverrunIsFatal) {
  // A span whose size lies about the allocation (the bug class bounds
  // checks can't see): in-span index, out-of-allocation address. The
  // sanitizer must refuse to continue.
  Device dev(DeviceSpec::gtx_titan());
  auto buf = dev.alloc<double>(4, "short_buf");
  buf.host() = {1.0, 2.0, 3.0, 4.0};
  // Valid host backing store, lying device size/address: the simulated
  // access is wild but the harness itself stays well-defined.
  std::vector<double> backing(8, 0.0);
  DeviceSpan<const double> forged(backing.data(), 8, buf.span().addr());

  EXPECT_THROW(
      dev.launch_warps(one_warp("forged_kernel"),
                       [&](Warp& w) {
                         w.load(forged, LaneArray<long long>::filled(6),
                                lane_bit(0));
                       }),
      acsr::vgpu::SanitizerError);
  ASSERT_EQ(Sanitizer::instance().count(SanKind::kOutOfBounds), 1u);
  const SanReport& r = Sanitizer::instance().reports().back();
  EXPECT_EQ(r.kernel, "forged_kernel");
  EXPECT_NE(r.message.find("unallocated device address"), std::string::npos)
      << r.message;
  EXPECT_NE(r.message.find("past the end of 'short_buf'"), std::string::npos)
      << r.message;
}

// --- memcheck: uninitialized reads ------------------------------------------

TEST_F(SanitizerTest, UninitializedReadIsReportedWithProvenance) {
  Device dev(DeviceSpec::gtx_titan());
  auto buf = dev.alloc<double>(32, "fresh");  // never host-filled

  const KernelRun run =
      dev.launch_warps(one_warp("uninit_kernel"), [&](Warp& w) {
        w.load(buf.cspan(), LaneArray<long long>::iota(), lane_bit(3));
      });

  ASSERT_EQ(Sanitizer::instance().count(SanKind::kUninitRead), 1u);
  const SanReport& r = Sanitizer::instance().reports().front();
  EXPECT_EQ(r.kind, SanKind::kUninitRead);
  EXPECT_EQ(r.buffer, "fresh");
  EXPECT_EQ(r.kernel, "uninit_kernel");
  EXPECT_EQ(r.grid, 0);
  EXPECT_EQ(r.block, 0);
  EXPECT_EQ(r.warp, 0);
  EXPECT_EQ(r.lane, 3);
  EXPECT_NE(r.message.find("uninitialized-read"), std::string::npos);
  // The finding surfaces on the run record too.
  EXPECT_EQ(run.sanitizer_reports, 1u);
}

TEST_F(SanitizerTest, HostFillInitializesShadow) {
  Device dev(DeviceSpec::gtx_titan());
  auto buf = dev.alloc<double>(32, "filled");
  for (auto& v : buf.host()) v = 2.0;

  dev.launch_warps(one_warp("read_kernel"), [&](Warp& w) {
    w.load(buf.cspan(), LaneArray<long long>::iota(), kFullMask);
  });
  EXPECT_TRUE(Sanitizer::instance().reports().empty());
}

TEST_F(SanitizerTest, DeviceStoreInitializesShadow) {
  Device dev(DeviceSpec::gtx_titan());
  auto buf = dev.alloc<double>(32, "dev_written");

  dev.launch_warps(one_warp("store_kernel"), [&](Warp& w) {
    w.store(buf.span(), LaneArray<long long>::iota(),
            LaneArray<double>::filled(1.0), kFullMask);
  });
  dev.launch_warps(one_warp("readback_kernel"), [&](Warp& w) {
    w.load(buf.cspan(), LaneArray<long long>::iota(), kFullMask);
  });
  EXPECT_EQ(Sanitizer::instance().count(SanKind::kUninitRead), 0u);
}

TEST_F(SanitizerTest, AtomicReadsUninitializedTarget) {
  // An atomic RMW reads the previous value; accumulating into a y that
  // was never zero-filled is the classic COO-engine defect.
  Device dev(DeviceSpec::gtx_titan());
  auto y = dev.alloc<double>(8, "y_unzeroed");

  dev.launch_warps(one_warp("acc_kernel"), [&](Warp& w) {
    w.atomic_add(y.span(), LaneArray<long long>::filled(0),
                 LaneArray<double>::filled(1.0), lane_bit(0));
  });
  EXPECT_EQ(Sanitizer::instance().count(SanKind::kUninitRead), 1u);
  EXPECT_EQ(Sanitizer::instance().count(SanKind::kWriteRace), 0u);
}

// --- memcheck: frees ---------------------------------------------------------

TEST_F(SanitizerTest, DoubleFreeIsReported) {
  Device dev(DeviceSpec::gtx_titan());
  const std::size_t before = dev.arena().allocated();
  {
    auto buf = dev.alloc<double>(16, "twice_freed");
    // Free it manually while the owning buffer is still alive; the
    // destructor's release is then the second (reported) free.
    dev.arena().release(buf.span().addr(), buf.bytes(), "twice_freed");
  }
  ASSERT_EQ(Sanitizer::instance().count(SanKind::kDoubleFree), 1u);
  const SanReport& r = Sanitizer::instance().reports().back();
  EXPECT_EQ(r.kind, SanKind::kDoubleFree);
  EXPECT_EQ(r.buffer, "twice_freed");
  // The reported double-free must not corrupt the arena's accounting.
  EXPECT_EQ(dev.arena().allocated(), before);
}

TEST_F(SanitizerTest, FreeOfUnallocatedAddressIsReported) {
  Device dev(DeviceSpec::gtx_titan());
  const std::size_t before = dev.arena().allocated();
  dev.arena().release(0xdeadbeef000ULL, 64, "phantom");
  ASSERT_EQ(Sanitizer::instance().count(SanKind::kBadFree), 1u);
  EXPECT_EQ(dev.arena().allocated(), before);
}

TEST_F(SanitizerTest, UseAfterFreeThroughStaleSpan) {
  Device dev(DeviceSpec::gtx_titan());
  auto buf = dev.alloc<double>(16, "stale");
  for (auto& v : buf.host()) v = 1.0;
  DeviceSpan<const double> span = buf.cspan();
  // Device-side free; the host backing store stays alive (owned by `buf`),
  // so the simulated UAF is observable without real UB.
  dev.arena().release(buf.span().addr(), buf.bytes(), "stale");

  dev.launch_warps(one_warp("uaf_kernel"), [&](Warp& w) {
    w.load(span, LaneArray<long long>::filled(0), lane_bit(0));
  });
  ASSERT_GE(Sanitizer::instance().count(SanKind::kUseAfterFree), 1u);
  for (const SanReport& r : Sanitizer::instance().reports()) {
    if (r.kind != SanKind::kUseAfterFree) continue;
    EXPECT_EQ(r.buffer, "stale");
    EXPECT_EQ(r.kernel, "uaf_kernel");
  }
}

// --- memcheck: subspans -------------------------------------------------------

TEST_F(SanitizerTest, SubspanEscapeNamesBuffer) {
  Device dev(DeviceSpec::gtx_titan());
  auto buf = dev.alloc<double>(8, "window");
  try {
    buf.span().subspan(4, 8);
    FAIL() << "subspan escaping the span must throw";
  } catch (const InvariantError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("subspan"), std::string::npos) << msg;
    EXPECT_NE(msg.find("window"), std::string::npos)
        << "diagnostic must name the buffer: " << msg;
  }
}

TEST_F(SanitizerTest, SubspanIntoFreedAllocationIsReported) {
  Device dev(DeviceSpec::gtx_titan());
  auto buf = dev.alloc<double>(8, "gone");
  DeviceSpan<double> span = buf.span();
  dev.arena().release(span.addr(), buf.bytes(), "gone");

  span.subspan(0, 2);  // shadow check fires; in-bounds per the span itself
  ASSERT_GE(Sanitizer::instance().count(SanKind::kUseAfterFree), 1u);
  const SanReport& r = Sanitizer::instance().reports().front();
  EXPECT_EQ(r.buffer, "gone");
  EXPECT_NE(r.message.find("subspan"), std::string::npos);
}

// --- racecheck ---------------------------------------------------------------

TEST_F(SanitizerTest, SameWarpLanesRacingIsReported) {
  Device dev(DeviceSpec::gtx_titan());
  auto y = dev.alloc<double>(4, "y_race");

  dev.launch_warps(one_warp("lane_race"), [&](Warp& w) {
    // Lanes 0 and 1 both plain-store y[0].
    w.store(y.span(), LaneArray<long long>::filled(0),
            LaneArray<double>::filled(1.0),
            lane_bit(0) | lane_bit(1));
  });
  ASSERT_EQ(Sanitizer::instance().count(SanKind::kWriteRace), 1u);
  const SanReport& r = Sanitizer::instance().reports().front();
  EXPECT_EQ(r.buffer, "y_race");
  EXPECT_EQ(r.kernel, "lane_race");
  EXPECT_NE(r.message.find("lane 0"), std::string::npos) << r.message;
}

TEST_F(SanitizerTest, CrossBlockRaceIsReported) {
  Device dev(DeviceSpec::gtx_titan());
  auto y = dev.alloc<double>(4, "y_blocks");

  dev.launch_warps(one_warp("block_race", /*grid=*/2), [&](Warp& w) {
    w.store(y.span(), LaneArray<long long>::filled(0),
            LaneArray<double>::filled(static_cast<double>(w.block_idx())),
            lane_bit(0));
  });
  ASSERT_EQ(Sanitizer::instance().count(SanKind::kWriteRace), 1u);
  const SanReport& r = Sanitizer::instance().reports().front();
  EXPECT_EQ(r.block, 1);  // second writer reports, first is cited
  EXPECT_NE(r.message.find("block 0"), std::string::npos) << r.message;
}

TEST_F(SanitizerTest, DeclaredIndependentBlocksRacingIsReported) {
  // blocks_independent promises disjoint writes; racecheck holds a grid to
  // it. Sanitized launches run their blocks in order even with the host
  // pool forced on, so the sanitizer stays an oracle of the promise.
  const acsr::vgpu::ScopedBlockParallelism pool(4, 1);
  const std::uint64_t pooled = acsr::vgpu::block_parallel_launches();
  Device dev(DeviceSpec::gtx_titan());
  auto y = dev.alloc<double>(4, "y_indep");
  LaunchConfig cfg = one_warp("indep_race", /*grid=*/8);
  cfg.blocks_independent = true;
  dev.launch_warps(cfg, [&](Warp& w) {
    if (w.block_idx() != 2 && w.block_idx() != 5) return;
    w.store(y.span(), LaneArray<long long>::filled(1),
            LaneArray<double>::filled(static_cast<double>(w.block_idx())),
            lane_bit(0));
  });
  ASSERT_EQ(Sanitizer::instance().count(SanKind::kWriteRace), 1u);
  const SanReport& r = Sanitizer::instance().reports().front();
  EXPECT_EQ(r.kernel, "indep_race");
  EXPECT_EQ(r.block, 5);
  EXPECT_EQ(acsr::vgpu::block_parallel_launches(), pooled);
}

TEST_F(SanitizerTest, AtomicsDoNotRace) {
  Device dev(DeviceSpec::gtx_titan());
  auto y = dev.alloc<double>(4, "y_atomic");
  for (auto& v : y.host()) v = 0.0;

  dev.launch_warps(one_warp("atomic_ok", /*grid=*/4), [&](Warp& w) {
    w.atomic_add(y.span(), LaneArray<long long>::filled(0),
                 LaneArray<double>::filled(1.0), kFullMask);
  });
  EXPECT_EQ(Sanitizer::instance().count(SanKind::kWriteRace), 0u);
  EXPECT_EQ(y.host()[0], 128.0);  // 4 blocks x 32 lanes
}

TEST_F(SanitizerTest, AtomicVsPlainWriteRaces) {
  Device dev(DeviceSpec::gtx_titan());
  auto y = dev.alloc<double>(4, "y_mixed");
  for (auto& v : y.host()) v = 0.0;

  dev.launch_warps(one_warp("mixed_race", /*grid=*/2), [&](Warp& w) {
    if (w.block_idx() == 0)
      w.atomic_add(y.span(), LaneArray<long long>::filled(0),
                   LaneArray<double>::filled(1.0), lane_bit(0));
    else
      w.store(y.span(), LaneArray<long long>::filled(0),
              LaneArray<double>::filled(2.0), lane_bit(0));
  });
  EXPECT_EQ(Sanitizer::instance().count(SanKind::kWriteRace), 1u);
}

TEST_F(SanitizerTest, SequentialLaunchesAreIndependentEpochs) {
  Device dev(DeviceSpec::gtx_titan());
  auto y = dev.alloc<double>(4, "y_seq");

  for (int pass = 0; pass < 2; ++pass) {
    dev.launch_warps(one_warp("seq_kernel"), [&](Warp& w) {
      // A different lane writes y[0] on each pass; across launches this
      // is ordered (stream semantics), not a race.
      w.store(y.span(), LaneArray<long long>::filled(0),
              LaneArray<double>::filled(1.0), lane_bit(pass));
    });
  }
  EXPECT_EQ(Sanitizer::instance().count(SanKind::kWriteRace), 0u);
}

TEST_F(SanitizerTest, ParentChildOrderingIsNotARace) {
  // The ACSR Algorithm 3 pattern: the parent grid zeroes y[row], then
  // device-launches a child that atomically accumulates into it. The DP
  // guarantee (child sees parent's prior writes) makes this ordered.
  Device dev(DeviceSpec::gtx_titan());
  auto y = dev.alloc<double>(4, "y_dp");

  dev.launch(one_warp("dp_parent"), [&](Block& blk) {
    blk.each_warp([&](Warp& w) {
      w.store(y.span(), LaneArray<long long>::filled(0),
              LaneArray<double>::filled(0.0), lane_bit(0));
      w.launch_child(one_warp("dp_child"), [&](Block& child) {
        child.each_warp([&](Warp& cw) {
          cw.atomic_add(y.span(), LaneArray<long long>::filled(0),
                        LaneArray<double>::filled(1.0), kFullMask);
        });
      });
    });
  });
  EXPECT_EQ(Sanitizer::instance().count(SanKind::kWriteRace), 0u);
  EXPECT_EQ(Sanitizer::instance().count(SanKind::kUninitRead), 0u);
  EXPECT_EQ(y.host()[0], 32.0);
}

TEST_F(SanitizerTest, SiblingChildGridsPlainWritesRace) {
  // Two child grids launched by the same parent are concurrent: their
  // plain writes to one address are a real hazard.
  Device dev(DeviceSpec::gtx_titan());
  auto y = dev.alloc<double>(4, "y_siblings");

  dev.launch(one_warp("dp_parent2"), [&](Block& blk) {
    blk.each_warp([&](Warp& w) {
      for (int c = 0; c < 2; ++c) {
        w.launch_child(one_warp("dp_sibling"), [&, c](Block& child) {
          child.each_warp([&, c](Warp& cw) {
            cw.store(y.span(), LaneArray<long long>::filled(0),
                     LaneArray<double>::filled(static_cast<double>(c)),
                     lane_bit(0));
          });
        });
      }
    });
  });
  ASSERT_EQ(Sanitizer::instance().count(SanKind::kWriteRace), 1u);
  const SanReport& r = Sanitizer::instance().reports().front();
  EXPECT_EQ(r.grid, 2);  // second sibling reports against the first
  EXPECT_NE(r.message.find("grid 1"), std::string::npos) << r.message;
}

// --- negative controls --------------------------------------------------------

TEST_F(SanitizerTest, DisabledSanitizerRecordsNothing) {
  Sanitizer::instance().set_enabled(false);
  Device dev(DeviceSpec::gtx_titan());
  auto buf = dev.alloc<double>(32, "dark");  // no shadow materialised

  dev.launch_warps(one_warp("dark_kernel"), [&](Warp& w) {
    w.load(buf.cspan(), LaneArray<long long>::iota(), kFullMask);
    w.store(buf.span(), LaneArray<long long>::filled(0),
            LaneArray<double>::filled(1.0), lane_bit(0) | lane_bit(1));
  });
  EXPECT_TRUE(Sanitizer::instance().reports().empty());
}

TEST_F(SanitizerTest, BufferNameLookupAlwaysWorks) {
  // The registry is maintained even when shadow checking is off.
  Sanitizer::instance().set_enabled(false);
  Device dev(DeviceSpec::gtx_titan());
  auto buf = dev.alloc<double>(16, "named");
  const std::uint64_t addr = buf.span().addr();
  EXPECT_EQ(Sanitizer::instance().buffer_name(addr), "named");
  EXPECT_EQ(Sanitizer::instance().buffer_name(addr + 8 * sizeof(double)),
            "named");
  EXPECT_EQ(Sanitizer::instance().buffer_name(addr + 16 * sizeof(double)),
            "?");
}

TEST_F(SanitizerTest, CleanEnginesProduceNoReports) {
  // The zero-false-positive contract: real engines, fully instrumented,
  // must come out spotless — including ACSR's DP path.
  acsr::graph::PowerLawSpec s;
  s.rows = 300;
  s.cols = 300;
  s.mean_nnz_per_row = 8.0;
  s.alpha = 1.5;
  s.max_row_nnz = 290;
  s.seed = 21;
  const auto a = acsr::graph::powerlaw_matrix(s);

  std::vector<double> x(static_cast<std::size_t>(a.cols));
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = 0.5 + static_cast<double>(i % 7) * 0.125;

  for (const char* name :
       {"csr-scalar", "csr-vector", "coo", "hyb", "merge-csr", "acsr"}) {
    SCOPED_TRACE(name);
    Device dev(DeviceSpec::gtx_titan());
    EngineConfig cfg;
    cfg.hyb_breakeven = 64;
    auto engine = make_engine<double>(name, dev, a, cfg);
    std::vector<double> y;
    engine->simulate(x, y);
    const auto& reports = Sanitizer::instance().reports();
    EXPECT_TRUE(reports.empty())
        << reports.size() << " findings; first: " << reports.front().message;
  }
}

TEST_F(SanitizerTest, HaltModeThrowsOnFirstFinding) {
  Sanitizer::instance().set_halt_on_error(true);
  Device dev(DeviceSpec::gtx_titan());
  auto buf = dev.alloc<double>(8, "strict");

  EXPECT_THROW(
      dev.launch_warps(one_warp("strict_kernel"),
                       [&](Warp& w) {
                         w.load(buf.cspan(), LaneArray<long long>::filled(0),
                                lane_bit(0));
                       }),
      acsr::vgpu::SanitizerError);
  Sanitizer::instance().set_halt_on_error(false);
}

}  // namespace
