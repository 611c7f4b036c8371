// SIMT primitive semantics: lane arrays, masks, shuffles, reductions,
// the coalescing counters, and the memory arena.
#include <gtest/gtest.h>

#include <string>

#include "vgpu/device.hpp"
#include "vgpu/lane_array.hpp"

namespace {

using namespace acsr::vgpu;

TEST(LaneArray, IotaAndMap) {
  const auto a = LaneArray<int>::iota(10, 2);
  EXPECT_EQ(a[0], 10);
  EXPECT_EQ(a[31], 10 + 62);
  const auto b = a.map([](int v) { return v * 3; });
  EXPECT_EQ(b[5], (10 + 10) * 3);
}

TEST(LaneArray, WhereRespectsMask) {
  const auto a = LaneArray<int>::iota();
  const Mask m = a.where([](int v) { return v < 4; }, first_lanes(8));
  EXPECT_EQ(m, 0b1111u);
  const Mask m2 = a.where([](int v) { return v >= 6; }, first_lanes(8));
  EXPECT_EQ(m2, 0b11000000u);
}

TEST(Masks, Helpers) {
  EXPECT_EQ(active_lanes(kFullMask), 32);
  EXPECT_EQ(active_lanes(first_lanes(5)), 5);
  EXPECT_TRUE(lane_active(first_lanes(3), 2));
  EXPECT_FALSE(lane_active(first_lanes(3), 3));
  EXPECT_EQ(first_lanes(0), 0u);
  EXPECT_EQ(first_lanes(32), kFullMask);
  EXPECT_EQ(first_lanes(64), kFullMask);
}

TEST(FmaInto, OnlyActiveLanes) {
  LaneArray<double> acc{};
  const auto a = LaneArray<double>::filled(2.0);
  const auto b = LaneArray<double>::filled(3.0);
  fma_into(acc, a, b, first_lanes(4));
  EXPECT_DOUBLE_EQ(acc[3], 6.0);
  EXPECT_DOUBLE_EQ(acc[4], 0.0);
}

class WarpFixture : public ::testing::Test {
 protected:
  WarpFixture() : dev(DeviceSpec::gtx_titan()) {}

  /// Run `fn` in a single warp of a 1-block grid and return the run record.
  template <class F>
  KernelRun run_warp(F&& fn) {
    LaunchConfig cfg;
    cfg.name = "test";
    cfg.block_dim = 32;
    return dev.launch_warps(cfg, fn);
  }

  Device dev;
};

TEST_F(WarpFixture, ShflDownFullWidth) {
  run_warp([&](Warp& w) {
    auto v = LaneArray<int>::iota();
    const auto s = w.shfl_down(v, 4);
    EXPECT_EQ(s[0], 4);
    EXPECT_EQ(s[27], 31);
    EXPECT_EQ(s[28], 28);  // beyond the group: unchanged
  });
}

TEST_F(WarpFixture, ShflDownSubgroups) {
  run_warp([&](Warp& w) {
    auto v = LaneArray<int>::iota();
    const auto s = w.shfl_down(v, 2, 8);
    EXPECT_EQ(s[0], 2);
    EXPECT_EQ(s[5], 7);
    EXPECT_EQ(s[6], 6);  // would cross the 8-lane group boundary
    EXPECT_EQ(s[8], 10);
  });
}

TEST_F(WarpFixture, ReduceAddByGroup) {
  run_warp([&](Warp& w) {
    auto v = LaneArray<double>::filled(1.0);
    const auto r = w.reduce_add(v, kFullMask, 8);
    EXPECT_DOUBLE_EQ(r[0], 8.0);
    EXPECT_DOUBLE_EQ(r[8], 8.0);
    EXPECT_DOUBLE_EQ(r[24], 8.0);
  });
}

TEST_F(WarpFixture, ReduceAddRespectsMask) {
  run_warp([&](Warp& w) {
    auto v = LaneArray<double>::filled(1.0);
    const auto r = w.reduce_add(v, first_lanes(5), 32);
    EXPECT_DOUBLE_EQ(r[0], 5.0);
  });
}

TEST_F(WarpFixture, CoalescedLoadIsFourSectors) {
  auto buf = dev.alloc<float>(1024, "buf");
  for (std::size_t i = 0; i < 1024; ++i)
    buf.host()[i] = static_cast<float>(i);
  auto span = buf.cspan();
  const KernelRun run = run_warp([&](Warp& w) {
    const auto idx = LaneArray<long long>::iota();
    const auto v = w.load(span, idx, kFullMask);
    EXPECT_FLOAT_EQ(v[7], 7.0f);
  });
  // 32 lanes x 4 B contiguous = 128 B = four 32 B sectors.
  EXPECT_EQ(run.counters.gmem_transactions, 4u);
  EXPECT_EQ(run.counters.gmem_bytes, 128u);
}

TEST_F(WarpFixture, StridedLoadIsManyTransactions) {
  auto buf = dev.alloc<float>(32 * 64, "buf");
  auto span = buf.cspan();
  const KernelRun run = run_warp([&](Warp& w) {
    const auto idx = LaneArray<long long>::iota(0, 64);  // 256 B stride
    (void)w.load(span, idx, kFullMask);
  });
  EXPECT_EQ(run.counters.gmem_transactions, 32u);  // fully scattered
}

TEST_F(WarpFixture, DoubleCoalescedLoadIsEightSectors) {
  auto buf = dev.alloc<double>(64, "buf");
  auto span = buf.cspan();
  const KernelRun run = run_warp([&](Warp& w) {
    (void)w.load(span, LaneArray<long long>::iota(), kFullMask);
  });
  EXPECT_EQ(run.counters.gmem_transactions, 8u);  // 32 x 8 B = 256 B
}

TEST_F(WarpFixture, InactiveLanesGenerateNoTraffic) {
  auto buf = dev.alloc<float>(1024, "buf");
  auto span = buf.cspan();
  const KernelRun run = run_warp([&](Warp& w) {
    const auto idx = LaneArray<long long>::iota(0, 64);
    (void)w.load(span, idx, first_lanes(2));
  });
  EXPECT_EQ(run.counters.gmem_transactions, 2u);
}

TEST_F(WarpFixture, TextureLoadUses32ByteSegments) {
  auto buf = dev.alloc<float>(1024, "x");
  auto span = buf.cspan();
  const KernelRun run = run_warp([&](Warp& w) {
    (void)w.load_tex(span, LaneArray<long long>::iota(), kFullMask);
  });
  EXPECT_EQ(run.counters.tex_transactions, 4u);  // 128 B / 32 B
  EXPECT_EQ(run.counters.gmem_transactions, 0u);
}

TEST_F(WarpFixture, AtomicConflictsCounted) {
  auto buf = dev.alloc<double>(16, "y");
  auto span = buf.span();
  const KernelRun run = run_warp([&](Warp& w) {
    const auto idx = LaneArray<long long>::filled(3);  // all hit one address
    const auto v = LaneArray<double>::filled(1.0);
    w.atomic_add(span, idx, v, kFullMask);
  });
  EXPECT_EQ(run.counters.atomic_ops, 32u);
  EXPECT_EQ(run.counters.atomic_conflicts, 31u);
  EXPECT_DOUBLE_EQ(buf.host()[3], 32.0);
}

TEST_F(WarpFixture, StoreWritesOnlyActiveLanes) {
  auto buf = dev.alloc<int>(32, "out");
  auto span = buf.span();
  run_warp([&](Warp& w) {
    w.store(span, LaneArray<long long>::iota(),
            LaneArray<int>::filled(7), first_lanes(3));
  });
  EXPECT_EQ(buf.host()[2], 7);
  EXPECT_EQ(buf.host()[3], 0);
}

TEST_F(WarpFixture, RepeatSectorElisionSkipsOnlyImmediateRepeats) {
  // Two sectors 8 KiB (256 sectors) apart share a slot of the per-warp
  // direct-mapped cache at every power-of-two way count. A non-affine
  // gather alternating A,B,A,B evicts on every lane, so it must charge one
  // transaction per lane: the fast path's elision may skip only a sector
  // probed *immediately* before, never one seen earlier in the gather.
  // A,A,B,B charges one per pair. Fast and reference metering agree.
  constexpr long long kB = 8192 / sizeof(float);
  auto a = dev.alloc<float>(2 * kB, "a");
  auto b = dev.alloc<float>(2 * kB, "b");
  auto out = dev.alloc<float>(2 * kB, "out");
  const auto sa = a.cspan();
  const auto sb = b.cspan();
  const auto so = out.span();
  for (const bool reference : {false, true}) {
    set_reference_metering(reference);
    for (const bool abab : {true, false}) {
      LaneArray<long long> idx;
      for (int l = 0; l < kWarpSize; ++l)
        idx[l] = ((abab ? l : l >> 1) & 1) * kB;
      const std::uint64_t per4 = abab ? 4 : 2;
      for (const Mask m : {first_lanes(4), kFullMask}) {
        const std::uint64_t want = per4 * (m == kFullMask ? 8 : 1);
        const std::string where = std::string(abab ? "ABAB" : "AABB") +
                                  (reference ? " reference" : " fast") +
                                  " lanes " +
                                  std::to_string(active_lanes(m));
        const KernelRun g =
            run_warp([&](Warp& w) { (void)w.load(sa, idx, m); });
        EXPECT_EQ(g.counters.gmem_transactions, want) << "load " << where;
        const KernelRun t =
            run_warp([&](Warp& w) { (void)w.load_tex(sa, idx, m); });
        EXPECT_EQ(t.counters.tex_transactions, want) << "load_tex " << where;
        const KernelRun s = run_warp([&](Warp& w) {
          w.store(so, idx, LaneArray<float>::filled(1.0f), m);
        });
        EXPECT_EQ(s.counters.gmem_transactions, want) << "store " << where;
        const KernelRun p = run_warp([&](Warp& w) {
          LaneArray<float> ra, rb;
          w.load_pair(sa, sb, idx, m, ra, rb);
        });
        EXPECT_EQ(p.counters.gmem_transactions, 2 * want)
            << "load_pair " << where;
      }
    }
  }
  set_reference_metering(false);
}

TEST(Memory, ArenaCapacityEnforced) {
  MemoryArena arena(1024);
  const auto a1 = arena.allocate(512, "a");
  EXPECT_GE(arena.allocated(), 512u);
  EXPECT_THROW(arena.allocate(768, "b"), DeviceOom);
  arena.release(512);
  EXPECT_NO_THROW(arena.allocate(768, "c"));
  (void)a1;
}

TEST(Memory, DistinctBuffersGetDistinctAddresses) {
  Device dev(DeviceSpec::gtx_titan());
  auto a = dev.alloc<float>(100, "a");
  auto b = dev.alloc<float>(100, "b");
  EXPECT_NE(a.cspan().addr(), b.cspan().addr());
  // No overlap.
  const auto a_end = a.cspan().addr_of(100);
  EXPECT_GE(b.cspan().addr(), a_end);
}

TEST(Memory, SpanBoundsChecked) {
  Device dev(DeviceSpec::gtx_titan());
  auto a = dev.alloc<float>(8, "a");
  EXPECT_THROW(a.span()[8], acsr::InvariantError);
  auto sub = a.cspan().subspan(2, 4);
  EXPECT_EQ(sub.size(), 4u);
  EXPECT_EQ(sub.addr(), a.cspan().addr() + 8);
}

TEST(Memory, TransferModelScalesWithBytes) {
  Device dev(DeviceSpec::gtx_titan());
  const auto small = dev.note_transfer(1024);
  const auto big = dev.note_transfer(64 * 1024 * 1024);
  EXPECT_GT(big.duration_s, small.duration_s);
  // Large transfer approaches the bandwidth bound.
  const double bw_s = 64.0 * 1024 * 1024 / (dev.spec().pcie_bandwidth_gbs * 1e9);
  EXPECT_NEAR(big.duration_s, bw_s + dev.spec().transfer_setup_s, 1e-9);
  EXPECT_EQ(dev.transfer_bytes(), 1024u + 64u * 1024 * 1024);
}

TEST(DeviceSpecs, PresetsMatchTableII) {
  const auto t = DeviceSpec::gtx_titan();
  EXPECT_TRUE(t.supports_dynamic_parallelism());
  EXPECT_EQ(t.sm_count, 14);

  const auto f = DeviceSpec::gtx580();
  EXPECT_FALSE(f.supports_dynamic_parallelism());
  EXPECT_EQ(f.compute_major, 2);

  const auto k = DeviceSpec::tesla_k10();
  EXPECT_FALSE(k.supports_dynamic_parallelism());
  EXPECT_LT(k.dp_throughput_ratio, f.dp_throughput_ratio);

  EXPECT_EQ(DeviceSpec::by_name("titan").name, "GTXTitan");
  EXPECT_THROW(DeviceSpec::by_name("h100"), acsr::InputError);
}

}  // namespace
