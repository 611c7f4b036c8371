// The shuffle/scan warp primitives behind the segmented-reduction
// kernels: semantics pinned against hand-computed references, including
// sub-group widths, partial masks, and segment boundaries.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "vgpu/device.hpp"

namespace {

using namespace acsr::vgpu;

class WarpPrimitives : public ::testing::Test {
 protected:
  WarpPrimitives() : dev(DeviceSpec::gtx_titan()) {}

  template <class F>
  KernelRun run_warp(F&& fn) {
    LaunchConfig cfg;
    cfg.block_dim = 32;
    return dev.launch_warps(cfg, fn);
  }

  Device dev;
};

TEST_F(WarpPrimitives, SegmentedScanStopsAtHeads) {
  run_warp([&](Warp& w) {
    const auto v = LaneArray<double>::filled(1.0);
    // Segments: [0..9], [10..19], [20..31].
    const Mask heads = lane_bit(0) | lane_bit(10) | lane_bit(20);
    const auto s = w.segmented_scan_add(v, heads, kFullMask);
    EXPECT_DOUBLE_EQ(s[0], 1.0);
    EXPECT_DOUBLE_EQ(s[9], 10.0);
    EXPECT_DOUBLE_EQ(s[10], 1.0);  // reset at segment head
    EXPECT_DOUBLE_EQ(s[19], 10.0);
    EXPECT_DOUBLE_EQ(s[20], 1.0);
    EXPECT_DOUBLE_EQ(s[31], 12.0);
  });
}

TEST_F(WarpPrimitives, SegmentedScanSingleLaneSegments) {
  run_warp([&](Warp& w) {
    const auto v = LaneArray<double>::iota(1.0);
    const auto s = w.segmented_scan_add(v, kFullMask, kFullMask);
    // Every lane its own segment: identity.
    for (int l = 0; l < kWarpSize; ++l)
      EXPECT_DOUBLE_EQ(s[l], static_cast<double>(l + 1));
  });
}

TEST_F(WarpPrimitives, SegmentedScanMatchesSequentialReference) {
  run_warp([&](Warp& w) {
    LaneArray<double> v;
    for (int l = 0; l < kWarpSize; ++l) v[l] = 0.5 + (l % 7);
    const Mask heads =
        lane_bit(0) | lane_bit(3) | lane_bit(4) | lane_bit(17) | lane_bit(29);
    const auto s = w.segmented_scan_add(v, heads, kFullMask);
    double acc = 0;
    for (int l = 0; l < kWarpSize; ++l) {
      if (lane_active(heads, l)) acc = 0;
      acc += v[l];
      EXPECT_DOUBLE_EQ(s[l], acc) << "lane " << l;
    }
  });
}

TEST_F(WarpPrimitives, ScanChargesShuffleInstructions) {
  const KernelRun run = run_warp([&](Warp& w) {
    (void)w.segmented_scan_add(LaneArray<double>::filled(1.0), lane_bit(0),
                               kFullMask);
  });
  EXPECT_EQ(run.counters.shuffle_ops, 5u);  // log2(32) Hillis-Steele steps
  EXPECT_GT(run.counters.dp_flops, 0u);
}

// Division-based references for the sub-group shuffles (the executor uses
// lane & ~(width - 1) instead).
template <class T>
LaneArray<T> ref_shfl_down(const LaneArray<T>& v, int delta, int width) {
  LaneArray<T> r;
  for (int lane = 0; lane < kWarpSize; ++lane) {
    const int group_end = (lane / width) * width + width;
    r[lane] = lane + delta < group_end ? v[lane + delta] : v[lane];
  }
  return r;
}

TEST_F(WarpPrimitives, ShuffleWidthSweepMatchesDivisionReference) {
  LaneArray<double> v;
  for (int l = 0; l < kWarpSize; ++l) v[l] = 0.25 * l + (l * 37 % 11);
  const Mask masks[] = {kFullMask, 0x00ff0f3cu, first_lanes(5)};
  run_warp([&](Warp& w) {
    for (const int width : {1, 2, 4, 8, 16, 32}) {
      for (int delta = 0; delta <= 32; ++delta) {
        const auto dn = w.shfl_down(v, delta, width);
        const auto dn_ref = ref_shfl_down(v, delta, width);
        for (int l = 0; l < kWarpSize; ++l) {
          EXPECT_EQ(dn[l], dn_ref[l])
              << "shfl_down width " << width << " delta " << delta
              << " lane " << l;
        }
      }
      for (const Mask m : masks) {
        LaneArray<double> ref = v;
        for (int l = 0; l < kWarpSize; ++l)
          if (!lane_active(m, l)) ref[l] = 0.0;
        for (int d = width / 2; d > 0; d /= 2) {
          const auto o = ref_shfl_down(ref, d, width);
          for (int l = 0; l < kWarpSize; ++l) ref[l] = ref[l] + o[l];
        }
        const auto r = w.reduce_add(v, m, width);
        for (int l = 0; l < kWarpSize; ++l)
          EXPECT_EQ(r[l], ref[l]) << "reduce_add width " << width << " mask "
                                  << m << " lane " << l;
      }
    }
  });
}

TEST_F(WarpPrimitives, ShuffleRejectsNonPowerOfTwoWidth) {
  const auto v = LaneArray<int>::iota();
  EXPECT_THROW(run_warp([&](Warp& w) { (void)w.shfl_down(v, 1, 12); }),
               acsr::InvariantError);
  EXPECT_THROW(run_warp([&](Warp& w) {
                 (void)w.reduce_add(LaneArray<double>{}, kFullMask, 12);
               }),
               acsr::InvariantError);
}

/// Bitwise double equality (distinguishes -0.0 from +0.0).
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST_F(WarpPrimitives, ReduceHeadsMatchesButterflyHeads) {
  // reduce_heads (both forms) against reduce_add's head lanes: every
  // width 1..32 (non-powers of two must throw), seeded masks including
  // the empty mask and groups with no live lane, values spread over many
  // magnitudes so any other summation order rounds differently. Heads
  // bitwise equal, other lanes zero, and every Counters field equal —
  // in fast and reference mode.
  acsr::Rng rng(0x4ead5);
  for (const bool reference : {false, true}) {
    set_reference_metering(reference);
    for (int width = 1; width <= kWarpSize; ++width) {
      if ((width & (width - 1)) != 0) {
        EXPECT_THROW(run_warp([&](Warp& w) {
                       (void)w.reduce_heads(LaneArray<double>{}, kFullMask,
                                            width);
                     }),
                     acsr::InvariantError)
            << "width " << width;
        EXPECT_THROW(run_warp([&](Warp& w) {
                       (void)w.reduce_heads(LaneTile<double>{}, 1, kFullMask,
                                            width);
                     }),
                     acsr::InvariantError)
            << "width " << width;
        continue;
      }
      for (int trial = 0; trial < 24; ++trial) {
        const std::string where = "width " + std::to_string(width) +
                                  " trial " + std::to_string(trial) +
                                  (reference ? " reference" : " fast");
        const auto value = [&] {
          return rng.next_double(-1.0, 1.0) *
                 std::ldexp(1.0, static_cast<int>(rng.next_below(60)) - 30);
        };
        LaneArray<double> v;
        LaneTile<double> t;
        for (int l = 0; l < kWarpSize; ++l) {
          v[l] = value();
          for (auto& x : t[l]) x = value();
        }
        Mask m = trial == 0   ? 0
                 : trial == 1 ? kFullMask
                              : static_cast<Mask>(rng.next_u64());
        // Kill whole groups now and then.
        for (int h = 0; h < kWarpSize; h += width)
          if (rng.next_bool(0.25)) m &= ~(first_lanes(width) << h);
        const int kt = 1 + trial % kTileCols;

        LaneArray<double> full;
        std::vector<LaneArray<double>> full_cols;
        const KernelRun ref_run = run_warp([&](Warp& w) {
          full = w.reduce_add(v, m, width);
          for (int c = 0; c < kt; ++c)
            full_cols.push_back(w.reduce_add(t.column(c), m, width));
        });
        LaneArray<double> heads;
        std::array<LaneArray<double>, kTileCols> head_cols;
        const KernelRun run = run_warp([&](Warp& w) {
          heads = w.reduce_heads(v, m, width);
          head_cols = w.reduce_heads(t, kt, m, width);
        });
        for (int l = 0; l < kWarpSize; ++l) {
          const bool head = l % width == 0;
          EXPECT_TRUE(same_bits(heads[l], head ? full[l] : 0.0))
              << where << " lane " << l;
          for (int c = 0; c < kTileCols; ++c) {
            const auto cc = static_cast<std::size_t>(c);
            EXPECT_TRUE(same_bits(head_cols[cc][l],
                                  head && c < kt ? full_cols[cc][l] : 0.0))
                << where << " column " << c << " lane " << l;
          }
        }
#define ACSR_EXPECT_SAME_FIELD(type, name, unit, what) \
  EXPECT_EQ(run.counters.name, ref_run.counters.name)  \
      << "counter '" #name "' " << where;
        ACSR_COUNTERS_FIELDS(ACSR_EXPECT_SAME_FIELD)
#undef ACSR_EXPECT_SAME_FIELD
      }
    }
  }
  set_reference_metering(false);
}

}  // namespace
