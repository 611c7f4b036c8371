// SIMT primitive semantics: lane arrays, masks, shuffles, reductions,
// the coalescing counters, and the memory arena.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "vgpu/device.hpp"
#include "vgpu/lane_array.hpp"
#include "vgpu/sanitizer.hpp"


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

TEST_F(WarpFixture, LoadPairZeroesMaskedLanesOnEveryRoute) {
  // Lanes outside the mask read zero on every route load_pair takes, as
  // in load and load_pair_runs: the caller's old contents never show
  // through, so the fast path and its oracles agree lane for lane.
  enum class Route { kFast, kReference, kSanitizer };
  const bool san_was = sanitizer_enabled();
  const bool reference_was = reference_metering();
  const Mask m = first_lanes(8);
  const auto affine = LaneArray<long long>::iota(16);
  LaneArray<long long> irregular;
  for (int l = 0; l < kWarpSize; ++l) irregular[l] = (l * 37) % 200;
  for (const Route route :
       {Route::kFast, Route::kReference, Route::kSanitizer}) {
    for (const bool is_affine : {true, false}) {
      const LaneArray<long long>& idx = is_affine ? affine : irregular;
      const std::string where =
          std::string(route == Route::kFast        ? "fast"
                      : route == Route::kReference ? "reference"
                                                   : "sanitizer") +
          (is_affine ? " affine" : " irregular");
      set_reference_metering(route == Route::kReference);
      Sanitizer::instance().set_enabled(route == Route::kSanitizer);
      auto a = dev.alloc<int>(256, "pair_int");
      auto b = dev.alloc<double>(256, "pair_double");
      auto& ha = a.host();
      auto& hb = b.host();
      for (std::size_t i = 0; i < 256; ++i) {
        ha[i] = static_cast<int>(i) + 1;
        hb[i] = 0.5 * static_cast<double>(i + 1);
      }
      auto ra = LaneArray<int>::filled(-1);
      auto rb = LaneArray<double>::filled(-1.0);
      run_warp([&](Warp& w) {
        w.load_pair(a.cspan(), b.cspan(), idx, m, ra, rb);
      });
      for (int l = 0; l < kWarpSize; ++l) {
        const bool on = lane_active(m, l);
        EXPECT_EQ(ra[l], on ? static_cast<int>(idx[l]) + 1 : 0)
            << where << " lane " << l;
        EXPECT_EQ(rb[l], on ? 0.5 * static_cast<double>(idx[l] + 1) : 0.0)
            << where << " lane " << l;
      }
    }
  }
  set_reference_metering(reference_was);
  Sanitizer::instance().set_enabled(san_was);
}

/// Every Counters field, by name (the X-macro field list).
void expect_same_counters(const Counters& a, const Counters& b,
                          const std::string& where) {
#define ACSR_EXPECT_SAME_FIELD(type, name, unit, what) \
  EXPECT_EQ(a.name, b.name) << "counter '" #name "' " << where;
  ACSR_COUNTERS_FIELDS(ACSR_EXPECT_SAME_FIELD)
#undef ACSR_EXPECT_SAME_FIELD
}

/// A random segmented-affine layout over [0, n) elements. Shapes: random
/// bases; descending bases; runs that start where the previous one ended
/// or one element before it (a shared boundary sector, or an overlap);
/// bases 8 KiB apart, which share a slot of the direct-mapped per-warp
/// cache, so a sector probed earlier in the gather is evicted before it
/// comes back. About a fifth of the runs are empty.
LaneRuns random_runs(acsr::Rng& rng, int vec, long long n) {
  constexpr long long kAlias = 8192 / sizeof(int);
  LaneRuns r;
  r.vec = vec;
  const auto shape = rng.next_below(4);
  const long long origin =
      static_cast<long long>(rng.next_below(static_cast<std::uint64_t>(
          n - 2 * kAlias - 2 * kWarpSize)));
  long long prev_end = origin;
  for (int g = 0; g < r.groups(); ++g) {
    const auto gi = static_cast<std::size_t>(g);
    r.len[gi] = rng.next_bool(0.2)
                    ? 0
                    : 1 + static_cast<int>(rng.next_below(
                              static_cast<std::uint64_t>(vec)));
    switch (shape) {
      case 0:
        r.base[gi] = static_cast<long long>(
            rng.next_below(static_cast<std::uint64_t>(n - vec)));
        break;
      case 1:
        r.base[gi] = n - vec - g * (2 * kWarpSize) -
                     static_cast<long long>(rng.next_below(kWarpSize));
        break;
      case 2:
        r.base[gi] = std::max(
            0LL, prev_end - static_cast<long long>(rng.next_below(2)));
        break;
      default:
        r.base[gi] = origin +
                     static_cast<long long>(rng.next_below(3)) * kAlias +
                     static_cast<long long>(rng.next_below(4));
    }
    prev_end = r.base[gi] + r.len[gi];
  }
  return r;
}

TEST_F(WarpFixture, GroupPrimitivesMatchPerLaneReference) {
  // load_pair_runs and load_broadcast against load_pair and load on the
  // equivalent per-lane index vector, for every group width, with and
  // without a concurrent group's L2: the same values, every Counters
  // field, and the same group-L2 contents. Each warp issues a sequence of
  // gathers, so cache state carries from one into the next.
  constexpr long long kN = 8192;
  constexpr int kSteps = 6;
  auto ai = dev.alloc<int>(kN, "runs_int");
  auto bd = dev.alloc<double>(kN, "runs_double");
  for (long long i = 0; i < kN; ++i) {
    ai.host()[static_cast<std::size_t>(i)] = static_cast<int>(7 * i + 1);
    bd.host()[static_cast<std::size_t>(i)] = 0.5 * static_cast<double>(i);
  }
  const auto sa = ai.cspan();
  const auto sb = bd.cspan();
  acsr::Rng rng(0x16a5);
  for (const bool reference : {false, true}) {
    set_reference_metering(reference);
    for (const int vec : {1, 2, 4, 8, 16, 32}) {
      for (int trial = 0; trial < 40; ++trial) {
        std::vector<LaneRuns> runs;
        std::vector<std::array<long long, kWarpSize>> gidx(kSteps);
        std::vector<Mask> groups;
        for (int s = 0; s < kSteps; ++s) {
          runs.push_back(random_runs(rng, vec, kN));
          // Broadcast indices: the runs' bases, so neighbouring groups
          // often share a sector.
          groups.push_back(static_cast<Mask>(rng.next_u64()) &
                           first_lanes(kWarpSize / vec));
          for (int g = 0; g < kWarpSize / vec; ++g)
            gidx[static_cast<std::size_t>(s)][static_cast<std::size_t>(g)] =
                runs.back().base[static_cast<std::size_t>(g)];
        }
        for (const bool group_l2 : {false, true}) {
          struct Out {
            std::vector<LaneArray<int>> ra;
            std::vector<LaneArray<double>> rb;
            std::vector<std::array<int, kWarpSize>> oi;
            std::vector<std::array<double, kWarpSize>> od;
            KernelRun run;
            std::size_t l2 = 0;
          };
          auto execute = [&](bool grouped) {
            Out o;
            o.ra.assign(kSteps, LaneArray<int>::filled(-1));
            o.rb.assign(kSteps, LaneArray<double>::filled(-1.0));
            o.oi.assign(kSteps, {});
            o.od.assign(kSteps, {});
            auto body = [&](Warp& w) {
              for (std::size_t s = 0; s < kSteps; ++s) {
                if (grouped) {
                  w.load_pair_runs(sa, sb, runs[s], o.ra[s], o.rb[s]);
                  w.load_broadcast(sa, vec, gidx[s], groups[s], o.oi[s]);
                  w.load_broadcast(sb, vec, gidx[s], groups[s], o.od[s]);
                  continue;
                }
                w.load_pair(sa, sb, runs[s].lanes(), runs[s].mask(), o.ra[s],
                            o.rb[s]);
                LaneArray<long long> idx{};
                for (int l = 0; l < kWarpSize; ++l)
                  idx[l] = gidx[s][static_cast<std::size_t>(l / vec)];
                const Mask m = group_lanes(groups[s], vec);
                const LaneArray<int> ri = w.load(sa, idx, m);
                const LaneArray<double> rd = w.load(sb, idx, m);
                for (int g = 0; g < kWarpSize / vec; ++g) {
                  if (!lane_active(groups[s], g)) continue;
                  o.oi[s][static_cast<std::size_t>(g)] = ri[g * vec];
                  o.od[s][static_cast<std::size_t>(g)] = rd[g * vec];
                }
              }
            };
            LaunchConfig cfg;
            cfg.block_dim = 32;
            if (group_l2) {
              ConcurrentGroup cg(dev);
              o.run = cg.launch_warps(cfg, body);
              o.l2 = cg.unique_sectors();
            } else {
              o.run = dev.launch_warps(cfg, body);
            }
            return o;
          };
          const Out lane = execute(false);
          const Out grp = execute(true);
          const std::string where =
              std::string(reference ? "reference" : "fast") + " V=" +
              std::to_string(vec) + " trial " + std::to_string(trial) +
              (group_l2 ? " group-L2" : "");
          for (std::size_t s = 0; s < kSteps; ++s) {
            // Lanes outside the runs read zero.
            const Mask m = runs[s].mask();
            for (int l = 0; l < kWarpSize; ++l) {
              const bool on = lane_active(m, l);
              EXPECT_EQ(on ? lane.ra[s][l] : 0, grp.ra[s][l])
                  << "int run values, lane " << l << " " << where;
              EXPECT_EQ(on ? lane.rb[s][l] : 0.0, grp.rb[s][l])
                  << "double run values, lane " << l << " " << where;
            }
            EXPECT_EQ(lane.oi[s], grp.oi[s]) << "int broadcast " << where;
            EXPECT_EQ(lane.od[s], grp.od[s]) << "double broadcast " << where;
          }
          expect_same_counters(lane.run.counters, grp.run.counters, where);
          EXPECT_EQ(lane.l2, grp.l2) << "group-L2 size " << where;
        }
      }
    }
  }
  set_reference_metering(false);
}

TEST_F(WarpFixture, GroupPrimitivesRejectOutOfRangeRuns) {
  // A run or broadcast index past the span's end is an InvariantError
  // naming the buffer, in fast and reference mode alike.
  auto a = dev.alloc<int>(64, "short_int");
  auto b = dev.alloc<double>(64, "short_double");
  const auto sa = a.cspan();
  const auto sb = b.cspan();
  const auto throws_naming = [&](const std::function<void(Warp&)>& fn) {
    try {
      run_warp(fn);
    } catch (const acsr::InvariantError& e) {
      return std::string(e.what()).find("short_int") != std::string::npos;
    }
    return false;
  };
  for (const bool reference : {false, true}) {
    set_reference_metering(reference);
    LaneRuns runs;
    runs.vec = 8;
    runs.base[0] = 0;
    runs.len[0] = 8;
    runs.base[2] = 60;  // elements 60..67: four past the end
    runs.len[2] = 8;
    EXPECT_TRUE(throws_naming([&](Warp& w) {
      LaneArray<int> ra;
      LaneArray<double> rb;
      w.load_pair_runs(sa, sb, runs, ra, rb);
    })) << (reference ? "reference" : "fast");
    std::array<long long, kWarpSize> gidx{};
    gidx[1] = 64;
    EXPECT_TRUE(throws_naming([&](Warp& w) {
      std::array<int, kWarpSize> out{};
      w.load_broadcast(sa, 8, gidx, Mask{0b11}, out);
    })) << (reference ? "reference" : "fast");
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

TEST(Memory, RewindReusesAddressesAndRefusesLiveAllocations) {
  // The sanitizer keeps a tombstone per freed buffer; a buffer the rewind
  // places over tombstones of other sizes must resolve to itself.
  const bool san_was = sanitizer_enabled();
  Sanitizer::instance().clear();
  Sanitizer::instance().set_enabled(true);
  Device dev(DeviceSpec::gtx_titan());
  auto x = dev.alloc<double>(10, "x");
  const std::uint64_t mark = dev.arena().offset();
  {
    MemoryArena::Rewind rewind(dev.arena());
    auto a = dev.alloc<double>(100, "a");
    auto b = dev.alloc<double>(100, "b");
  }
  EXPECT_EQ(dev.arena().offset(), mark);
  {
    MemoryArena::Rewind rewind(dev.arena());
    auto c = dev.alloc<double>(300, "c");
    EXPECT_EQ(dev.arena().relative(c.cspan().addr()), mark);
    c.host().assign(300, 1.0);
    EXPECT_EQ(Sanitizer::instance().buffer_name(c.cspan().addr_of(150)), "c");
    LaunchConfig cfg;
    cfg.name = "rewound_read";
    cfg.block_dim = 32;
    cfg.grid_dim = 1;
    auto cs = c.cspan();
    dev.launch_warps(cfg, [&](Warp& w) {
      w.load(cs, LaneArray<long long>::iota(140, 1), w.active_mask());
    });
  }
  EXPECT_TRUE(Sanitizer::instance().reports().empty())
      << Sanitizer::instance().reports().front().message;
  Sanitizer::instance().set_enabled(san_was);
  Sanitizer::instance().clear();

  // Leaving a scope with an allocation still live is an InvariantError,
  // and the cursor stays past the live buffer.
  DeviceBuffer<double> kept;
  const auto leak = [&] {
    MemoryArena::Rewind rewind(dev.arena());
    kept = dev.alloc<double>(8, "kept");
  };
  EXPECT_THROW(leak(), acsr::InvariantError);
  EXPECT_GT(dev.arena().offset(), mark);
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

TEST_F(WarpFixture, LaneTileTexFetchMatchesPerElementReads) {
  // load_tex_vec fills each active lane's tile row with its kt consecutive
  // elements, exactly what kt per-element load_tex calls read; inactive
  // lanes and columns >= kt keep their contents. A lane whose base is one
  // element short of a sector edge touches sectors q, q+1 (kt >= 2) and
  // q+2 (kt >= 6), each charged once; the fast path and reference
  // metering charge every Counters field alike.
  constexpr long long kN = 4096;
  constexpr double kKeep = -7.0;
  auto buf = dev.alloc<double>(kN, "xpack_tile");
  for (long long i = 0; i < kN; ++i)
    buf.host()[static_cast<std::size_t>(i)] =
        1.0 + 0.25 * static_cast<double>(i);
  const auto s = buf.cspan();
  acsr::Rng rng(0x7e5);
  for (int kt = 1; kt <= kTileCols; ++kt) {
    for (int trial = 0; trial < 12; ++trial) {
      const std::string where =
          "kt " + std::to_string(kt) + " trial " + std::to_string(trial);
      // Trial 0: lane l's base 8*l sectors in, one element short of the
      // sector's end (4 doubles per 32 B sector); otherwise random bases
      // under a random mask.
      LaneArray<long long> idx;
      for (int l = 0; l < kWarpSize; ++l)
        idx[l] = trial == 0 ? 4 * (8 * l) + 3
                            : static_cast<long long>(rng.next_below(
                                  static_cast<std::uint64_t>(kN - kt + 1)));
      const Mask m = trial == 0 ? kFullMask
                                : static_cast<Mask>(rng.next_u64()) | 1u;
      KernelRun runs[2];
      for (const bool reference : {false, true}) {
        set_reference_metering(reference);
        LaneTile<double> t;
        for (auto& row : t.v) row.fill(kKeep);
        std::vector<LaneArray<double>> e;
        runs[reference ? 1 : 0] =
            run_warp([&](Warp& w) { w.load_tex_vec(s, idx, kt, m, t); });
        run_warp([&](Warp& w) {
          for (int c = 0; c < kt; ++c)
            e.push_back(w.load_tex(s, idx + static_cast<long long>(c), m));
        });
        for (int l = 0; l < kWarpSize; ++l)
          for (int c = 0; c < kTileCols; ++c)
            EXPECT_EQ(t[l][static_cast<std::size_t>(c)],
                      lane_active(m, l) && c < kt
                          ? e[static_cast<std::size_t>(c)][l]
                          : kKeep)
                << where << " lane " << l << " column " << c;
      }
      set_reference_metering(false);
      expect_same_counters(runs[0].counters, runs[1].counters, where);
      EXPECT_EQ(runs[0].counters.tex_requests,
                static_cast<std::uint64_t>((kt * 8 + 15) / 16))
          << where;
      if (trial == 0) {
        EXPECT_EQ(runs[0].counters.tex_transactions,
                  static_cast<std::uint64_t>(kWarpSize) *
                      (1u + (kt >= 2 ? 1u : 0u) + (kt >= 6 ? 1u : 0u)))
            << where;
      }
    }
  }
}

TEST_F(WarpFixture, LaneTileTexFetchRejectsOutOfRange) {
  // A lane whose kt-element slice runs past the span's end, or a tile
  // wider than kTileCols, is an InvariantError; the former names the
  // buffer. Fast and reference mode alike.
  auto buf = dev.alloc<double>(64, "short_tile");
  const auto s = buf.cspan();
  const auto throws_naming = [&](const std::function<void(Warp&)>& fn) {
    try {
      run_warp(fn);
    } catch (const acsr::InvariantError& e) {
      return std::string(e.what()).find("short_tile") != std::string::npos;
    }
    return false;
  };
  for (const bool reference : {false, true}) {
    set_reference_metering(reference);
    LaneArray<long long> idx{};
    idx[5] = 60;  // elements 60..63 fit a 4-wide tile, not a 5-wide one
    LaneTile<double> t;
    EXPECT_NO_THROW(
        run_warp([&](Warp& w) { w.load_tex_vec(s, idx, 4, kFullMask, t); }));
    EXPECT_TRUE(throws_naming(
        [&](Warp& w) { w.load_tex_vec(s, idx, 5, kFullMask, t); }))
        << (reference ? "reference" : "fast");
    idx[5] = -1;
    EXPECT_TRUE(throws_naming(
        [&](Warp& w) { w.load_tex_vec(s, idx, 1, kFullMask, t); }))
        << (reference ? "reference" : "fast");
    idx[5] = 0;
    EXPECT_THROW(run_warp([&](Warp& w) {
                   w.load_tex_vec(s, idx, kTileCols + 1, kFullMask, t);
                 }),
                 acsr::InvariantError);
  }
  set_reference_metering(false);
}

}  // namespace
