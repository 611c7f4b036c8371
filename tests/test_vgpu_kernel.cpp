// Kernel execution & cost model: grid geometry, block phases as barriers,
// dynamic parallelism (incl. pending-launch limit and the CC < 3.5 guard),
// block-parallel launches (merge, exceptions, the independence promise),
// the roofline terms, and timeline composition.
#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "spmv/csr_vector.hpp"
#include "vgpu/device.hpp"

#include "memo_guard.hpp"

namespace {

using namespace acsr::vgpu;

TEST(KernelExec, GridGeometry) {
  Device dev(DeviceSpec::gtx_titan());
  LaunchConfig cfg;
  cfg.grid_dim = 5;
  cfg.block_dim = 96;  // 3 warps
  std::vector<int> seen_blocks;
  long long warp_count = 0;
  const KernelRun run = dev.launch(cfg, [&](Block& blk) {
    seen_blocks.push_back(static_cast<int>(blk.block_idx()));
    EXPECT_EQ(blk.block_dim(), 96);
    EXPECT_EQ(blk.grid_dim(), 5);
    EXPECT_EQ(blk.warps_per_block(), 3);
    blk.each_warp([&](Warp& w) {
      ++warp_count;
      EXPECT_EQ(w.active_mask(), kFullMask);  // 96 divisible by 32
    });
  });
  EXPECT_EQ(seen_blocks.size(), 5u);
  EXPECT_EQ(warp_count, 15);
  EXPECT_EQ(run.counters.blocks, 5u);
  EXPECT_EQ(run.counters.warps, 15u);
}

TEST(KernelExec, PartialLastWarpMask) {
  Device dev(DeviceSpec::gtx_titan());
  LaunchConfig cfg;
  cfg.block_dim = 40;  // one full warp + 8 live lanes
  Mask masks[2] = {0, 0};
  dev.launch(cfg, [&](Block& blk) {
    blk.each_warp([&](Warp& w) {
      masks[w.warp_in_block()] = w.active_mask();
    });
  });
  EXPECT_EQ(masks[0], kFullMask);
  EXPECT_EQ(masks[1], first_lanes(8));
}

TEST(KernelExec, VectorGroupCutByBlockEdgeThrows) {
  // block_dim 100 leaves the fourth warp 4 live lanes: half of the V = 8
  // group serving row 12. Running only that half would publish a partial
  // row sum (4 where the row of eight ones sums to 8), so the csr-vector
  // kernels reject a group the block edge cuts — in fast and reference
  // mode. With block_dim 128 every group is whole and every row sums to 8.
  using acsr::mat::index_t;
  using acsr::mat::offset_t;
  constexpr int kRows = 16;
  constexpr int kV = 8;
  constexpr int kCols = 2;  // SpMM batch width
  for (const bool reference : {false, true}) {
    set_reference_metering(reference);
    Device dev(DeviceSpec::gtx_titan());
    auto row_off = dev.alloc<offset_t>(kRows + 1, "row_off");
    auto col_idx = dev.alloc<index_t>(kRows * kV, "col_idx");
    auto vals = dev.alloc<double>(kRows * kV, "vals");
    auto x = dev.alloc<double>(kV * kCols, "x");
    auto y = dev.alloc<double>(kRows * kCols, "y");
    for (int r = 0; r <= kRows; ++r)
      row_off.host()[static_cast<std::size_t>(r)] = r * kV;
    for (int e = 0; e < kRows * kV; ++e) {
      col_idx.host()[static_cast<std::size_t>(e)] = e % kV;
      vals.host()[static_cast<std::size_t>(e)] = 1.0;
    }
    for (double& v : x.host()) v = 1.0;
    const auto rs = row_off.cspan().subspan(0, kRows);
    const auto re = row_off.cspan().subspan(1, kRows);
    const DeviceSpan<const index_t> no_map;
    auto spmv = [&](Warp& w) {
      acsr::spmv::csr_vector_warp<double>(
          w, kV, rs, re, col_idx.cspan(), vals.cspan(), x.cspan(),
          y.span().subspan(0, kRows), no_map, kRows,
          w.global_warp() * (kWarpSize / kV));
    };
    auto spmm = [&](Warp& w) {
      acsr::spmv::csr_vector_spmm_warp<double>(
          w, kV, rs, re, col_idx.cspan(), vals.cspan(), x.cspan(), y.span(),
          kRows, kRows, no_map, kRows, w.global_warp() * (kWarpSize / kV),
          kCols);
    };
    const char* mode = reference ? "reference" : "fast";
    LaunchConfig cfg;
    cfg.block_dim = 100;
    EXPECT_THROW(dev.launch_warps(cfg, spmv), acsr::InvariantError) << mode;
    EXPECT_THROW(dev.launch_warps(cfg, spmm), acsr::InvariantError) << mode;
    cfg.block_dim = 128;
    dev.launch_warps(cfg, spmv);
    for (int r = 0; r < kRows; ++r)
      EXPECT_EQ(y.host()[static_cast<std::size_t>(r)], 8.0) << mode;
    dev.launch_warps(cfg, spmm);
    for (const double v : y.host()) EXPECT_EQ(v, 8.0) << mode;
  }
  set_reference_metering(false);
}

TEST(KernelExec, GlobalThreadIds) {
  Device dev(DeviceSpec::gtx_titan());
  LaunchConfig cfg;
  cfg.grid_dim = 3;
  cfg.block_dim = 64;
  std::vector<long long> ids;
  dev.launch(cfg, [&](Block& blk) {
    blk.each_warp([&](Warp& w) {
      const auto t = w.global_threads();
      ids.push_back(t[0]);
    });
  });
  EXPECT_EQ(ids, (std::vector<long long>{0, 32, 64, 96, 128, 160}));
}

TEST(KernelExec, EachWarpPhasesActAsBarrier) {
  Device dev(DeviceSpec::gtx_titan());
  LaunchConfig cfg;
  cfg.block_dim = 128;
  dev.launch(cfg, [&](Block& blk) {
    auto shared = blk.shared<int>(4);
    blk.each_warp([&](Warp& w) {
      shared[static_cast<std::size_t>(w.warp_in_block())] =
          w.warp_in_block() + 1;
    });
    blk.sync();
    blk.each_warp([&](Warp& w) {
      if (w.warp_in_block() != 0) return;
      int total = 0;
      for (std::size_t i = 0; i < 4; ++i) total += shared[i];
      EXPECT_EQ(total, 1 + 2 + 3 + 4);  // all phase-1 writes visible
    });
  });
}

TEST(DynamicParallelism, ChildrenExecuteAndAreCounted) {
  Device dev(DeviceSpec::gtx_titan());
  auto out = dev.alloc<int>(64, "out");
  auto out_span = out.span();
  LaunchConfig cfg;
  cfg.block_dim = 32;
  const KernelRun run = dev.launch_warps(cfg, [&](Warp& w) {
    for (int l = 0; l < 2; ++l) {
      LaunchConfig child;
      child.grid_dim = 2;
      child.block_dim = 32;
      const int base = l * 32;
      w.launch_child(child, [out_span, base](Block& blk) {
        blk.each_warp([&](Warp& cw) {
          const auto idx = LaneArray<long long>::iota(
              base / 2 + blk.block_idx() * 8);
          cw.store(out_span, idx, LaneArray<int>::filled(1),
                   first_lanes(8));
        });
      });
    }
  });
  EXPECT_EQ(run.counters.child_launches, 2u);
  EXPECT_EQ(run.counters.child_blocks, 4u);
  EXPECT_GT(run.dp_s, 0.0);
  int written = 0;
  for (int v : out.host()) written += v;
  EXPECT_GT(written, 0);
}

TEST(DynamicParallelism, NestedChildrenAllowed) {
  Device dev(DeviceSpec::gtx_titan());
  int depth2_runs = 0;
  LaunchConfig cfg;
  cfg.block_dim = 32;
  dev.launch_warps(cfg, [&](Warp& w) {
    w.launch_child({1, 32, "child"}, [&](Block& blk) {
      blk.each_warp([&](Warp& cw) {
        cw.launch_child({1, 32, "grandchild"}, [&](Block&) {
          ++depth2_runs;
        });
      });
    });
  });
  EXPECT_EQ(depth2_runs, 1);
}

TEST(DynamicParallelism, RejectedOnFermi) {
  Device dev(DeviceSpec::gtx580());
  LaunchConfig cfg;
  cfg.block_dim = 32;
  EXPECT_THROW(dev.launch_warps(cfg,
                                [&](Warp& w) {
                                  w.launch_child({1, 32, "child"},
                                                 [](Block&) {});
                                }),
               acsr::InvariantError);
}

TEST(DynamicParallelism, PendingLaunchLimitPenalty) {
  DeviceSpec spec = DeviceSpec::gtx_titan();
  spec.pending_launch_limit = 4;
  Device dev(spec);
  auto run_with_children = [&](int n_children) {
    LaunchConfig cfg;
    cfg.block_dim = 32;
    return dev.launch_warps(cfg, [&](Warp& w) {
      for (int i = 0; i < n_children; ++i)
        w.launch_child({1, 32, "c"}, [](Block&) {});
    });
  };
  const KernelRun under = run_with_children(4);
  const KernelRun over = run_with_children(8);
  // Per-launch cost beyond the limit must exceed the within-limit rate.
  const double under_per = under.dp_s / 4.0;
  const double over_extra = (over.dp_s - under.dp_s) / 4.0;
  EXPECT_GT(over_extra, under_per * 2.0);
}

TEST(CostModel, MemoryBoundKernelScalesWithBytes) {
  Device dev(DeviceSpec::gtx_titan());
  auto big = dev.alloc<double>(1 << 20, "big");
  auto big_span = big.cspan();
  auto run_streaming = [&](long long warps) {
    LaunchConfig cfg;
    cfg.grid_dim = warps;
    cfg.block_dim = 32;
    return dev.launch_warps(cfg, [&](Warp& w) {
      const auto idx =
          LaneArray<long long>::iota(w.global_warp() * 32);
      (void)w.load(big_span, idx, kFullMask);
    });
  };
  const KernelRun r1 = run_streaming(1024);
  const KernelRun r2 = run_streaming(8192);
  EXPECT_GT(r2.memory_s, r1.memory_s * 7.0);
  EXPECT_LT(r2.memory_s, r1.memory_s * 9.0);
}

TEST(CostModel, TinyGridsCannotSaturateDram) {
  Device dev(DeviceSpec::gtx_titan());
  auto buf = dev.alloc<double>(1 << 16, "buf");
  auto span = buf.cspan();
  // One warp streaming alone: far too little memory-level parallelism to
  // saturate DRAM, so the kernel is much slower than bytes / peak-BW.
  LaunchConfig cfg;
  cfg.block_dim = 32;
  const KernelRun run = dev.launch_warps(cfg, [&](Warp& w) {
    for (int i = 0; i < 512; ++i) {
      const auto idx = LaneArray<long long>::iota(i * 32);
      (void)w.load(span, idx, kFullMask);
    }
  });
  const double at_peak =
      run.dram_bytes /
      (dev.spec().dram_bandwidth_gbs * 1e9 * dev.spec().dram_efficiency);
  EXPECT_GT(run.memory_s, 10.0 * at_peak);
  EXPECT_GT(run.latency_s, run.issue_s);  // and its chain beats its issues
}

TEST(CostModel, DoublePrecisionFlopsCostMore) {
  Device dev(DeviceSpec::tesla_k10());  // 1/24 DP rate: the gap is obvious
  LaunchConfig cfg;
  cfg.grid_dim = 256;
  cfg.block_dim = 128;
  auto flops_kernel = [&](bool dp) {
    return dev.launch_warps(cfg, [&](Warp& w) {
      for (int i = 0; i < 64; ++i) w.count_flops(kFullMask, 2, dp);
    });
  };
  const KernelRun sp = flops_kernel(false);
  const KernelRun dp = flops_kernel(true);
  EXPECT_GT(dp.flop_s, sp.flop_s * 20.0);
}

TEST(CostModel, TextureFootprintDrivesMissRate) {
  Device dev(DeviceSpec::gtx_titan());
  auto small_x = dev.alloc<float>(1024, "xs");          // fits in cache
  auto large_x = dev.alloc<float>(32 << 20, "xl");      // 128 MB: misses
  auto small_span = small_x.cspan();
  auto large_span = large_x.cspan();
  acsr::Rng rng(5);
  std::vector<long long> scatter(32);
  auto gather = [&](auto span, std::size_t range) {
    LaunchConfig cfg;
    cfg.grid_dim = 512;
    cfg.block_dim = 32;
    return dev.launch_warps(cfg, [&](Warp& w) {
      LaneArray<long long> idx;
      for (int l = 0; l < 32; ++l)
        idx[l] = static_cast<long long>(rng.next_below(range));
      (void)w.load_tex(span, idx, kFullMask);
    });
  };
  const KernelRun small = gather(small_span, 1024);
  const KernelRun large = gather(large_span, 32 << 20);
  // Same request counts, very different DRAM pressure.
  EXPECT_GT(large.memory_s, small.memory_s * 3.0);
}

TEST(Timeline, SequentialVsConcurrent) {
  Device dev(DeviceSpec::gtx_titan());
  auto buf = dev.alloc<double>(1 << 18, "buf");
  auto span = buf.cspan();
  std::vector<KernelRun> runs;
  for (int k = 0; k < 4; ++k) {
    LaunchConfig cfg;
    cfg.grid_dim = 64;
    cfg.block_dim = 32;
    runs.push_back(dev.launch_warps(cfg, [&](Warp& w) {
      const auto idx = LaneArray<long long>::iota(
          (w.global_warp() * 32) % (1 << 17));
      (void)w.load(span, idx, kFullMask);
    }));
  }
  const double seq = combine_sequential(runs);
  const double conc = combine_concurrent(runs, dev.spec());
  EXPECT_LT(conc, seq);  // four launch overheads collapse to one + gaps
  EXPECT_GT(conc, 0.0);
  EXPECT_EQ(combine_concurrent({}, dev.spec()), 0.0);
}

TEST(Timeline, LaunchOverheadFloorsKernelTime) {
  Device dev(DeviceSpec::gtx_titan());
  LaunchConfig cfg;
  cfg.block_dim = 32;
  const KernelRun run = dev.launch_warps(cfg, [](Warp&) {});
  EXPECT_GE(run.duration_s, dev.spec().host_launch_overhead_s);
}

// --- Block-parallel launches (docs/PERF.md, "Block-parallel metering") ---

void expect_same_run(const KernelRun& a, const KernelRun& b) {
#define ACSR_EXPECT_SAME_FIELD(type, name, unit, what) \
  EXPECT_EQ(a.counters.name, b.counters.name) << "counter '" #name "'";
  ACSR_COUNTERS_FIELDS(ACSR_EXPECT_SAME_FIELD)
#undef ACSR_EXPECT_SAME_FIELD
  EXPECT_EQ(a.issue_s, b.issue_s);
  EXPECT_EQ(a.latency_s, b.latency_s);
  EXPECT_EQ(a.dram_bytes, b.dram_bytes);
  EXPECT_EQ(a.duration_s, b.duration_s);
}

/// Two overlapping launches of a concurrent group: each warp streams a
/// window of `a` that the other launch's windows overlap, gathers
/// irregularly through global memory and texture, does per-block uneven
/// work, stages through shared memory and stores its own slots of y.
struct GroupPair {
  KernelRun first, second;
  std::size_t unique_sectors = 0;
  std::vector<double> y;
};

GroupPair run_group_pair() {
  Device dev(DeviceSpec::gtx_titan());
  auto a = dev.alloc<double>(8192, "a");
  auto y = dev.alloc<double>(2 * 48 * 128, "y");
  for (std::size_t i = 0; i < a.host().size(); ++i)
    a.host()[i] = 0.25 * static_cast<double>(i % 97);
  y.host().assign(y.host().size(), 0.0);
  const auto as = a.cspan();
  const auto ys = y.span();
  ConcurrentGroup group(dev);
  KernelRun runs[2];
  for (int k = 0; k < 2; ++k) {
    LaunchConfig cfg;
    cfg.name = "overlap" + std::to_string(k);
    cfg.grid_dim = 48;
    cfg.block_dim = 128;
    cfg.blocks_independent = true;
    runs[k] = group.launch(cfg, [&, k](Block& blk) {
      auto slab = blk.shared<double>(128);
      blk.each_warp([&](Warp& w) {
        const long long gw = w.global_warp();
        const auto seq = w.load_seq(as, (gw * 40 + k * 3000) % 8000, kFullMask);
        const auto hashed = w.global_threads().map(
            [k](long long t) { return (t * 2654435761LL + k) & 8191; });
        const auto g = w.load(as, hashed, w.active_mask());
        const auto t = w.load_tex(as, hashed, w.active_mask());
        for (int l = 0; l < kWarpSize; ++l)
          slab[static_cast<std::size_t>(w.warp_in_block() * 32 + l)] =
              seq[l] + g[l] * t[l];
        w.count_smem(1);
        w.count_flops(w.active_mask(),
                      1 + static_cast<int>(blk.block_idx() % 5), true);
        LaneArray<double> out;
        for (int l = 0; l < kWarpSize; ++l)
          out[l] = slab[static_cast<std::size_t>(w.warp_in_block() * 32 + l)];
        w.store_seq(ys, k * 48 * 128 + gw * 32, out, w.active_mask());
      });
      blk.sync();
    });
  }
  return {runs[0], runs[1], group.unique_sectors(), y.host()};
}

TEST(BlockParallel, ConcurrentGroupOverlapMatchesInOrder) {
  const acsr::test::MemoGuard planes(/*memo_on=*/false);  // pool eligible
  GroupPair in_order;
  {
    const ScopedBlockParallelism one(1, 1);
    in_order = run_group_pair();
  }
  EXPECT_GT(in_order.second.counters.gmem_transactions, 0u);
  for (int threads = 2; threads <= 4; ++threads) {
    SCOPED_TRACE(std::to_string(threads) + " workers");
    const ScopedBlockParallelism pool(threads, 1);
    const std::uint64_t pooled = block_parallel_launches();
    const GroupPair par = run_group_pair();
    EXPECT_EQ(block_parallel_launches(), pooled + 2);
    expect_same_run(in_order.first, par.first);
    expect_same_run(in_order.second, par.second);
    EXPECT_EQ(in_order.unique_sectors, par.unique_sectors);
    EXPECT_EQ(in_order.y, par.y);
  }
}

TEST(BlockParallel, LowestThrowingBlockIsRethrown) {
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " workers");
    const ScopedBlockParallelism pool(threads, 1);
    Device dev(DeviceSpec::gtx_titan());
    LaunchConfig cfg;
    cfg.name = "throwing";
    cfg.grid_dim = 64;
    cfg.block_dim = 32;
    cfg.blocks_independent = true;
    // Block 9 throws late, so on the pool the later throwers have
    // usually thrown already.
    for (int round = 0; round < 5; ++round) {
      try {
        dev.launch(cfg, [&](Block& blk) {
          const long long b = blk.block_idx();
          if (b == 9)
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          if (b == 9 || b == 20 || b == 63)
            throw std::runtime_error("block " + std::to_string(b));
          blk.each_warp([](Warp& w) { w.count_alu(1000); });
        });
        ADD_FAILURE() << "no exception";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "block 9");
      }
    }
  }
}

TEST(BlockParallel, OrderingOperationsThrowNamingTheKernel) {
  // In order (1 worker) and on the pool alike: an independent grid may
  // not issue an atomic or a device-side launch.
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " workers");
    const ScopedBlockParallelism pool(threads, 1);
    Device dev(DeviceSpec::gtx_titan());
    auto y = dev.alloc<double>(32, "y");
    y.host().assign(32, 0.0);
    const auto ys = y.span();
    LaunchConfig cfg;
    cfg.grid_dim = 8;
    cfg.block_dim = 32;
    cfg.blocks_independent = true;
    const auto expect_named_throw = [&](const std::string& name, auto&& fn) {
      cfg.name = name;
      try {
        dev.launch_warps(cfg, fn);
        ADD_FAILURE() << "no exception";
      } catch (const acsr::InvariantError& e) {
        EXPECT_NE(std::string(e.what()).find("'" + name + "'"),
                  std::string::npos)
            << e.what();
      }
    };
    expect_named_throw("indep_atomic", [&](Warp& w) {
      w.atomic_add(ys, w.lanes(), LaneArray<double>::filled(1.0), kFullMask);
    });
    expect_named_throw("indep_child", [&](Warp& w) {
      w.launch_child(LaunchConfig{}, [](Block&) {});
    });
  }
}

}  // namespace
