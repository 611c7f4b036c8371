// End-to-end integration: corpus generation -> ACSR -> PageRank -> dynamic
// updates -> multi-GPU, exercising the whole stack the way the benches do;
// plus direct tests for the concurrent-group L2 model and the corpus-
// scaled device specs that the integration depends on.
#include <gtest/gtest.h>

#include <cstdio>
#include <unordered_set>

#include "apps/dynamic_pagerank.hpp"
#include "common/rng.hpp"
#include "core/multi_gpu.hpp"
#include "graph/corpus.hpp"
#include "mat/mm_io.hpp"

namespace {

using namespace acsr;

TEST(ConcurrentGroup, SharesSectorsAcrossLaunches) {
  vgpu::Device dev(vgpu::DeviceSpec::gtx_titan());
  auto buf = dev.alloc<float>(4096, "data");
  auto span = buf.cspan();
  auto streaming_kernel = [&](vgpu::Warp& w) {
    const auto idx =
        vgpu::LaneArray<long long>::iota((w.global_warp() % 128) * 32);
    (void)w.load(span, idx, vgpu::kFullMask);
  };
  vgpu::LaunchConfig cfg;
  cfg.grid_dim = 32;
  cfg.block_dim = 128;

  // Outside a group: both launches fetch from DRAM independently.
  const auto solo1 = dev.launch_warps(cfg, streaming_kernel);
  const auto solo2 = dev.launch_warps(cfg, streaming_kernel);
  EXPECT_EQ(solo1.counters.gmem_transactions,
            solo2.counters.gmem_transactions);

  // Inside a group: the second launch's sectors are L2 hits.
  vgpu::ConcurrentGroup group(dev);
  const auto g1 = group.launch_warps(cfg, streaming_kernel);
  const auto g2 = group.launch_warps(cfg, streaming_kernel);
  EXPECT_EQ(g1.counters.gmem_transactions,
            solo1.counters.gmem_transactions);
  EXPECT_EQ(g2.counters.gmem_transactions, 0u);
  EXPECT_EQ(group.unique_sectors(),
            static_cast<std::size_t>(solo1.counters.gmem_transactions));
  EXPECT_GT(group.seconds(), 0.0);
}

TEST(ConcurrentGroup, SectorSetMatchesUnorderedSetThroughGrowth) {
  // The group L2's flat table against a node-based reference: every
  // insert must report the same freshness, through many doublings. Keys
  // mix dense runs (sequential sectors of one buffer), arena slices 16 TiB
  // apart (their low bits coincide), the shared-memory sentinel range and
  // key 0.
  constexpr std::uint64_t kSector = 32;
  constexpr std::uint64_t kSlice = 0x100000000000ULL;  // 16 TiB
  constexpr std::uint64_t kSharedBase = 0xffff000000000000ULL;
  acsr::Rng rng(0x5ec7);
  vgpu::SectorSet set;
  std::unordered_set<std::uint64_t> ref;
  auto insert = [&](std::uint64_t key) {
    ASSERT_EQ(set.insert(key), ref.insert(key).second) << "key " << key;
  };
  insert(0);
  for (int i = 0; i < 250000; ++i) {
    const std::uint64_t off = rng.next_below(1 << 16);
    switch (rng.next_below(4)) {
      case 0:  // arena slice k, nearby sectors
        insert((0x10000 + kSlice * rng.next_below(8)) / kSector + off);
        break;
      case 1:  // shared-memory spans
        insert((kSharedBase + rng.next_below(64) * 0x100000ULL) / kSector +
               off % 8);
        break;
      case 2:  // anywhere in the 2^59-sector address space
        insert(rng.next_u64() >> 5);
        break;
      default:  // low keys, 0 included
        insert(off % 1024);
        break;
    }
  }
  insert(0);
  EXPECT_EQ(set.size(), ref.size());
  EXPECT_GT(ref.size(), std::size_t{100000});  // many growths happened
}

TEST(ConcurrentGroup, SectorSetWordBitmapEdges) {
  // The table is keyed by 64-sector words with a one-entry memo of the
  // last word's slot: pin the word edges, the ends of the key range, and
  // a memoised word that stays live across doublings.
  vgpu::SectorSet set;
  std::unordered_set<std::uint64_t> ref;
  auto insert = [&](std::uint64_t key) {
    ASSERT_EQ(set.insert(key), ref.insert(key).second) << "key " << key;
  };
  constexpr std::uint64_t kMaxSector = (std::uint64_t{1} << 59) - 1;
  // 63 is the last sector of word 0, 64 the first of word 1: alternating
  // between them switches the memo on every insert.
  for (int r = 0; r < 3; ++r) {
    insert(63);
    insert(64);
  }
  insert(0);
  insert(kMaxSector);
  insert(kMaxSector - 63);  // first sector of the top word
  insert(0);
  insert(kMaxSector);
  // Each fresh word may trigger a grow(); the sectors inserted right after
  // go through the memo, which must point at the word's new slot. A hot
  // word interleaved with the fresh ones re-finds its slot by hashing.
  constexpr std::uint64_t kHot = 777 * 64;
  for (std::uint64_t word = 1000; word < 60000; ++word) {
    insert(word * 64 + 5);
    insert(word * 64 + 5);
    insert(word * 64 + 6);
    insert(kHot + word % 64);
  }
  insert(63);
  insert(64);
  insert(0);
  insert(kMaxSector);
  EXPECT_EQ(set.size(), ref.size());
  EXPECT_THROW(set.insert(kMaxSector + 1), acsr::InvariantError);
}

TEST(ScaledSpec, ShrinksFixedCostsOnly) {
  const auto base = vgpu::DeviceSpec::gtx_titan();
  const auto scaled = base.scaled_for_corpus(64);
  EXPECT_DOUBLE_EQ(scaled.host_launch_overhead_s,
                   base.host_launch_overhead_s / 64.0);
  EXPECT_DOUBLE_EQ(scaled.transfer_setup_s, base.transfer_setup_s / 64.0);
  EXPECT_EQ(scaled.global_mem_bytes, base.global_mem_bytes / 64);
  // Work-rate parameters untouched.
  EXPECT_DOUBLE_EQ(scaled.dram_bandwidth_gbs, base.dram_bandwidth_gbs);
  EXPECT_DOUBLE_EQ(scaled.clock_ghz, base.clock_ghz);
  EXPECT_EQ(scaled.sm_count, base.sm_count);
  EXPECT_EQ(scaled.pending_launch_limit, base.pending_launch_limit);
  // scale = 1 is the identity.
  EXPECT_DOUBLE_EQ(base.scaled_for_corpus(1).host_launch_overhead_s,
                   base.host_launch_overhead_s);
}

TEST(Integration, CorpusToPagerankToDynamicUpdates) {
  // The full Fig. 6 + Fig. 7 pipeline on one matrix, small scale.
  const auto& entry = graph::corpus_entry("ENR");
  const auto adj = graph::build_matrix(entry, 64, 7);
  const auto operand = apps::pagerank_matrix(adj);

  const auto spec = vgpu::DeviceSpec::gtx_titan().scaled_for_corpus(64);
  vgpu::Device da(spec), dc(spec), dh(spec);
  apps::DynamicPageRankConfig cfg;
  cfg.epochs = 4;
  cfg.hyb_breakeven = 64;
  const auto res = apps::dynamic_pagerank(da, dc, dh, operand, cfg);
  ASSERT_EQ(res.epochs.size(), 4u);
  // Scores are a probability-ish vector over pages.
  double sum = 0;
  for (double v : res.final_scores) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);  // L1-normalised iteration
  // The final matrix reflects three epochs of updates.
  EXPECT_NE(res.final_matrix.nnz(), 0);
  res.final_matrix.validate();
}

TEST(Integration, MatrixMarketFileRoundTripThroughEngines) {
  // Write a corpus matrix to .mtx, read it back, run two engines on it.
  const auto m = graph::build_matrix(graph::corpus_entry("INT"), 64, 3);
  const std::string path = ::testing::TempDir() + "/acsr_int.mtx";
  mat::write_matrix_market_file(m.to_coo(), path);
  const auto loaded =
      mat::Csr<double>::from_coo(mat::read_matrix_market_file(path));
  EXPECT_EQ(loaded.nnz(), m.nnz());
  EXPECT_EQ(loaded.col_idx, m.col_idx);

  const auto spec = vgpu::DeviceSpec::gtx_titan().scaled_for_corpus(64);
  vgpu::Device d1(spec), d2(spec);
  core::AcsrEngine<double> acsr(d1, loaded);
  spmv::HybEngine<double> hyb(d2, loaded, 64);
  std::vector<double> x(static_cast<std::size_t>(loaded.cols), 1.0);
  std::vector<double> ya, yh;
  acsr.simulate(x, ya);
  hyb.simulate(x, yh);
  for (std::size_t i = 0; i < ya.size(); ++i) EXPECT_NEAR(ya[i], yh[i], 1e-9);
  std::remove(path.c_str());
}

TEST(Integration, MultiGpuPageRankMatchesSingle) {
  const auto adj = graph::build_matrix(graph::corpus_entry("ENR"), 64, 9);
  const auto operand = apps::pagerank_matrix(adj);
  const auto spec = vgpu::DeviceSpec::tesla_k10().scaled_for_corpus(64);
  vgpu::Device single(spec);
  core::AcsrEngine<double> one(single, operand);
  vgpu::Device d0(spec), d1(spec);
  core::MultiGpuAcsr<double> two({&d0, &d1}, operand);
  const auto r1 = apps::pagerank(one, apps::PageRankConfig{});
  const auto r2 = apps::pagerank(two, apps::PageRankConfig{});
  EXPECT_EQ(r1.iterations, r2.iterations);
  for (std::size_t i = 0; i < r1.scores.size(); ++i)
    EXPECT_NEAR(r1.scores[i], r2.scores[i], 1e-12);
}

}  // namespace
