// Wall-clock microbenchmarks of the vgpu executor itself.
//
// Unlike the table/figure benches, which report *simulated* GPU seconds,
// this bench measures how fast the single-core functional simulator chews
// through SpMV kernels in real host time — the quantity that gates every
// reproduction run, the 200-matrix differential fuzz, and the graph-app
// benches. scripts/bench.sh folds the google-benchmark JSON output into
// BENCH_wallclock.json at the repo root so successive PRs can diff
// executor throughput. The fast-path / reference-path metering invariance
// contract is asserted by tests/test_metering_invariance.cpp; this bench
// only measures speed.
//
// Usage: bench_wallclock [--quick] [--metrics_out FILE] [gbench flags]
//   --quick         smoke mode: ~25x shorter measurement windows (CI gate)
//   --metrics_out   after the timed run, replay each engine once under the
//                   profiler and write the per-metric JSON document
//                   (schema acsr-prof/v1, see docs/OBSERVABILITY.md). The
//                   replay happens after measurement, so it cannot perturb
//                   the wall-clock numbers.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "apps/cg.hpp"
#include "apps/pagerank.hpp"
#include "apps/rwr_batch.hpp"
#include "core/factory.hpp"
#include "core/ooc_engine.hpp"
#include "core/resilient.hpp"
#include "graph/corpus.hpp"
#include "mat/dense_block.hpp"
#include "prof/capture.hpp"
#include "prof/metrics.hpp"
#include "prof/report.hpp"
#include "serve/scheduler.hpp"
#include "storage/tier.hpp"
#include "vgpu/device.hpp"
#include "vgpu/fault.hpp"
#include "vgpu/memo.hpp"

namespace {

using acsr::core::EngineConfig;
using acsr::core::make_engine;
using acsr::mat::Csr;
using acsr::vgpu::Device;
using acsr::vgpu::DeviceSpec;

long long corpus_scale() { return acsr::graph::default_scale(); }

DeviceSpec titan_spec() {
  return DeviceSpec::by_name("titan").scaled_for_corpus(corpus_scale());
}

EngineConfig engine_config() {
  EngineConfig cfg;
  cfg.hyb_breakeven = static_cast<acsr::mat::index_t>(
      std::max<long long>(1, 4096 / corpus_scale()));
  return cfg;
}

/// Corpus matrices are deterministic for a given (abbrev, scale); build
/// each once and share across benchmarks.
const Csr<double>& corpus_matrix(const std::string& abbrev) {
  static std::map<std::string, Csr<double>> cache;
  auto it = cache.find(abbrev);
  if (it == cache.end()) {
    it = cache
             .emplace(abbrev,
                      acsr::graph::build_matrix(
                          acsr::graph::corpus_entry(abbrev), corpus_scale()))
             .first;
  }
  return it->second;
}

/// One full simulated SpMV per iteration: the executor hot path end to end
/// (launch setup, warp construction, gathers, metering, roofline finalize).
void BM_SpmvExecutor(benchmark::State& state, const char* engine_name,
                     const char* matrix) {
  const Csr<double>& a = corpus_matrix(matrix);
  Device dev(titan_spec());
  auto engine = make_engine<double>(engine_name, dev, a, engine_config());
  std::vector<double> x(static_cast<std::size_t>(a.cols), 1.0);
  std::vector<double> y;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->simulate(x, y));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(a.nnz()));
  state.counters["nnz"] = static_cast<double>(a.nnz());
}

/// Batched SpMM executor throughput vs batch width: one simulate_batch of
/// `width` vectors per iteration. Items processed counts useful work
/// (nnz x width), so items/s against `spmv_executor` shows directly how
/// the executor amortizes per-launch overhead over a batch. The simulated
/// side of the story (seconds and matrix bytes per vector, the paper-level
/// win tracked in docs/PERF.md) is exported as counters from one profiled
/// run after measurement.
void BM_SpmmExecutor(benchmark::State& state, const char* engine_name,
                     const char* matrix, int width) {
  const Csr<double>& a = corpus_matrix(matrix);
  Device dev(titan_spec());
  auto engine = make_engine<double>(engine_name, dev, a, engine_config());
  acsr::mat::DenseBlock<double> x(a.cols, width);
  for (int c = 0; c < width; ++c)
    for (acsr::mat::index_t r = 0; r < a.cols; ++r)
      x.at(r, c) = 1.0 + 0.001 * c;
  acsr::mat::DenseBlock<double> y;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->simulate_batch(x, y));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(a.nnz()) * width);
  const double sim_s = engine->simulate_batch(x, y);
  state.counters["width"] = width;
  state.counters["sim_us_per_vec"] = sim_s * 1e6 / width;
  state.counters["gmem_bytes_per_vec"] =
      static_cast<double>(engine->report().last_run.counters.gmem_bytes) /
      width;
}

/// Multi-tenant serving plane: the deterministic three-tenant scenario
/// (apps/rwr_batch.hpp) pushed through the batch scheduler per iteration.
/// The makespan counter is the simulated clock the tenants were billed
/// against — max_batch_width 1 vs 32 shows the scheduler-level win.
void BM_ServeScheduler(benchmark::State& state, int max_width) {
  const Csr<double>& a = corpus_matrix("WIK");
  Device dev(titan_spec());
  auto engine = make_engine<double>("acsr", dev, a, engine_config());
  double makespan = 0.0;
  std::uint64_t requests = 0;
  acsr::prof::SloAgg slo{};
  for (auto _ : state) {
    acsr::serve::ServeOptions opt;
    opt.max_batch_width = max_width;
    // observe_slo feeds the deterministic latency/queue-wait histograms
    // without span recording — tail percentiles for free alongside the
    // wall-clock numbers (docs/SLO.md).
    opt.observe_slo = true;
    acsr::serve::BatchScheduler<double> sched(*engine, opt);
    acsr::apps::run_tenant_scenario(sched, a.cols);
    // No DoNotOptimize here: run_tenant_scenario drives the device through
    // virtual engine calls (opaque to the optimizer), and routing `makespan`
    // through DoNotOptimize's "+r" constraint corrupted the double before
    // the post-loop counter read.
    makespan = sched.clock_s();
    requests = sched.served_requests();
    slo = sched.slo().snapshot("*");
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(requests));
  state.counters["max_width"] = max_width;
  state.counters["sim_makespan_ms"] = makespan * 1e3;
  // Simulated-clock tail latency: deterministic per width, so drift in
  // BENCH_wallclock.json is a scheduling change, not noise.
  state.counters["sim_lat_p50_ms"] = slo.latency_p50_s * 1e3;
  state.counters["sim_lat_p95_ms"] = slo.latency_p95_s * 1e3;
  state.counters["sim_lat_p99_ms"] = slo.latency_p99_s * 1e3;
  state.counters["sim_wait_p95_ms"] = slo.queue_wait_p95_s * 1e3;
}

/// Out-of-core streaming executor (docs/OOC.md): one full streamed SpMV
/// per iteration with the device budget pinned to footprint/divisor, so
/// the row-slab count — and with it the storage-plane traffic the double
/// buffer must hide — scales with the divisor. Counters export the
/// simulated side: slab count, read amplification (whole-stripe reads vs
/// demand bytes), and overlap efficiency (upload time hidden behind
/// compute; > 0 is the acceptance gate tracked by tests/test_ooc.cpp).
void BM_OocExecutor(benchmark::State& state, int divisor) {
  const Csr<double>& a = corpus_matrix("WIK");
  Device dev(titan_spec());
  const std::size_t footprint =
      (static_cast<std::size_t>(a.rows) + 1) * sizeof(acsr::mat::offset_t) +
      a.nnz() * (sizeof(acsr::mat::index_t) + sizeof(double));
  acsr::core::OocOptions opt;
  opt.budget_bytes =
      std::max<std::size_t>(footprint / static_cast<std::size_t>(divisor),
                            16 * 1024);
  acsr::core::OocCsrEngine<double> engine(dev, a, opt);
  std::vector<double> x(static_cast<std::size_t>(a.cols), 1.0);
  std::vector<double> y;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.simulate(x, y));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(a.nnz()));
  const acsr::prof::IoAgg& io = engine.io_stats();
  state.counters["slabs"] = static_cast<double>(engine.num_slabs());
  using acsr::prof::find_metric;
  using acsr::prof::IoAgg;
  state.counters["read_amp"] =
      find_metric<IoAgg>("io.read_amplification")->compute(io);
  state.counters["overlap_eff"] =
      find_metric<IoAgg>("io.overlap_efficiency")->compute(io);
  state.counters["sim_makespan_ms"] = engine.last_makespan() * 1e3;
}

/// Storage-plane host cost in isolation (docs/OOC.md): one fault-free
/// ~6 MB three-segment chunk read per iteration — the shape of one
/// out-of-core slab (row_off, col_idx, vals). Each read copies and
/// verifies the delivered bytes against the checksum stored with the
/// chunk, so bytes/s here is the tier's own data-plane throughput.
void BM_StorageTierReadChunk(benchmark::State& state) {
  using acsr::storage::make_segment;
  const std::size_t rows = 100000, nnz = 450000;
  const std::vector<long long> off_src(rows + 1, 7);
  const std::vector<int> col_src(nnz, 3);
  const std::vector<double> val_src(nnz, 0.5);
  std::vector<long long> off_dst(off_src.size());
  std::vector<int> col_dst(col_src.size());
  std::vector<double> val_dst(val_src.size());
  const std::vector<acsr::storage::Segment> segs = {
      make_segment(off_src, 0, off_dst, off_src.size()),
      make_segment(col_src, 0, col_dst, col_src.size()),
      make_segment(val_src, 0, val_dst, val_src.size())};
  std::size_t bytes = 0;
  for (const auto& s : segs) bytes += s.bytes;
  const std::uint64_t checksum = acsr::storage::stored_checksum(
      val_src, 0, val_src.size(),
      acsr::storage::stored_checksum(
          col_src, 0, col_src.size(),
          acsr::storage::stored_checksum(off_src, 0, off_src.size())));
  acsr::vgpu::StreamTimeline tl;
  acsr::storage::StorageTier tier(tl, acsr::storage::TierConfig{});
  std::size_t offset = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tier.read_chunk("slab", offset, segs, checksum));
    offset += bytes;
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
  state.counters["chunk_mb"] = static_cast<double>(bytes) / 1e6;
}

/// Raw warp-gather micro: unit-stride (coalesced, the affine fast path's
/// home turf) streaming loads of a large buffer.
void BM_WarpGatherAffine(benchmark::State& state) {
  Device dev(titan_spec());
  const std::size_t n = 1 << 18;
  auto buf = dev.alloc<double>(n, "stream");
  buf.host().assign(n, 1.0);
  auto s = buf.cspan();
  const long long grid = static_cast<long long>(n) / 256;
  acsr::vgpu::LaunchConfig cfg;
  cfg.name = "gather_affine";
  cfg.block_dim = 256;
  cfg.grid_dim = grid;
  for (auto _ : state) {
    const auto run = dev.launch_warps(cfg, [&](acsr::vgpu::Warp& w) {
      const auto idx = w.global_threads();
      const auto v = w.load(s, idx, w.active_mask());
      benchmark::DoNotOptimize(v[0]);
    });
    benchmark::DoNotOptimize(run.counters.gmem_transactions);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

enum class HashedAccess { kGather, kTex, kStore };

/// Raw warp-access micro: pseudo-random per-lane indices (the per-lane
/// route; no affine structure to exploit) through a global gather, a
/// texture gather (the x gather of every SpMV kernel) or a global store.
template <HashedAccess A>
void BM_WarpHashed(benchmark::State& state) {
  Device dev(titan_spec());
  const std::size_t n = 1 << 18;
  auto buf = dev.alloc<double>(n, "scatter");
  buf.host().assign(n, 1.0);
  auto s = buf.cspan();
  auto out = buf.span();
  const long long grid = static_cast<long long>(n) / 256;
  acsr::vgpu::LaunchConfig cfg;
  cfg.name = "gather_scatter";
  cfg.block_dim = 256;
  cfg.grid_dim = grid;
  const long long mask = static_cast<long long>(n) - 1;
  for (auto _ : state) {
    const auto run = dev.launch_warps(cfg, [&](acsr::vgpu::Warp& w) {
      const auto tid = w.global_threads();
      const auto idx = tid.map([mask](long long t) {
        return (t * 2654435761LL + 12345) & mask;  // cheap hash scatter
      });
      if constexpr (A == HashedAccess::kStore) {
        w.store(out, idx, acsr::vgpu::LaneArray<double>::filled(1.0),
                w.active_mask());
      } else {
        const auto v = A == HashedAccess::kTex
                           ? w.load_tex(s, idx, w.active_mask())
                           : w.load(s, idx, w.active_mask());
        benchmark::DoNotOptimize(v[0]);
      }
    });
    benchmark::DoNotOptimize(run.counters.gmem_transactions);
    if constexpr (A == HashedAccess::kStore) {
      benchmark::DoNotOptimize(out.data());
      benchmark::ClobberMemory();
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

/// Raw warp-gather micro: the csr-vector V=4 row walk. Each 4-lane group
/// reads two strided steps of its own 8-entry row through the fused
/// col_idx + vals gather, so lane indices have gaps between groups (not
/// affine) while neighbouring lanes share sectors — the per-lane probe
/// loop with repeated sectors. With `runs`, the same layout goes through
/// the segmented-affine Warp::load_pair_runs, one run per group and step.
void BM_WarpGatherSegmented(benchmark::State& state, bool runs) {
  Device dev(titan_spec());
  const std::size_t n = 1 << 18;
  constexpr int kVec = 4, kRowLen = 8;
  auto col = dev.alloc<int>(n, "col_idx");
  auto val = dev.alloc<double>(n, "vals");
  col.host().assign(n, 1);
  val.host().assign(n, 1.0);
  auto cs = col.cspan();
  auto vs = val.cspan();
  acsr::vgpu::LaunchConfig cfg;
  cfg.name = "gather_segmented";
  cfg.block_dim = 256;  // 8 warps x 8 rows x kRowLen entries per block
  cfg.grid_dim = static_cast<long long>(n) / (8 * 8 * kRowLen);
  for (auto _ : state) {
    const auto run = dev.launch_warps(cfg, [&](acsr::vgpu::Warp& w) {
      const long long first_row = w.global_warp() * (acsr::vgpu::kWarpSize /
                                                     kVec);
      acsr::vgpu::LaneArray<long long> idx;
      for (int l = 0; l < acsr::vgpu::kWarpSize; ++l)
        idx[l] = (first_row + l / kVec) * kRowLen + l % kVec;
      acsr::vgpu::LaneRuns lr;
      lr.vec = kVec;
      for (int g = 0; g < lr.groups(); ++g) {
        lr.base[static_cast<std::size_t>(g)] = (first_row + g) * kRowLen;
        lr.len[static_cast<std::size_t>(g)] = kVec;
      }
      for (int step = 0; step < kRowLen / kVec; ++step) {
        acsr::vgpu::LaneArray<int> c;
        acsr::vgpu::LaneArray<double> v;
        if (runs) {
          w.load_pair_runs(cs, vs, lr, c, v);
          for (long long& b : lr.base) b += kVec;
        } else {
          w.load_pair(cs, vs, idx, w.active_mask(), c, v);
          for (int l = 0; l < acsr::vgpu::kWarpSize; ++l) idx[l] += kVec;
        }
        benchmark::DoNotOptimize(v[0]);
      }
    });
    benchmark::DoNotOptimize(run.counters.gmem_transactions);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

/// Warp reduction micro: 16 butterfly sums (reduce_add) per warp over
/// width-sized lane groups — the tail of every csr-vector row group (V=4)
/// and of every full-warp partial sum (32). `heads` runs reduce_heads,
/// the form the kernels use when only the group heads publish.
void BM_WarpReduce(benchmark::State& state, int width, bool heads) {
  Device dev(titan_spec());
  constexpr int kReps = 16;
  acsr::vgpu::LaunchConfig cfg;
  cfg.name = "warp_reduce";
  cfg.block_dim = 256;
  cfg.grid_dim = 1024;
  for (auto _ : state) {
    const auto run = dev.launch_warps(cfg, [&](acsr::vgpu::Warp& w) {
      auto v = acsr::vgpu::LaneArray<double>::iota(0.5);
      for (int r = 0; r < kReps; ++r)
        v = heads ? w.reduce_heads(v, w.active_mask(), width)
                  : w.reduce_add(v, w.active_mask(), width);
      benchmark::DoNotOptimize(v[0]);
    });
    benchmark::DoNotOptimize(run.counters.shuffle_ops);
  }
  state.SetItemsProcessed(state.iterations() * cfg.grid_dim *
                          (cfg.block_dim / acsr::vgpu::kWarpSize) * kReps);
}

/// Group-L2 micro: 2^18 inserts into a fresh SectorSet per iteration, half
/// of them repeats. Dense is a slab sweep (each sector twice in a row,
/// ascending); random scatters over a 2^30-sector range.
void BM_GroupL2Insert(benchmark::State& state, bool dense) {
  constexpr std::uint64_t kInserts = 1 << 18;
  std::vector<std::uint64_t> keys(kInserts);
  for (std::uint64_t i = 0; i < kInserts; ++i) {
    const std::uint64_t k = i / 2;
    keys[i] = dense ? k : ((k * 0x9e3779b97f4a7c15ULL) >> 34);
  }
  for (auto _ : state) {
    acsr::vgpu::SectorSet set;
    std::uint64_t fresh = 0;
    for (const std::uint64_t k : keys) fresh += set.insert(k) ? 1 : 0;
    benchmark::DoNotOptimize(fresh);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kInserts));
}

/// PageRank operand over the scaled wikipedia graph, built once.
const Csr<double>& pagerank_operand() {
  static const Csr<double> m =
      acsr::apps::pagerank_matrix(corpus_matrix("WIK"));
  return m;
}

/// SPD operand for CG derived from WIK: symmetrise |A| over the square
/// leading block, then set each diagonal to its off-diagonal row sum + 1.
/// Strict diagonal dominance of a symmetric matrix with a positive
/// diagonal guarantees positive definiteness.
const Csr<double>& cg_operand() {
  static const Csr<double> m = [] {
    using acsr::mat::index_t;
    using acsr::mat::offset_t;
    const Csr<double>& a = corpus_matrix("WIK");
    const index_t n = std::min(a.rows, a.cols);
    std::vector<std::map<index_t, double>> sym(static_cast<std::size_t>(n));
    for (index_t r = 0; r < n; ++r) {
      for (offset_t i = a.row_off[static_cast<std::size_t>(r)];
           i < a.row_off[static_cast<std::size_t>(r) + 1]; ++i) {
        const index_t c = a.col_idx[static_cast<std::size_t>(i)];
        const double v = std::abs(a.vals[static_cast<std::size_t>(i)]);
        if (c >= n || c == r || v == 0.0) continue;
        sym[static_cast<std::size_t>(r)][c] += v;
        sym[static_cast<std::size_t>(c)][r] += v;
      }
    }
    Csr<double> out;
    out.rows = out.cols = n;
    out.row_off.assign(static_cast<std::size_t>(n) + 1, 0);
    for (index_t r = 0; r < n; ++r) {
      auto& row = sym[static_cast<std::size_t>(r)];
      double off_sum = 0.0;
      for (const auto& [c, v] : row) off_sum += v;
      row[r] = off_sum + 1.0;
      out.row_off[static_cast<std::size_t>(r) + 1] =
          out.row_off[static_cast<std::size_t>(r)] +
          static_cast<offset_t>(row.size());
      for (const auto& [c, v] : row) {
        out.col_idx.push_back(c);
        out.vals.push_back(v);
      }
    }
    out.validate();
    return out;
  }();
  return m;
}

/// Fresh memo cache per benchmark invocation; global flag restored after.
/// Enabled before make_engine() — the factory only wraps engines in the
/// memoizing decorator while the plane is on.
struct MemoBenchGuard {
  explicit MemoBenchGuard(bool on) {
    acsr::vgpu::memo::MemoCache::instance().clear();
    acsr::vgpu::memo::set_memo_enabled(on);
  }
  ~MemoBenchGuard() {
    acsr::vgpu::memo::set_memo_enabled(false);
    acsr::vgpu::memo::MemoCache::instance().clear();
  }
};

/// The out-of-core executor under the fault plane, through the resilient
/// driver: each iteration re-arms a plan with one io_transient on the
/// op's second slab read (the tier re-reads) and one launch transient on
/// its third launch (the driver retries the whole op), then streams one
/// SpMV. The memo variant replays metering under that plan — the fault
/// still fires at the same ordinals — instead of re-metering every op.
void BM_OocFaulted(benchmark::State& state, bool memo) {
  MemoBenchGuard guard(memo);
  const Csr<double>& a = corpus_matrix("WIK");
  Device dev(titan_spec());
  const std::size_t footprint =
      (static_cast<std::size_t>(a.rows) + 1) * sizeof(acsr::mat::offset_t) +
      a.nnz() * (sizeof(acsr::mat::index_t) + sizeof(double));
  EngineConfig cfg;
  cfg.ooc.budget_bytes = std::max<std::size_t>(footprint / 4, 16 * 1024);
  acsr::core::ResilientEngine<double> engine({&dev}, a, "ooc-csr", cfg);
  std::vector<double> x(static_cast<std::size_t>(a.cols), 1.0);
  std::vector<double> y;
  engine.simulate(x, y);  // memo: capture outside the timed loop
  auto& faults = acsr::vgpu::FaultInjector::instance();
  const auto& memo_stats = acsr::vgpu::memo::MemoCache::instance().stats();
  const std::uint64_t hits0 = memo_stats.hits;
  std::size_t fired = 0;
  for (auto _ : state) {
    faults.configure("io_transient@read#2;transient@launch#3");
    benchmark::DoNotOptimize(engine.simulate(x, y));
    fired = faults.events().size();
  }
  faults.disable();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(a.nnz()));
  state.counters["faults_per_op"] = static_cast<double>(fired);
  state.counters["memo_hits_per_op"] =
      static_cast<double>(memo_stats.hits - hits0) /
      static_cast<double>(std::max<benchmark::IterationCount>(
          1, state.iterations()));
}

/// End-to-end solver benchmark: one full fixed-work PageRank run (20
/// device-loop iterations of the ACSR engine over WIK) per bench
/// iteration. The memo variant measures the ACSR_MEMO=1 capture/replay
/// path against the same workload (docs/PERF.md tracks the speedup).
void BM_AppPagerank(benchmark::State& state, bool memo) {
  MemoBenchGuard guard(memo);
  const Csr<double>& a = pagerank_operand();
  Device dev(titan_spec());
  auto engine = make_engine<double>("acsr", dev, a, engine_config());
  acsr::apps::PageRankConfig cfg;
  cfg.iter.epsilon = 0.0;  // fixed work: never converges early
  cfg.iter.max_iters = 20;
  cfg.iter.device_loop = true;
  for (auto _ : state) {
    auto res = acsr::apps::pagerank(*engine, cfg);
    benchmark::DoNotOptimize(res.scores.data());
  }
  state.counters["iters"] = cfg.iter.max_iters;
}

/// The memoized PageRank solve as a served solver runs it: a fresh device
/// and ACSR engine per solve (perfbench `solve` does the same), so the
/// timed loop pays the build, and every SpMV replays from the solve's
/// first — the engine over the same operand on a fresh device keys like
/// the one that captured (docs/PERF.md, "Memo keyed by what metering
/// depends on").
void BM_AppPagerankFresh(benchmark::State& state) {
  MemoBenchGuard guard(true);
  const Csr<double>& a = pagerank_operand();
  acsr::apps::PageRankConfig cfg;
  cfg.iter.epsilon = 0.0;  // fixed work: never converges early
  cfg.iter.max_iters = 20;
  cfg.iter.device_loop = true;
  const auto solve = [&] {
    Device dev(titan_spec());
    auto engine = make_engine<double>("acsr", dev, a, engine_config());
    auto res = acsr::apps::pagerank(*engine, cfg);
    benchmark::DoNotOptimize(res.scores.data());
  };
  solve();  // the capture, outside the timed loop
  const auto& memo_stats = acsr::vgpu::memo::MemoCache::instance().stats();
  const std::uint64_t hits0 = memo_stats.hits;
  for (auto _ : state) solve();
  state.counters["iters"] = cfg.iter.max_iters;
  state.counters["memo_hits_per_op"] =
      static_cast<double>(memo_stats.hits - hits0) /
      static_cast<double>(std::max<benchmark::IterationCount>(
          1, state.iterations()));
}

/// Same shape for CG: 20 fixed-work device-loop iterations over the SPD
/// operand derived from WIK.
void BM_AppCg(benchmark::State& state, bool memo) {
  MemoBenchGuard guard(memo);
  const Csr<double>& a = cg_operand();
  Device dev(titan_spec());
  auto engine = make_engine<double>("acsr", dev, a, engine_config());
  std::vector<double> b(static_cast<std::size_t>(a.rows), 1.0);
  acsr::apps::CgConfig cfg;
  cfg.tolerance = 0.0;  // fixed work: never converges early
  cfg.max_iters = 20;
  cfg.device_loop = true;
  for (auto _ : state) {
    auto res = acsr::apps::conjugate_gradient(*engine, b, cfg);
    benchmark::DoNotOptimize(res.x.data());
  }
  state.counters["iters"] = cfg.max_iters;
}

/// Memo replay of one SpMV (docs/PERF.md, "Replay on every core"): the
/// launch records come from the cache and y from the engine's value
/// kernels, which run in nnz-balanced chunks on the block pool — or in
/// order under `serial` (ScopedBlockParallelism(1, ...)). acsr over WIK
/// replays its bins and DP tail; ooc-csr over LIV (a quarter-footprint
/// budget, several slabs) its slab bins. Captured, then warmed for half a
/// second before timing: idle pool threads take a while to ramp up.
void BM_Replay(benchmark::State& state, const char* engine_name,
               const char* matrix, bool serial) {
  MemoBenchGuard guard(true);
  std::optional<acsr::vgpu::ScopedBlockParallelism> in_order;
  if (serial) in_order.emplace(1, 4);
  const Csr<double>& a = corpus_matrix(matrix);
  Device dev(titan_spec());
  EngineConfig cfg = engine_config();
  const std::size_t footprint =
      (static_cast<std::size_t>(a.rows) + 1) * sizeof(acsr::mat::offset_t) +
      a.nnz() * (sizeof(acsr::mat::index_t) + sizeof(double));
  cfg.ooc.budget_bytes = std::max<std::size_t>(footprint / 4, 16 * 1024);
  auto engine = make_engine<double>(engine_name, dev, a, cfg);
  std::vector<double> x(static_cast<std::size_t>(a.cols), 1.0);
  std::vector<double> y;
  engine->simulate(x, y);  // the capture
  const auto warm_until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
  while (std::chrono::steady_clock::now() < warm_until)
    engine->simulate(x, y);
  const auto& memo_stats = acsr::vgpu::memo::MemoCache::instance().stats();
  const std::uint64_t hits0 = memo_stats.hits;
  for (auto _ : state) benchmark::DoNotOptimize(engine->simulate(x, y));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(a.nnz()));
  state.counters["memo_hits_per_op"] =
      static_cast<double>(memo_stats.hits - hits0) /
      static_cast<double>(std::max<benchmark::IterationCount>(
          1, state.iterations()));
}

// The headline executor benchmark the ≥2x acceptance gate tracks:
// CSR-scalar over the scaled wikipedia graph (power-law, the paper's
// central workload). The --metrics_out replay profiles the same set.
const char* const kEngines[] = {"csr-scalar", "csr-vector", "csr",
                                "coo",        "hyb",        "acsr"};

void register_benches() {
  for (const char* e : kEngines) {
    benchmark::RegisterBenchmark(
        (std::string("spmv_executor/") + e + "/WIK").c_str(),
        [e](benchmark::State& st) { BM_SpmvExecutor(st, e, "WIK"); })
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RegisterBenchmark(
      "spmv_executor/csr-scalar/ENR",
      [](benchmark::State& st) { BM_SpmvExecutor(st, "csr-scalar", "ENR"); })
      ->Unit(benchmark::kMillisecond);
  // Throughput vs width on the paper's central workload: full sweep for
  // the ACSR engine, anchor widths for the CSR baselines.
  for (const int width : {1, 2, 4, 8, 16, 32, 64}) {
    benchmark::RegisterBenchmark(
        (std::string("spmm_executor/acsr/WIK/w") + std::to_string(width))
            .c_str(),
        [width](benchmark::State& st) {
          BM_SpmmExecutor(st, "acsr", "WIK", width);
        })
        ->Unit(benchmark::kMillisecond);
  }
  for (const char* e : {"csr-scalar", "csr-vector"}) {
    for (const int width : {1, 8, 32}) {
      benchmark::RegisterBenchmark(
          (std::string("spmm_executor/") + e + "/WIK/w" +
           std::to_string(width))
              .c_str(),
          [e, width](benchmark::State& st) {
            BM_SpmmExecutor(st, e, "WIK", width);
          })
          ->Unit(benchmark::kMillisecond);
    }
  }
  for (const int mw : {1, 32}) {
    benchmark::RegisterBenchmark(
        (std::string("serve_scheduler/acsr/WIK/w") + std::to_string(mw))
            .c_str(),
        [mw](benchmark::State& st) { BM_ServeScheduler(st, mw); })
        ->Unit(benchmark::kMillisecond);
  }
  // Out-of-core sweep: budget from half the WIK footprint (2 slabs) down
  // to 1/16 (deep streaming) — items/s shows what the storage plane costs
  // the executor, the counters show what the simulated overlap buys back.
  for (const int divisor : {2, 4, 16}) {
    benchmark::RegisterBenchmark(
        (std::string("ooc_executor/ooc-csr/WIK/b") + std::to_string(divisor))
            .c_str(),
        [divisor](benchmark::State& st) { BM_OocExecutor(st, divisor); })
        ->Unit(benchmark::kMillisecond);
  }
  for (const bool memo : {false, true}) {
    benchmark::RegisterBenchmark(
        memo ? "ooc_faulted/ooc-csr/WIK/b4/memo" : "ooc_faulted/ooc-csr/WIK/b4",
        [memo](benchmark::State& st) { BM_OocFaulted(st, memo); })
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RegisterBenchmark("storage_tier/read_chunk",
                               BM_StorageTierReadChunk)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("warp_gather/affine", BM_WarpGatherAffine)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("warp_gather/scatter",
                               BM_WarpHashed<HashedAccess::kGather>)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("warp_gather/tex",
                               BM_WarpHashed<HashedAccess::kTex>)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("warp_store/scatter",
                               BM_WarpHashed<HashedAccess::kStore>)
      ->Unit(benchmark::kMillisecond);
  for (const bool runs : {false, true}) {
    benchmark::RegisterBenchmark(
        runs ? "warp_gather/segmented_runs" : "warp_gather/segmented",
        [runs](benchmark::State& st) { BM_WarpGatherSegmented(st, runs); })
        ->Unit(benchmark::kMillisecond);
  }
  for (const bool heads : {false, true}) {
    for (const int width : {4, 32}) {
      benchmark::RegisterBenchmark(
          (std::string(heads ? "warp_reduce/heads/w" : "warp_reduce/w") +
           std::to_string(width))
              .c_str(),
          [width, heads](benchmark::State& st) {
            BM_WarpReduce(st, width, heads);
          })
          ->Unit(benchmark::kMillisecond);
    }
  }
  for (const bool dense : {true, false}) {
    benchmark::RegisterBenchmark(
        (std::string("group_l2/insert/") + (dense ? "dense" : "random"))
            .c_str(),
        [dense](benchmark::State& st) { BM_GroupL2Insert(st, dense); })
        ->Unit(benchmark::kMillisecond);
  }
  for (const bool memo : {false, true}) {
    const char* suffix = memo ? "/memo" : "";
    benchmark::RegisterBenchmark(
        (std::string("app_solver/pagerank/WIK") + suffix).c_str(),
        [memo](benchmark::State& st) { BM_AppPagerank(st, memo); })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        (std::string("app_solver/cg/WIK") + suffix).c_str(),
        [memo](benchmark::State& st) { BM_AppCg(st, memo); })
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RegisterBenchmark("app_solver/pagerank/WIK/memo/fresh",
                               BM_AppPagerankFresh)
      ->Unit(benchmark::kMillisecond);
  for (const auto& [engine, matrix] :
       {std::pair{"acsr", "WIK"}, std::pair{"ooc-csr", "LIV"}}) {
    for (const bool serial : {false, true}) {
      benchmark::RegisterBenchmark(
          (std::string("replay/") + engine + "/" + matrix +
           (serial ? "/serial" : ""))
              .c_str(),
          [engine, matrix, serial](benchmark::State& st) {
            BM_Replay(st, engine, matrix, serial);
          })
          ->Unit(benchmark::kMillisecond);
    }
  }
}

/// Post-measurement profiled replay: one SpMV per benched engine/matrix
/// pair under the profiler, folded into one metrics document keyed
/// "<engine>/<matrix>".
int write_metrics(const std::string& path) {
  acsr::prof::set_profiler_enabled(true);
  acsr::prof::Profiler& prof = acsr::prof::Profiler::instance();
  prof.clear();
  auto one = [&](const char* engine, const char* matrix) {
    acsr::prof::ScopedContext ctx(std::string(engine) + "/" + matrix);
    Device dev(titan_spec());
    auto e = make_engine<double>(engine, dev, corpus_matrix(matrix),
                                 engine_config());
    std::vector<double> x(static_cast<std::size_t>(e->cols()), 1.0);
    std::vector<double> y;
    e->simulate(x, y);
  };
  for (const char* e : kEngines) one(e, "WIK");
  one("csr-scalar", "ENR");
  const acsr::json::Value doc =
      acsr::prof::metrics_doc(prof.launches(), prof.retry_backoff_s());
  acsr::prof::set_profiler_enabled(false);
  std::ofstream out(path);
  if (!out) {
    std::cerr << "bench_wallclock: cannot write " << path << "\n";
    return 1;
  }
  out << acsr::json::dump(doc, 1) << "\n";
  std::cout << "bench_wallclock: wrote per-metric JSON to " << path << "\n";
  return out.good() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Translate our --quick flag into short measurement windows before
  // google-benchmark parses the command line.
  std::vector<char*> args;
  static char min_time[] = "--benchmark_min_time=0.02";
  bool quick = false;
  std::string metrics_out;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
      continue;
    }
    if (std::strcmp(argv[i], "--metrics_out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
      continue;
    }
    if (std::strncmp(argv[i], "--metrics_out=", 14) == 0) {
      metrics_out = argv[i] + 14;
      continue;
    }
    args.push_back(argv[i]);
  }
  if (quick) args.insert(args.begin() + 1, min_time);
  int n = static_cast<int>(args.size());
  register_benches();
  // The block pool's width (docs/PERF.md): the wall series depend on it.
  const unsigned cores = std::thread::hardware_concurrency();
  benchmark::AddCustomContext("host_cores", std::to_string(cores));
  benchmark::AddCustomContext(
      "pool_width",
      std::to_string(std::clamp(
          cores, 1u,
          static_cast<unsigned>(
              acsr::vgpu::ScopedBlockParallelism::kMaxBlockWorkers))));
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!metrics_out.empty()) return write_metrics(metrics_out);
  return 0;
}
