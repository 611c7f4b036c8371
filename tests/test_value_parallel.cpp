// Row-parallel value kernels (docs/PERF.md, "Replay on every core"): the
// exact-order host value kernels — an engine's `apply` and every replayed
// launch's y — run in nnz-balanced chunks on the block pool. Each y element
// is written by one chunk in the in-order kernel's order, so the result at
// any pool width is the width-1 result bit for bit. These tests force the
// pool on (ScopedBlockParallelism with a one-unit floor) and check that:
//
//   - every registry engine, scalar and batched, applied and replayed,
//     matches width 1 at widths 2-4 over the differential fuzz's shapes and
//     a power-law matrix with a dynamic-parallelism tail;
//   - a failing chunk reports what the in-order kernel reports;
//   - two host threads applying at once both get the in-order y (the one
//     that finds the pool held runs in order).
//
// scripts/check.sh also runs this suite under -fsanitize=thread.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/engine_registry.hpp"
#include "core/factory.hpp"
#include "graph/powerlaw.hpp"
#include "mat/dense_block.hpp"
#include "spmv/csr_vector.hpp"
#include "vgpu/device.hpp"

#include "fuzz_shapes.hpp"
#include "memo_guard.hpp"

namespace {

using acsr::Rng;
using acsr::core::EngineConfig;
using acsr::core::make_engine;
using acsr::mat::Csr;
using acsr::mat::DenseBlock;
using acsr::mat::index_t;
using acsr::vgpu::Device;
using acsr::vgpu::DeviceSpec;
using acsr::vgpu::ScopedBlockParallelism;

constexpr std::size_t kFuzzShapes = 36;
constexpr int kBatchWidth = 11;  // two column tiles, the second partial

/// A power-law matrix whose longest rows go to ACSR's dynamic-parallelism
/// tail (more than 256 nnz).
Csr<double> powerlaw_with_tail() {
  acsr::graph::PowerLawSpec s;
  s.rows = 2400;
  s.cols = 1800;
  s.mean_nnz_per_row = 9.0;
  s.max_row_nnz = 900;
  s.tail_rows = 12;
  s.seed = 26;
  return acsr::graph::powerlaw_matrix(s);
}

std::vector<double> fill_x(index_t n, Rng rng) {
  std::vector<double> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.next_double(0.5, 1.5);
  return x;
}

/// What one engine computes: apply, a replayed simulate and a replayed
/// simulate_batch (the memo plane is on, so each second call replays
/// through the value kernels).
struct Values {
  std::vector<double> apply, replay;
  std::vector<double> batch;
};

/// False when the format refuses the shape (ELL on pathological padding).
bool run_engine(const std::string& name, const Csr<double>& a,
                const std::vector<double>& x, const DenseBlock<double>& xb,
                Values& out) {
  Device dev(DeviceSpec::gtx_titan());
  EngineConfig cfg;
  cfg.hyb_breakeven = 64;           // scaled-down matrices, as the fuzz
  cfg.ooc.budget_bytes = 8 * 1024;  // several slabs on the larger shapes
  std::unique_ptr<acsr::spmv::SpmvEngine<double>> e;
  try {
    e = make_engine<double>(name, dev, a, cfg);
  } catch (const acsr::InputError&) {
    EXPECT_EQ(name, "ell");
    return false;
  }
  e->apply(x, out.apply);
  e->simulate(x, out.replay);
  e->simulate(x, out.replay);
  DenseBlock<double> yb;
  e->simulate_batch(xb, yb);
  e->simulate_batch(xb, yb);
  out.batch = yb.data;
  return true;
}

TEST(ValueParallel, EveryEngineMatchesWidthOne) {
  const acsr::test::MemoGuard planes(/*memo_on=*/true);
  const Rng root(2014);
  std::vector<std::pair<std::string, Csr<double>>> shapes;
  for (std::size_t i = 0; i < kFuzzShapes; ++i) {
    std::string family;
    Csr<double> a = acsr::test::make_fuzz_matrix(i, root.split(i + 1), &family);
    shapes.emplace_back(family + " (#" + std::to_string(i) + ")", std::move(a));
  }
  shapes.emplace_back("powerlaw with DP tail", powerlaw_with_tail());

  const std::uint64_t pooled_before = acsr::vgpu::pooled_value_kernels();
  for (std::size_t m = 0; m < shapes.size(); ++m) {
    const auto& [label, a] = shapes[m];
    SCOPED_TRACE("matrix " + label);
    const std::vector<double> x = fill_x(a.cols, root.split(0x7000 + m));
    DenseBlock<double> xb(a.cols, kBatchWidth);
    Rng brng = root.split(0x9000 + m);
    for (auto& v : xb.data) v = brng.next_double(0.5, 1.5);

    for (const std::string& name : acsr::core::factory_engine_names()) {
      SCOPED_TRACE("engine " + name);
      Values in_order;
      bool ran = false;
      {
        const ScopedBlockParallelism pool(1, 1, 1);
        ran = run_engine(name, a, x, xb, in_order);
      }
      if (!ran) continue;
      for (int width = 2; width <= 4; ++width) {
        SCOPED_TRACE("width " + std::to_string(width));
        const ScopedBlockParallelism pool(width, 1, 1);
        Values par;
        ASSERT_TRUE(run_engine(name, a, x, xb, par));
        EXPECT_EQ(par.apply, in_order.apply);
        EXPECT_EQ(par.replay, in_order.replay);
        EXPECT_EQ(par.batch, in_order.batch);
        EXPECT_EQ(par.apply, par.replay);
      }
    }
  }
  EXPECT_GT(acsr::vgpu::pooled_value_kernels(), pooled_before)
      << "no value kernel ran on the pool";
}

/// The message csr_vector_rows throws over a row map that names rows past
/// y's end at two slots; empty when it does not throw.
std::string csr_rows_failure(int workers) {
  const ScopedBlockParallelism pool(workers, 1, 1);
  const Csr<double> a = powerlaw_with_tail();
  std::vector<index_t> row_map;
  for (index_t r = 0; r < a.rows; ++r)
    if (a.row_nnz(r) > 0) row_map.push_back(r);
  row_map[row_map.size() / 3] = a.rows + 5;
  row_map[2 * row_map.size() / 3] = a.rows + 9;
  const std::vector<double> x(static_cast<std::size_t>(a.cols), 1.0);
  std::vector<double> y(static_cast<std::size_t>(a.rows), 0.0);
  const auto nrows = static_cast<std::size_t>(a.rows);
  try {
    acsr::spmv::csr_vector_rows<double>(
        4, acsr::vgpu::host_span(a.row_off, 0, nrows),
        acsr::vgpu::host_span(a.row_off, 1, nrows),
        acsr::vgpu::host_span(a.col_idx), acsr::vgpu::host_span(a.vals),
        acsr::vgpu::host_span(row_map),
        static_cast<long long>(row_map.size()),
        acsr::spmv::x_reader(acsr::vgpu::host_span(x)),
        acsr::vgpu::host_span(y));
  } catch (const acsr::InvariantError& e) {
    return e.what();
  }
  return {};
}

TEST(ValueParallel, FailingChunkThrowsTheInOrderError) {
  const acsr::test::MemoGuard planes(/*memo_on=*/false);
  const std::string in_order = csr_rows_failure(1);
  ASSERT_FALSE(in_order.empty());
  EXPECT_NE(in_order.find("out of bounds"), std::string::npos) << in_order;
  const std::uint64_t pooled = acsr::vgpu::pooled_value_kernels();
  EXPECT_EQ(csr_rows_failure(4), in_order);
  EXPECT_GT(acsr::vgpu::pooled_value_kernels(), pooled);
}

TEST(ValueParallel, ConcurrentAppliesMatchInOrder) {
  const acsr::test::MemoGuard planes(/*memo_on=*/false);
  const Csr<double> a = powerlaw_with_tail();
  const std::vector<double> x = fill_x(a.cols, Rng(7));
  std::vector<double> want;
  {
    const ScopedBlockParallelism pool(1, 1, 1);
    Device dev(DeviceSpec::gtx_titan());
    make_engine<double>("acsr", dev, a)->apply(x, want);
  }

  // Two engines built here; the threads only apply them.
  Device dev1(DeviceSpec::gtx_titan());
  Device dev2(DeviceSpec::gtx_titan());
  const auto e1 = make_engine<double>("acsr", dev1, a);
  const auto e2 = make_engine<double>("acsr", dev2, a);
  const ScopedBlockParallelism pool(4, 1, 1);
  constexpr int kRounds = 25;
  const auto worker = [&](const acsr::spmv::SpmvEngine<double>& e,
                          std::vector<std::vector<double>>& ys) {
    for (auto& y : ys) e.apply(x, y);
  };
  std::vector<std::vector<double>> ys1(kRounds), ys2(kRounds);
  std::thread t1(worker, std::cref(*e1), std::ref(ys1));
  std::thread t2(worker, std::cref(*e2), std::ref(ys2));
  t1.join();
  t2.join();
  for (int i = 0; i < kRounds; ++i) {
    EXPECT_EQ(ys1[static_cast<std::size_t>(i)], want) << "thread 1 round " << i;
    EXPECT_EQ(ys2[static_cast<std::size_t>(i)], want) << "thread 2 round " << i;
  }
}

}  // namespace
