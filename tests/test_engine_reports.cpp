// Engine-report invariants, parameterized over every engine: transfer and
// footprint accounting, memoized timing, determinism of the simulator, and
// input validation.
#include <gtest/gtest.h>

#include "core/factory.hpp"
#include "graph/powerlaw.hpp"

#include "memo_guard.hpp"

namespace {

using namespace acsr;

mat::Csr<float> test_matrix() {
  graph::PowerLawSpec s;
  s.rows = 700;
  s.cols = 700;
  s.mean_nnz_per_row = 8.0;
  s.alpha = 1.6;
  s.max_row_nnz = 120;  // modest tail so even pure ELL accepts it
  s.seed = 33;
  const mat::Csr<double> d = graph::powerlaw_matrix(s);
  mat::Csr<float> f;
  f.rows = d.rows;
  f.cols = d.cols;
  f.row_off = d.row_off;
  f.col_idx = d.col_idx;
  f.vals.assign(d.vals.begin(), d.vals.end());
  return f;
}

class EngineReportTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EngineReportTest, AccountingInvariants) {
  vgpu::Device dev(vgpu::DeviceSpec::gtx_titan());
  const auto m = test_matrix();
  core::EngineConfig cfg;
  cfg.hyb_breakeven = 64;
  auto e = core::make_engine<float>(GetParam(), dev, m, cfg);

  const auto& r = e->report();
  EXPECT_EQ(e->name(), r.format);
  EXPECT_EQ(e->rows(), m.rows);
  EXPECT_EQ(e->cols(), m.cols);
  EXPECT_EQ(e->nnz(), m.nnz());

  // The matrix data must have crossed PCIe and must live on the device.
  EXPECT_GT(r.h2d_bytes, static_cast<std::size_t>(m.nnz()));
  EXPECT_GT(r.h2d_s, 0.0);
  EXPECT_GE(r.device_bytes, m.vals.size() * sizeof(float));
  EXPECT_LE(dev.arena().allocated(), dev.arena().capacity());

  EXPECT_GE(r.preprocess_s, 0.0);
  EXPECT_GE(r.padding_ratio, 0.0);
  EXPECT_LT(r.padding_ratio, 1.0);
}

TEST_P(EngineReportTest, TimingMemoizedAndDeterministic) {
  vgpu::Device dev(vgpu::DeviceSpec::gtx_titan());
  core::EngineConfig cfg;
  cfg.hyb_breakeven = 64;
  auto e = core::make_engine<float>(GetParam(), dev, test_matrix(), cfg);
  const double t1 = e->spmv_seconds();
  const double t2 = e->spmv_seconds();
  EXPECT_EQ(t1, t2);
  EXPECT_GT(t1, 0.0);
  EXPECT_GT(e->gflops(), 0.0);

  // A fresh simulate with the same input must give the identical duration
  // (the simulator is deterministic — no wall-clock noise).
  std::vector<float> x(700, 1.0f), y;
  const double a = e->simulate(x, y);
  const double b = e->simulate(x, y);
  EXPECT_EQ(a, b);
  // Kernel-run record populated.
  EXPECT_GT(e->report().last_run.counters.warps, 0u);
  EXPECT_GT(e->report().last_run.counters.gmem_bytes, 0u);
}

TEST_P(EngineReportTest, RejectsWrongXSize) {
  vgpu::Device dev(vgpu::DeviceSpec::gtx_titan());
  core::EngineConfig cfg;
  cfg.hyb_breakeven = 64;
  auto e = core::make_engine<float>(GetParam(), dev, test_matrix(), cfg);
  std::vector<float> x(13, 1.0f), y;
  EXPECT_THROW(e->simulate(x, y), InvariantError);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, EngineReportTest,
    ::testing::Values("csr-scalar", "csr", "csr-vector", "ell", "coo",
                      "hyb", "brc", "bccoo", "tcoo", "sic", "bcsr", "sell",
                      "merge-csr", "acsr", "acsr-binning"),
    [](const auto& tpi) {
      std::string n = tpi.param;
      for (auto& c : n)
        if (c == '-') c = '_';
      return n;
    });

TEST(EngineFactory, RejectsUnknownName) {
  vgpu::Device dev(vgpu::DeviceSpec::gtx_titan());
  EXPECT_THROW(
      core::make_engine<float>("fancy-new-format", dev, test_matrix()),
      InputError);
}

TEST(EngineFactory, CsrAliasIsWarpPerRow) {
  // Memo off: with it on, make_engine wraps the engine in MemoEngine.
  const test::MemoGuard memo_off(/*memo_on=*/false);
  vgpu::Device dev(vgpu::DeviceSpec::gtx_titan());
  auto e = core::make_engine<float>("csr", dev, test_matrix());
  // cuSPARSE-style: full warp per row regardless of mu.
  auto* v = dynamic_cast<spmv::CsrVectorEngine<float>*>(e.get());
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->vector_size(), 32);
}

TEST(EngineFactory, AdaptiveVectorSizeTracksMu) {
  // CUSP heuristic: v = nearest power of two to mu, in [2, 32].
  EXPECT_EQ(spmv::choose_vector_size(1.0), 2);
  EXPECT_EQ(spmv::choose_vector_size(4.0), 4);
  EXPECT_EQ(spmv::choose_vector_size(9.0), 8);
  EXPECT_EQ(spmv::choose_vector_size(1000.0), 32);
}

}  // namespace
