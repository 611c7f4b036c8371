// Cross-engine correctness: every engine, on every test matrix, in both
// precisions, must produce — from its *simulated device kernels* — exactly
// the same y as the plain host CSR reference (up to floating-point
// reassociation tolerance), and its host `apply` — the kernels'
// exact-order value kernel — must match its simulated y bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/factory.hpp"
#include "graph/powerlaw.hpp"
#include "graph/rmat.hpp"

namespace {

using acsr::core::EngineConfig;
using acsr::core::make_engine;
using acsr::mat::Csr;
using acsr::vgpu::Device;
using acsr::vgpu::DeviceSpec;

Csr<double> make_matrix(const std::string& kind) {
  if (kind == "powerlaw") {
    acsr::graph::PowerLawSpec s;
    s.rows = 600;
    s.cols = 600;
    s.mean_nnz_per_row = 9.0;
    s.alpha = 1.6;
    s.max_row_nnz = 300;
    s.seed = 11;
    return acsr::graph::powerlaw_matrix(s);
  }
  if (kind == "uniform") {
    acsr::graph::PowerLawSpec s;
    s.rows = 400;
    s.cols = 500;  // rectangular
    s.mean_nnz_per_row = 6.0;
    s.alpha = -1.0;
    s.max_row_nnz = 12;
    s.seed = 5;
    return acsr::graph::powerlaw_matrix(s);
  }
  if (kind == "rmat") {
    acsr::graph::RmatParams p;
    p.scale = 9;
    p.edges_per_vertex = 6.0;
    p.seed = 3;
    return Csr<double>::from_coo(acsr::graph::rmat(p));
  }
  if (kind == "empty-rows") {
    // Many empty rows + one long row: exercises bin 0 skipping and DP.
    Csr<double> m;
    m.rows = 100;
    m.cols = 100;
    m.row_off.assign(101, 0);
    for (int c = 0; c < 100; ++c) {
      m.col_idx.push_back(c);
      m.vals.push_back(1.0 + c);
    }
    for (int r = 51; r <= 100; ++r) m.row_off[static_cast<size_t>(r)] = 100;
    m.validate();
    return m;
  }
  if (kind == "zero") {
    // 0x0: every engine must build, launch nothing, and produce an empty y.
    Csr<double> m;
    m.row_off.assign(1, 0);
    m.validate();
    return m;
  }
  if (kind == "all-empty") {
    // Rows but no non-zeros: y must come back as exact zeros.
    Csr<double> m;
    m.rows = 64;
    m.cols = 48;
    m.row_off.assign(65, 0);
    m.validate();
    return m;
  }
  if (kind == "dense-row") {
    // One row past the DP bin threshold (nnz > 2^8 with bin_max = 8) in an
    // otherwise sparse matrix: exercises the row-specific child grid, and
    // the widest-bin fallback in binning-only mode.
    Csr<double> m;
    m.rows = 400;
    m.cols = 400;
    m.row_off.assign(1, 0);
    for (int r = 0; r < 400; ++r) {
      if (r == 37) {
        for (int c = 0; c < 300; ++c) {
          m.col_idx.push_back(c);
          m.vals.push_back(0.5 + 0.001 * c);
        }
      } else if (r % 3 == 0) {
        m.col_idx.push_back((r * 7) % 400);
        m.vals.push_back(1.0 + r);
      }
      m.row_off.push_back(static_cast<acsr::mat::offset_t>(m.col_idx.size()));
    }
    m.validate();
    return m;
  }
  if (kind == "long-row") {
    // One row long enough (6000 entries, 8 x 256 per block at the default
    // thread load) that its row-specific child grid spans three blocks,
    // so the order of the children's accumulation into y is exercised.
    Csr<double> m;
    m.rows = 6000;
    m.cols = 6000;
    m.row_off.assign(1, 0);
    for (int r = 0; r < m.rows; ++r) {
      if (r == 7) {
        for (int c = 0; c < m.cols; ++c) {
          m.col_idx.push_back(c);
          m.vals.push_back(0.5 + 0.001 * (c % 97));
        }
      } else if (r % 5 == 0) {
        m.col_idx.push_back((r * 11) % m.cols);
        m.vals.push_back(1.0 + r % 13);
      }
      m.row_off.push_back(static_cast<acsr::mat::offset_t>(m.col_idx.size()));
    }
    m.validate();
    return m;
  }
  ADD_FAILURE() << "unknown kind " << kind;
  return {};
}

template <class T>
Csr<T> to_t(const Csr<double>& a) {
  Csr<T> m;
  m.rows = a.rows;
  m.cols = a.cols;
  m.row_off = a.row_off;
  m.col_idx = a.col_idx;
  m.vals.reserve(a.vals.size());
  for (double v : a.vals) m.vals.push_back(static_cast<T>(v));
  return m;
}

template <class T>
void check_engine(const std::string& engine_name, const std::string& kind) {
  SCOPED_TRACE(engine_name + " on " + kind +
               (sizeof(T) == 8 ? " (double)" : " (float)"));
  const Csr<T> a = to_t<T>(make_matrix(kind));

  Device dev(DeviceSpec::gtx_titan());
  EngineConfig cfg;
  cfg.hyb_breakeven = 64;  // scaled-down corpus: scale the CUSP constant
  std::unique_ptr<acsr::spmv::SpmvEngine<T>> engine;
  try {
    engine = make_engine<T>(engine_name, dev, a, cfg);
  } catch (const acsr::InputError& e) {
    // Pure ELL legitimately refuses matrices whose max row length would
    // explode the padded slab — the exact pathology HYB exists to fix.
    ASSERT_EQ(engine_name, "ell") << e.what();
    GTEST_SKIP() << "format rejects matrix: " << e.what();
  }

  std::vector<T> x(static_cast<size_t>(a.cols));
  for (size_t i = 0; i < x.size(); ++i)
    x[i] = static_cast<T>(0.25 + (i % 17) * 0.125);

  std::vector<T> y_ref;
  a.spmv(x, y_ref);

  std::vector<T> y_apply;
  engine->apply(x, y_apply);
  ASSERT_EQ(y_apply.size(), y_ref.size());

  std::vector<T> y_sim;
  const double t = engine->simulate(x, y_sim);
  if (a.nnz() > 0)
    EXPECT_GT(t, 0.0);
  else
    EXPECT_GE(t, 0.0);  // engines may launch nothing on empty matrices
  ASSERT_EQ(y_sim.size(), y_ref.size());
  EXPECT_EQ(y_apply, y_sim) << "apply is not the kernels' value";

  const double tol = sizeof(T) == 8 ? 1e-9 : 1e-3;
  for (size_t r = 0; r < y_ref.size(); ++r) {
    const double scale =
        std::max(1.0, std::abs(static_cast<double>(y_ref[r])));
    EXPECT_NEAR(static_cast<double>(y_apply[r]),
                static_cast<double>(y_ref[r]), tol * scale)
        << "apply mismatch at row " << r;
    EXPECT_NEAR(static_cast<double>(y_sim[r]),
                static_cast<double>(y_ref[r]), tol * scale)
        << "simulate mismatch at row " << r;
  }
}

class EngineCorrectness
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

TEST_P(EngineCorrectness, DoubleMatchesReference) {
  check_engine<double>(std::get<0>(GetParam()), std::get<1>(GetParam()));
}

TEST_P(EngineCorrectness, FloatMatchesReference) {
  check_engine<float>(std::get<0>(GetParam()), std::get<1>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    AllEnginesAllMatrices, EngineCorrectness,
    ::testing::Combine(
        ::testing::Values("csr-scalar", "csr-vector", "ell", "coo", "hyb",
                          "brc", "bccoo", "tcoo", "sic", "bcsr", "sell", "merge-csr",
                          "acsr", "acsr-binning"),
        ::testing::Values("powerlaw", "uniform", "rmat", "empty-rows",
                          "zero", "all-empty", "dense-row",
                          "long-row")),
    [](const auto& tpi) {
      std::string n = std::get<0>(tpi.param) + "_" + std::get<1>(tpi.param);
      for (auto& c : n)
        if (c == '-') c = '_';
      return n;
    });

TEST(BcsrBlockSizes, EveryTileEdgeMatchesReference) {
  // A warp step holds 32 / bs whole tiles; for a tile edge that does not
  // divide 32 the leftover lanes must stay off, or they would add the next
  // step's first tile twice.
  const Csr<double> a = make_matrix("powerlaw");
  std::vector<double> x(static_cast<size_t>(a.cols));
  for (size_t i = 0; i < x.size(); ++i) x[i] = 0.25 + (i % 17) * 0.125;
  std::vector<double> y_ref;
  a.spmv(x, y_ref);
  for (int bs = 1; bs <= 8; ++bs) {
    SCOPED_TRACE("bs = " + std::to_string(bs));
    Device dev(DeviceSpec::gtx_titan());
    acsr::spmv::BcsrEngine<double> engine(dev, a, bs);
    std::vector<double> y_sim, y_apply;
    engine.simulate(x, y_sim);
    engine.apply(x, y_apply);
    EXPECT_EQ(y_apply, y_sim);
    for (size_t r = 0; r < y_ref.size(); ++r)
      EXPECT_NEAR(y_sim[r], y_ref[r], 1e-9 * std::max(1.0, std::abs(y_ref[r])))
          << "row " << r;
  }
}

}  // namespace
