// The differential fuzz's matrix families, shared by the suites that run
// every engine over them (test_differential_fuzz, test_value_parallel):
// fixed degenerate corners first, then seeded R-MAT, power-law (with DP
// tail rows), banded, empty-row-heavy, singleton-row and dense-row shapes.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "graph/powerlaw.hpp"
#include "graph/rmat.hpp"
#include "mat/csr.hpp"

namespace acsr::test {

using mat::Csr;
using mat::index_t;
using mat::offset_t;

/// Append one row with `n` distinct sorted random columns.
inline void push_row(Csr<double>& m, int n, Rng& rng) {
  n = std::min<int>(n, m.cols);  // can't draw more distinct columns than exist
  std::vector<index_t> cols;
  cols.reserve(static_cast<std::size_t>(n));
  while (static_cast<int>(cols.size()) < n) {
    const auto c = static_cast<index_t>(rng.next_below(
        static_cast<std::uint64_t>(m.cols)));
    cols.push_back(c);
    std::sort(cols.begin(), cols.end());
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  }
  for (index_t c : cols) {
    m.col_idx.push_back(c);
    m.vals.push_back(rng.next_double(0.5, 1.5));
  }
  m.row_off.push_back(static_cast<offset_t>(m.col_idx.size()));
}

inline Csr<double> empty_matrix(index_t rows, index_t cols) {
  Csr<double> m;
  m.rows = rows;
  m.cols = cols;
  m.row_off.assign(static_cast<std::size_t>(rows) + 1, 0);
  return m;
}

/// Positive values everywhere (matrix and x) keep the sums cancellation-
/// free, so the reassociation error of any summation order is bounded by
/// ~nnz_row * eps relative — which is the tolerance the diff uses.
inline Csr<double> make_fuzz_matrix(std::size_t index, Rng rng,
                             std::string* family_out) {
  // A few fixed degenerate shapes first: the corners random draws would
  // rarely hit.
  switch (index) {
    case 0:
      *family_out = "zero (0x0)";
      return empty_matrix(0, 0);
    case 1:
      *family_out = "no-rows (0x7)";
      return empty_matrix(0, 7);
    case 2:
      *family_out = "all-empty (9x5)";
      return empty_matrix(9, 5);
    case 3: {
      *family_out = "single-cell (1x1)";
      Csr<double> m = empty_matrix(1, 1);
      m.col_idx.push_back(0);
      m.vals.push_back(1.25);
      m.row_off.back() = 1;
      return m;
    }
    case 4: {
      *family_out = "single-wide-row (1x400)";
      Csr<double> m = empty_matrix(0, 400);
      m.rows = 1;
      push_row(m, 320, rng);  // one row past the DP threshold (nnz > 256)
      return m;
    }
    case 5: {
      *family_out = "column (300x1)";
      Csr<double> m = empty_matrix(0, 1);
      m.rows = 300;
      for (int r = 0; r < 300; ++r) push_row(m, rng.next_bool(0.7) ? 1 : 0, rng);
      return m;
    }
    default:
      break;
  }

  switch (index % 6) {
    case 0: {
      acsr::graph::RmatParams p;
      p.scale = 4 + static_cast<int>(rng.next_below(4));  // 16..128 vertices
      p.edges_per_vertex = rng.next_double(1.0, 8.0);
      p.seed = rng.next_u64();
      *family_out = "rmat scale " + std::to_string(p.scale);
      Csr<double> m = Csr<double>::from_coo(acsr::graph::rmat(p));
      // R-MAT emits unit weights; re-draw into (0.5, 1.5).
      for (auto& v : m.vals) v = rng.next_double(0.5, 1.5);
      return m;
    }
    case 1: {
      acsr::graph::PowerLawSpec s;
      s.rows = 1 + static_cast<index_t>(rng.next_below(220));
      s.cols = 1 + static_cast<index_t>(rng.next_below(220));
      s.mean_nnz_per_row = rng.next_double(0.5, 10.0);
      s.alpha = rng.next_bool(0.7) ? rng.next_double(0.8, 2.5) : -1.0;
      s.max_row_nnz = std::max<offset_t>(1, s.cols / 2);
      s.tail_rows = static_cast<int>(rng.next_below(4));
      s.seed = rng.next_u64();
      *family_out = "powerlaw " + std::to_string(s.rows) + "x" +
                    std::to_string(s.cols);
      Csr<double> m = acsr::graph::powerlaw_matrix(s);
      for (auto& v : m.vals) v = rng.next_double(0.5, 1.5);
      return m;
    }
    case 2: {  // banded: the regular contrast to the power-law families
      const auto n = static_cast<index_t>(1 + rng.next_below(180));
      const int band = 1 + static_cast<int>(rng.next_below(8));
      *family_out = "banded " + std::to_string(n) + " band " +
                    std::to_string(band);
      Csr<double> m = empty_matrix(0, n);
      m.rows = n;
      m.row_off.assign(1, 0);
      for (index_t r = 0; r < n; ++r) {
        const index_t lo = std::max<index_t>(0, r - band);
        const index_t hi = std::min<index_t>(n - 1, r + band);
        for (index_t c = lo; c <= hi; ++c) {
          if (!rng.next_bool(0.8)) continue;
          m.col_idx.push_back(c);
          m.vals.push_back(rng.next_double(0.5, 1.5));
        }
        m.row_off.push_back(static_cast<offset_t>(m.col_idx.size()));
      }
      return m;
    }
    case 3: {  // empty-row-heavy: bin-0 skipping under fire
      const auto n = static_cast<index_t>(2 + rng.next_below(250));
      *family_out = "empty-heavy " + std::to_string(n);
      Csr<double> m = empty_matrix(0, n);
      m.rows = n;
      for (index_t r = 0; r < n; ++r) {
        const bool occupied = rng.next_bool(0.12);
        push_row(m, occupied ? 1 + static_cast<int>(rng.next_below(
                                       static_cast<std::uint64_t>(
                                           std::min<index_t>(n, 24))))
                             : 0,
                 rng);
      }
      return m;
    }
    case 4: {  // singleton rows: every non-empty row has exactly one entry
      const auto n = static_cast<index_t>(1 + rng.next_below(200));
      *family_out = "singleton " + std::to_string(n);
      Csr<double> m = empty_matrix(0, n);
      m.rows = n;
      for (index_t r = 0; r < n; ++r) push_row(m, rng.next_bool(0.8) ? 1 : 0, rng);
      return m;
    }
    default: {  // one dense row past the DP bin threshold + sparse rest
      const auto n = static_cast<index_t>(340 + rng.next_below(100));
      const int dense = 257 + static_cast<int>(rng.next_below(80));
      *family_out = "dense-row " + std::to_string(n) + " nnz " +
                    std::to_string(dense);
      Csr<double> m = empty_matrix(0, n);
      m.rows = n;
      const auto dense_at = static_cast<index_t>(rng.next_below(
          static_cast<std::uint64_t>(n)));
      for (index_t r = 0; r < n; ++r)
        push_row(m, r == dense_at ? dense
                                  : static_cast<int>(rng.next_below(4)),
                 rng);
      return m;
    }
  }
}

}  // namespace acsr::test
