#include "graph/powerlaw.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace acsr::graph {

using mat::index_t;
using mat::offset_t;

namespace {

/// Mean of a continuous Pareto(xmin = 1, alpha) truncated at M.
double truncated_pareto_mean(double alpha, double M) {
  if (std::abs(alpha - 1.0) < 1e-9)
    return std::log(M) / (1.0 - 1.0 / M);
  return alpha / (alpha - 1.0) * (1.0 - std::pow(M, 1.0 - alpha)) /
         (1.0 - std::pow(M, -alpha));
}

/// Shape parameter whose truncated-Pareto mean equals `target` (the mean
/// is strictly decreasing in alpha). Returns nullopt when the target
/// exceeds what xmin = 1 can reach even at the heaviest admissible tail —
/// the caller then falls back to rescaled sampling.
std::optional<double> alpha_for_mean(double target, double M) {
  double lo = 1.02, hi = 8.0;
  if (target > truncated_pareto_mean(lo, M)) return std::nullopt;
  if (target < truncated_pareto_mean(hi, M)) return hi;
  for (int it = 0; it < 60; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (truncated_pareto_mean(mid, M) > target)
      lo = mid;
    else
      hi = mid;
  }
  return 0.5 * (lo + hi);
}

/// Cumulative Zipf weights over the hub column set (hub h has weight
/// 1/(h+1)); sampled by binary search.
std::vector<double> zipf_cdf(index_t hubs) {
  std::vector<double> cdf(static_cast<std::size_t>(hubs));
  double acc = 0.0;
  for (index_t h = 0; h < hubs; ++h) {
    acc += 1.0 / static_cast<double>(h + 1);
    cdf[static_cast<std::size_t>(h)] = acc;
  }
  for (auto& v : cdf) v /= acc;
  return cdf;
}

}  // namespace

mat::Csr<double> powerlaw_matrix(const PowerLawSpec& spec) {
  ACSR_REQUIRE(spec.rows > 0 && spec.cols > 0, "empty matrix spec");
  ACSR_REQUIRE(spec.mean_nnz_per_row > 0, "mean_nnz_per_row must be > 0");

  Rng rng(spec.seed);
  const auto rows = static_cast<std::size_t>(spec.rows);
  const offset_t max_deg =
      std::min<offset_t>(spec.max_row_nnz, spec.cols);

  // 1. Raw degree sequence. Prefer an xmin = 1 truncated Pareto whose
  // shape is solved to hit the target mean directly — this keeps the
  // heavy concentration of 1-2 nnz rows that Fig. 3 shows (a rescaled
  // sample would shift the whole head up). Means beyond what xmin = 1 can
  // reach (e.g. HOL's mu = 100) fall back to the requested alpha plus the
  // rescale in step 2.
  std::vector<double> raw(rows);
  if (spec.alpha > 0.0) {
    const double sample_alpha =
        alpha_for_mean(spec.mean_nnz_per_row, static_cast<double>(max_deg))
            .value_or(spec.alpha);
    for (auto& d : raw) {
      const double u = std::max(rng.next_double(), 1e-12);
      d = std::pow(u, -1.0 / sample_alpha);  // Pareto(xmin=1, alpha)
      d = std::min(d, static_cast<double>(max_deg));
    }
  } else {
    // Uniform model: degrees spread evenly around the mean.
    const double hi = std::min(2.0 * spec.mean_nnz_per_row - 1.0,
                               static_cast<double>(max_deg));
    const double lo = std::max(1.0, 2.0 * spec.mean_nnz_per_row - hi);
    for (auto& d : raw) d = rng.next_double(lo, hi + 1.0);
  }

  // 2. Rescale to the nnz target, then clamp.
  const double target_nnz =
      spec.mean_nnz_per_row * static_cast<double>(spec.rows);
  double raw_sum = 0.0;
  for (double d : raw) raw_sum += d;
  const double k = target_nnz / raw_sum;
  std::vector<offset_t> deg(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    deg[r] = static_cast<offset_t>(std::llround(raw[r] * k));
    deg[r] = std::clamp<offset_t>(deg[r], 0, max_deg);
  }

  // 3. Inject the explicit long tail (Fig. 3's right side).
  if (spec.alpha > 0.0) {
    for (int t = 0; t < spec.tail_rows && static_cast<std::size_t>(t) < rows;
         ++t) {
      const auto r = static_cast<std::size_t>(
          rng.next_below(static_cast<std::uint64_t>(rows)));
      const double shrink = 1.0 / static_cast<double>(1 + t);
      deg[r] = std::max<offset_t>(
          deg[r], static_cast<offset_t>(
                      static_cast<double>(max_deg) * shrink));
    }
  }

  // 4. Columns: Zipf-weighted hubs + uniform background, deduplicated.
  const index_t hubs = std::max<index_t>(
      16, static_cast<index_t>(std::sqrt(static_cast<double>(spec.cols))));
  const std::vector<double> cdf = zipf_cdf(std::min(hubs, spec.cols));

  mat::Csr<double> m;
  m.rows = spec.rows;
  m.cols = spec.cols;
  m.row_off.assign(rows + 1, 0);

  std::vector<index_t> row_cols;
  // The last row that drew each column: a column is new to row r iff its
  // stamp is not r. A per-row hash set would malloc a node per draw.
  std::vector<index_t> drawn_by(static_cast<std::size_t>(spec.cols), -1);
  for (std::size_t r = 0; r < rows; ++r) {
    Rng rr = rng.split(static_cast<std::uint64_t>(r) + 1);
    const offset_t d = deg[r];
    row_cols.clear();
    // Dense rows: sampling distinct columns by rejection degrades near
    // full density, so cap attempts and accept slightly fewer entries.
    const int max_attempts = 8;
    for (offset_t j = 0; j < d; ++j) {
      index_t c = 0;
      bool ok = false;
      for (int a = 0; a < max_attempts && !ok; ++a) {
        if (rr.next_double() < spec.hub_fraction) {
          const double u = rr.next_double();
          const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
          c = static_cast<index_t>(it - cdf.begin());
        } else {
          c = static_cast<index_t>(
              rr.next_below(static_cast<std::uint64_t>(spec.cols)));
        }
        index_t& stamp = drawn_by[static_cast<std::size_t>(c)];
        ok = stamp != static_cast<index_t>(r);
        stamp = static_cast<index_t>(r);
      }
      if (ok) row_cols.push_back(c);
    }
    std::sort(row_cols.begin(), row_cols.end());
    for (index_t c : row_cols) {
      m.col_idx.push_back(c);
      // Values in (0, 1]: nonzero so tests can detect dropped entries.
      m.vals.push_back(0.5 + 0.5 * rr.next_double());
    }
    m.row_off[r + 1] = static_cast<offset_t>(m.col_idx.size());
  }
  m.validate();
  return m;
}

}  // namespace acsr::graph
