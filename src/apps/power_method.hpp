// Shared machinery for the paper's three graph-mining applications
// (PageRank, HITS, RWR): all are power iterations whose per-step cost is
// one SpMV plus a handful of streaming vector kernels, iterated until the
// Euclidean distance between successive score vectors drops below epsilon.
#pragma once

#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "spmv/engine.hpp"

namespace acsr::apps {

struct PowerIterConfig {
  double epsilon = 1e-6;  // Euclidean convergence threshold (the paper's)
  int max_iters = 10000;
  /// Run every SpMV through engine.simulate() — the full device path with
  /// per-launch metering — instead of apply() plus a single analytic
  /// spmv_seconds() charge. Same simulated time, same result vector
  /// (apply is the kernels' exact-order value kernel, so simulate and
  /// apply agree bit for bit), but the host pays the real simulator cost
  /// per iteration. This is the loop shape the memo plane (ACSR_MEMO=1,
  /// vgpu/memo.hpp) accelerates: iteration 1 captures the launch
  /// metering, later iterations replay it and compute y through the
  /// launches' value kernels.
  bool device_loop = false;
};

template <class T>
struct AppResult {
  int iterations = 0;
  /// Simulated device time: iterations x (SpMV + auxiliary kernels).
  double total_s = 0.0;
  double spmv_s = 0.0;  // the SpMV share of total_s
  std::vector<T> scores;
  bool converged = false;
};

template <class T>
double euclidean_distance(const std::vector<T>& a, const std::vector<T>& b) {
  ACSR_CHECK(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d =
        static_cast<double>(a[i]) - static_cast<double>(b[i]);
    s += d * d;
  }
  return std::sqrt(s);
}

/// Simulated cost of one iteration's vector work: `n_kernels` streaming
/// kernels that together read/write `bytes` of device memory (axpy, scale,
/// the distance reduction). These are bandwidth-bound and identical across
/// SpMV formats, so they dilute — but never change the sign of — the
/// format speedups, exactly as on real hardware.
inline double aux_kernels_seconds(const vgpu::Device& dev, std::size_t bytes,
                                  int n_kernels) {
  const auto& s = dev.spec();
  return static_cast<double>(n_kernels) * s.host_launch_overhead_s +
         static_cast<double>(bytes) /
             (s.dram_bandwidth_gbs * 1e9 * s.dram_efficiency);
}

/// Plain power method: dominant eigenvector of the engine's matrix via
/// v <- A v / ||A v||_2, converged on the Euclidean distance between
/// successive normalised iterates (the same criterion PageRank/HITS use).
/// The checkpointed/resilient variant lives in apps/checkpoint.hpp.
template <class T>
AppResult<T> power_method(spmv::SpmvEngine<T>& engine,
                          const PowerIterConfig& cfg = {}) {
  const auto n = static_cast<std::size_t>(engine.rows());
  ACSR_CHECK_MSG(engine.rows() == engine.cols(),
                 "power method needs a square matrix");
  AppResult<T> res;
  std::vector<T> v(n, n == 0 ? T{0}
                             : static_cast<T>(1.0 / std::sqrt(
                                                  static_cast<double>(n))));
  const double spmv_s = cfg.device_loop ? 0.0 : engine.spmv_seconds();
  // Per iteration: SpMV, then the norm reduction + scale (2 passes over
  // ~3n values) and the distance reduction.
  const double aux_s =
      aux_kernels_seconds(engine.device(), 5 * n * sizeof(T), 3);
  std::vector<T> y;
  for (int k = 0; k < cfg.max_iters; ++k) {
    const double t = cfg.device_loop ? engine.simulate(v, y)
                                     : (engine.apply(v, y), spmv_s);
    double norm = 0.0;
    for (const T& x : y)
      norm += static_cast<double>(x) * static_cast<double>(x);
    norm = std::sqrt(norm);
    if (norm == 0.0) break;  // matrix annihilated the iterate
    for (auto& x : y) x = static_cast<T>(static_cast<double>(x) / norm);
    res.iterations = k + 1;
    res.total_s += t + aux_s;
    res.spmv_s += t;
    const double dist = euclidean_distance(y, v);
    v.swap(y);
    if (dist < cfg.epsilon) {
      res.converged = true;
      break;
    }
  }
  res.scores = std::move(v);
  return res;
}

}  // namespace acsr::apps
