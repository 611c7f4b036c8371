// ACSR row binning (Algorithm 1's preprocessing).
//
// Rows are grouped by non-zero count into power-of-two bins: bin i holds
// rows with nnz in (2^{i-1}, 2^i] (bin 1 = 1-2 nnz, bin 2 = 3-4, ...).
// Bins up to BinMax get bin-specific kernels with a thread-group size
// matched to the bin (group G2 in the paper); rows in larger bins — the
// power-law long tail — are routed to dynamic parallelism, capped at
// RowMax rows so the device's pending-launch limit is respected (group G1).
// The scan is a single O(rows) pass over row lengths and moves no matrix
// data: that is the whole point of ACSR versus transformed formats.
#pragma once

#include <ostream>
#include <vector>

#include "common/fields.hpp"
#include "mat/types.hpp"
#include "vgpu/host_model.hpp"

namespace acsr::core {

struct BinningOptions {
  /// Largest bin index handled by a bin-specific kernel; rows in bins
  /// above this (nnz > 2^bin_max = 256) are candidates for dynamic
  /// parallelism.
  int bin_max = 8;
  /// Maximum number of row-specific (child) grids, mirroring
  /// cudaLimitDevRuntimePendingLaunchCount.
  int row_max = 2048;
  /// Master switch; false = binning-only ACSR (Fermi / K10 path).
  bool enable_dp = true;

  /// Every field, for a memo key (vgpu/memo.hpp).
  void print_key(std::ostream& os) const {
    os << bin_max << ',' << row_max << ',' << enable_dp;
  }
};
static_assert(field_count<BinningOptions>() == 3,
              "print a new BinningOptions field in print_key");

struct Binning {
  /// bins[i] = rows with nnz in (2^{i-1}, 2^i], for bins handled by
  /// bin-specific kernels. Index 0 (empty rows) is never launched.
  std::vector<std::vector<mat::index_t>> bins;
  /// Rows processed through the dynamic-parallelism parent kernel,
  /// descending by nnz.
  std::vector<mat::index_t> dp_rows;
  BinningOptions options;

  int num_nonempty_bins() const {
    int n = 0;
    for (std::size_t i = 1; i < bins.size(); ++i)
      if (!bins[i].empty()) ++n;
    return n;
  }

  /// Thread-group (vector) size for bin i: 2^{i-1} capped at the warp.
  static int vector_size_for_bin(std::size_t i) {
    if (i <= 1) return 1;
    const std::size_t v = std::size_t{1} << (i - 1);
    return v >= 32 ? 32 : static_cast<int>(v);
  }

  /// The single O(rows) scan. row_nnz[r] = non-zeros of row r.
  /// Charges one pass to the host model (the paper's "preprocessing is
  /// limited to efficient scanning of row-lengths").
  static Binning build(const std::vector<mat::offset_t>& row_nnz,
                       const BinningOptions& opt,
                       vgpu::HostModel* hm = nullptr);
};

}  // namespace acsr::core
