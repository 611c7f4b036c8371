// Merge-based CSR SpMV (Merrill & Garland, SC'16) — the approach that
// succeeded the paper's generation of CSR kernels. Included as a forward-
// looking comparator: like ACSR it works on unmodified CSR with O(1)
// per-SpMV setup, but it balances load by *construction* instead of by
// binning: the 2D merge of (row boundaries x non-zeros) is split into
// equal-length path chunks, one per lane, so every lane does identical
// work regardless of the row-length distribution.
//
// Faithful details: the warp's contiguous nnz tile is staged through
// shared memory with coalesced loads, and chunk-boundary carries are
// warp-aggregated with a segmented scan before publishing. Simplification
// vs the original: the aggregated carries use atomics rather than
// Merrill's block-level carry-out fix-up pass — a few atomics per warp.
#pragma once

#include <algorithm>
#include <array>
#include <tuple>
#include <utility>

#include "analysis/shape.hpp"
#include "spmv/coo_engine.hpp"
#include "spmv/csr_device.hpp"
#include "spmv/engine.hpp"
#include "vgpu/lane_array.hpp"

namespace acsr::spmv {

template <class T>
class MergeCsrEngine final : public EngineBase<T> {
 public:
  /// items_per_lane: merge-path items (row-ends + nnz) each lane consumes.
  MergeCsrEngine(vgpu::Device& dev, const mat::Csr<T>& a,
                 int items_per_lane = 8)
      : EngineBase<T>(dev, "merge-CSR"), host_(a), ipl_(items_per_lane) {
    ACSR_REQUIRE(items_per_lane >= 1 && items_per_lane <= 64,
                 "items_per_lane must be in [1, 64]");
    // No transform: merge-CSR ships plain CSR, like ACSR.
    dev_csr_ = CsrDevice<T>::upload(dev, a, this->name());
    this->charge_upload(dev_csr_.bytes());
    this->report_.device_bytes = dev_csr_.bytes();
  }

  mat::index_t rows() const override { return host_.rows; }
  mat::index_t cols() const override { return host_.cols; }
  mat::offset_t nnz() const override { return host_.nnz(); }

  /// The simulated kernels' value, bit for bit (merge_values).
  void apply(const std::vector<T>& x, std::vector<T>& y) const override {
    ACSR_CHECK(static_cast<mat::index_t>(x.size()) == host_.cols);
    const auto nrows = static_cast<std::size_t>(host_.rows);
    y.assign(nrows, T{0});
    merge_values(vgpu::host_span(host_.row_off, 1, nrows),
                 vgpu::host_span(host_.col_idx), vgpu::host_span(host_.vals),
                 vgpu::host_span(x), vgpu::host_span(y), host_.rows,
                 host_.nnz(), ipl_);
  }

  double simulate(const std::vector<T>& x, std::vector<T>& y) override {
    ACSR_CHECK(static_cast<mat::index_t>(x.size()) == host_.cols);
    auto x_dev = this->stage_x(x);
    auto y_dev = this->stage_y(static_cast<std::size_t>(host_.rows));

    const long long total_items =
        static_cast<long long>(host_.rows) + host_.nnz();
    const long long lanes_needed = (total_items + ipl_ - 1) / ipl_;
    const long long warps = (lanes_needed + 31) / 32;
    vgpu::LaunchConfig cfg;
    cfg.name = "merge_csr";
    cfg.block_dim = 128;
    cfg.grid_dim = std::max<long long>(1, (warps + 3) / 4);

    const auto nrows = static_cast<std::size_t>(host_.rows);
    auto re = dev_csr_.row_off.cspan().subspan(1, nrows);  // row end offsets
    auto ci = dev_csr_.col_idx.cspan();
    auto va = dev_csr_.vals.cspan();
    auto xs = x_dev;
    auto ys = y_dev;
    const long long n_rows = host_.rows;
    const long long n_nnz = host_.nnz();
    const int ipl = ipl_;

    const vgpu::KernelRun zero = zero_fill(this->dev_, ys);
    const vgpu::KernelRun run = this->dev_.launch_warps(
        cfg,
        [&](vgpu::Warp& w) {
          merge_warp(w, re, ci, va, xs, ys, n_rows, n_nnz, ipl);
        },
        nullptr,
        [&] { merge_values(re, ci, va, xs, ys, n_rows, n_nnz, ipl); });
    this->report_.last_run = run;
    y = this->staged_y();
    return vgpu::combine_sequential({zero, run});
  }

 private:
  /// The start coordinate (r, i) of merge-path position p: r = row-end
  /// markers before p, i = p - r, by a diagonal binary search over
  /// row_end. `steps` receives the search depth.
  static std::pair<long long, long long> path_start(
      vgpu::DeviceSpan<const mat::offset_t> row_end, long long p,
      long long n_rows, long long n_nnz, int& steps) {
    long long lo = std::max<long long>(0, p - n_nnz);
    long long hi = std::min(p, n_rows);
    steps = 0;
    while (lo < hi) {
      const long long mid = (lo + hi) / 2;
      // Path position of "end of row mid": row_end[mid] + mid items
      // precede it. Row mid's end-marker is *after* its nnz.
      if (static_cast<long long>(row_end[static_cast<std::size_t>(mid)]) +
              mid <
          p)
        lo = mid + 1;
      else
        hi = mid;
      ++steps;
    }
    return {lo, p - lo};
  }

  /// Value kernel of the merge_csr grid, warp by warp. Each lane walks its
  /// chunk as merge_warp's lane does — a non-zero adds val * x into its
  /// sum, a row end adds the sum into y and restarts it at +0 — and the
  /// lanes left mid-row publish their carries (publish_segments). A row's
  /// end marker is one lane's, and a warp's carries follow all of its
  /// row ends, so walking the lanes one after another makes every y
  /// entry's adds in the grid's order.
  static void merge_values(vgpu::DeviceSpan<const mat::offset_t> row_end,
                           vgpu::DeviceSpan<const mat::index_t> col_idx,
                           vgpu::DeviceSpan<const T> vals,
                           vgpu::DeviceSpan<const T> xs,
                           vgpu::DeviceSpan<T> ys, long long n_rows,
                           long long n_nnz, int ipl) {
    const long long total = n_rows + n_nnz;
    for (long long first = 0; first < total;
         first += static_cast<long long>(vgpu::kWarpSize) * ipl) {
      vgpu::LaneArray<mat::index_t> out_row{};
      vgpu::LaneArray<T> sum{};
      vgpu::Mask carry = 0;
      for (int l = 0; l < vgpu::kWarpSize; ++l) {
        const long long begin = first + static_cast<long long>(l) * ipl;
        if (begin >= total) break;
        const long long end = std::min(total, begin + ipl);
        int steps = 0;
        auto [r, i] = path_start(row_end, begin, n_rows, n_nnz, steps);
        mat::offset_t endv = row_end[static_cast<std::size_t>(r)];
        bool pending = false;  // consumed a non-zero since its last row end
        for (long long p = begin; p < end; ++p) {
          if (r < n_rows && i < static_cast<long long>(endv)) {
            const auto k = static_cast<std::size_t>(i++);
            sum[l] += vals[k] * xs[static_cast<std::size_t>(col_idx[k])];
            pending = true;
            continue;
          }
          ys[static_cast<std::size_t>(r)] += sum[l];
          sum[l] = T{0};
          pending = false;
          if (++r < n_rows) endv = row_end[static_cast<std::size_t>(r)];
        }
        out_row[l] = static_cast<mat::index_t>(r);
        if (pending && r < n_rows) carry |= vgpu::lane_bit(l);
      }
      publish_segments(out_row, sum, carry, ys);
    }
  }

  /// One warp: 32 equal merge-path chunks, walked in lockstep. The merge
  /// list conceptually interleaves "end of row r" markers with non-zeros;
  /// a path position p = (r, i) advances down (consume nnz i of row r)
  /// when i < row_end[r], right (emit row r) otherwise.
  static void merge_warp(vgpu::Warp& w,
                         vgpu::DeviceSpan<const mat::offset_t> row_end,
                         vgpu::DeviceSpan<const mat::index_t> col_idx,
                         vgpu::DeviceSpan<const T> vals,
                         vgpu::DeviceSpan<const T> xs, vgpu::DeviceSpan<T> ys,
                         long long n_rows, long long n_nnz, int ipl) {
    using vgpu::LaneArray;
    using vgpu::Mask;
    const long long total = n_rows + n_nnz;

    // Per-lane chunk [begin, end) on the merge path.
    LaneArray<long long> begin{}, chunk_end{};
    Mask live = 0;
    for (int l = 0; l < vgpu::kWarpSize; ++l) {
      const long long lane_global =
          (w.global_warp() * vgpu::kWarpSize + l) * ipl;
      if (lane_global < total) {
        live |= vgpu::lane_bit(l);
        begin[l] = lane_global;
        chunk_end[l] = std::min(total, lane_global + ipl);
      }
    }
    if (live == 0) return;

    // Diagonal binary search for the start coordinate (r, i) of each
    // chunk: r = #row-ends before position p, i = p - r. On hardware this
    // is log2(rows) uniform loads of row_end.
    LaneArray<long long> r{}, i{};
    int search_steps = 0;
    for (int l = 0; l < vgpu::kWarpSize; ++l) {
      if (!vgpu::lane_active(live, l)) continue;
      int steps = 0;
      std::tie(r[l], i[l]) =
          path_start(row_end, begin[l], n_rows, n_nnz, steps);
      search_steps = std::max(search_steps, steps);
    }
    // The search's loads are uniform per lane but diverge little (equal
    // depth): charge log-depth scalar loads + compares.
    w.count_serial_gmem(static_cast<std::uint64_t>(search_steps));
    w.count_alu(3 * std::max(1, search_steps));

    // Coalesced staging (the real kernel's shared-memory tile): the warp's
    // lanes cover a *contiguous* nnz range [i_lo, i_hi), so col_idx and
    // vals are fetched with perfectly coalesced strides once, then the
    // merge loop consumes them from shared memory.
    long long i_lo = n_nnz, i_hi = 0;
    for (int l = 0; l < vgpu::kWarpSize; ++l) {
      if (!vgpu::lane_active(live, l)) continue;
      i_lo = std::min(i_lo, i[l]);
      // Upper bound: everything this lane's chunk could consume.
      i_hi = std::max(i_hi, std::min<long long>(
                                n_nnz, i[l] + (chunk_end[l] - begin[l])));
    }
    std::array<mat::index_t, 32 * 64> st_col;  // ipl <= 64 by construction
    std::array<T, 32 * 64> st_val;
    const long long stage_n = std::max<long long>(0, i_hi - i_lo);
    for (long long off = 0; off < stage_n; off += vgpu::kWarpSize) {
      const auto idxs = LaneArray<long long>::iota(i_lo + off);
      const Mask m = idxs.where(
          [i_hi](long long v) { return v < i_hi; }, vgpu::kFullMask);
      const LaneArray<mat::index_t> c = w.load(col_idx, idxs, m);
      const LaneArray<T> v = w.load(vals, idxs, m);
      w.count_smem(2);  // staged into shared memory
      for (int l = 0; l < vgpu::kWarpSize; ++l)
        if (vgpu::lane_active(m, l)) {
          st_col[static_cast<std::size_t>(off + l)] = c[l];
          st_val[static_cast<std::size_t>(off + l)] = v[l];
        }
    }

    LaneArray<T> sum{};
    // Lanes that consumed a non-zero since their last row end: the ones
    // with a carry-out to publish, whatever their partial sum's value.
    Mask pending = 0;
    // The current row's end offset lives in a register and is refreshed
    // only when a lane moves to the next row (as in the real kernel).
    LaneArray<mat::offset_t> endv = w.load(row_end, r, live);
    for (int step = 0; step < ipl; ++step) {
      // Which lanes still have path items, and is the next item a
      // non-zero (down) or a row end (right)?
      Mask active = 0, down = 0;
      for (int l = 0; l < vgpu::kWarpSize; ++l) {
        if (!vgpu::lane_active(live, l)) continue;
        if (begin[l] + step >= chunk_end[l]) continue;
        active |= vgpu::lane_bit(l);
        if (r[l] < n_rows && i[l] < static_cast<long long>(endv[l]))
          down |= vgpu::lane_bit(l);
      }
      if (active == 0) break;
      w.count_alu(3);

      if (down != 0) {
        // col/val come from the staged tile (shared memory).
        LaneArray<mat::index_t> col{};
        LaneArray<T> val{};
        for (int l = 0; l < vgpu::kWarpSize; ++l) {
          if (!vgpu::lane_active(down, l)) continue;
          const auto k = static_cast<std::size_t>(i[l] - i_lo);
          col[l] = st_col[k];
          val[l] = st_val[k];
        }
        w.count_smem(2);
        const LaneArray<T> xv = w.load_tex(xs, col, down);
        vgpu::fma_into(sum, val, xv, down);
        w.count_flops(down, 2, sizeof(T) == 8);
      }
      // Lanes at a row end publish the finished row (each marker is hit
      // by exactly one lane; earlier partial contributions arrive via
      // the aggregated carries below) and advance to the next row.
      const Mask right = active & ~down;
      if (right != 0) {
        LaneArray<mat::index_t> out_row{};
        for (int l = 0; l < vgpu::kWarpSize; ++l)
          if (vgpu::lane_active(right, l))
            out_row[l] = static_cast<mat::index_t>(r[l]);
        w.atomic_add(ys, out_row, sum, right);
        Mask reload = 0;
        for (int l = 0; l < vgpu::kWarpSize; ++l)
          if (vgpu::lane_active(right, l)) {
            sum[l] = T{0};
            ++r[l];
            if (r[l] < n_rows) reload |= vgpu::lane_bit(l);
          }
        if (reload != 0) {
          const LaneArray<mat::offset_t> fresh = w.load(row_end, r, reload);
          for (int l = 0; l < vgpu::kWarpSize; ++l)
            if (vgpu::lane_active(reload, l)) endv[l] = fresh[l];
        }
      }
      for (int l = 0; l < vgpu::kWarpSize; ++l)
        if (vgpu::lane_active(down, l)) ++i[l];
      pending = (pending | down) & ~right;
    }
    // Carry-out: lanes left mid-row aggregate within the warp first —
    // consecutive lanes usually share the row (the path is sorted), so a
    // segmented reduction leaves one atomic per distinct row per warp.
    Mask carry = 0;
    LaneArray<mat::index_t> out_row{};
    for (int l = 0; l < vgpu::kWarpSize; ++l) {
      if (!vgpu::lane_active(live, l)) continue;
      out_row[l] = static_cast<mat::index_t>(r[l]);
      if (vgpu::lane_active(pending, l) && r[l] < n_rows)
        carry |= vgpu::lane_bit(l);
    }
    if (carry != 0) publish_segments(w, out_row, sum, carry, ys);
  }

  mat::Csr<T> host_;
  CsrDevice<T> dev_csr_;
  int ipl_;
};

/// Shape class of merge_warp: plain CSR viewed as a merge list of n_rows
/// row-end markers and nnz non-zeros. The merge-path invariant the model
/// declares (docs/ANALYSIS.md): a lane whose chunk begins before the end
/// of the path (begin < n_rows + nnz) lands on a row coordinate r <
/// n_rows — row n_rows-1's end marker is the last path item, so only
/// exhausted lanes reach r == n_rows, and those drop out of every mask.
/// Likewise the staged nnz window [i_lo, i_hi) is clipped to nnz by
/// construction. Row ends are monotone with row_end[n_rows-1] == nnz.
inline analysis::ShapeClass merge_csr_shape_class() {
  namespace an = acsr::analysis;
  const an::Sym n_rows = an::Sym::param("n_rows");
  const an::Sym n_cols = an::Sym::param("n_cols");
  const an::Sym nnz = an::Sym::param("nnz");
  an::ShapeClass sc;
  sc.engine = "merge-csr";
  sc.params = {an::param("n_rows", 0, "matrix rows"),
               an::param("n_cols", 0, "matrix columns"),
               an::param("nnz", 0, "stored non-zeros"),
               an::param("grid", 1, "launch grid dim")};
  sc.spans = {
      an::index_span("merge.row_end", n_rows, {an::Sym(0), nnz},
                     "row end offsets (row_off[1..rows])", true),
      an::index_span("col_idx", nnz, {an::Sym(0), n_cols - an::Sym(1)},
                     "column indices"),
      an::data_span("vals", nnz, "non-zero values"),
      an::data_span("x", n_cols, "input vector"),
      an::data_span("y", n_rows, "output vector", /*initialized=*/false),
  };
  return sc;
}

}  // namespace acsr::spmv
