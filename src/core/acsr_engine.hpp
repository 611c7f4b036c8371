// ACSR — the paper's contribution (Algorithms 1-4).
//
// Split into two layers:
//   * AcsrLauncher — owns the bin metadata (the only thing ACSR adds on
//     top of CSR) and executes the launch sequence against *any* CSR-shaped
//     device arrays: one bin-specific grid per non-empty bin (Algorithm 2),
//     plus the dynamic-parallelism parent grid (Algorithm 3) whose threads
//     launch a row-specific child grid per long-tail row (Algorithm 4).
//     The dynamic-graph driver reuses a launcher over the incremental
//     (slack-padded) CSR without touching the matrix data.
//   * AcsrEngine — the SpmvEngine facade: uploads the CSR arrays, bins the
//     rows (one O(rows) host scan), and delegates to the launcher.
// On devices without CC >= 3.5 (GTX 580, Tesla K10) ACSR degrades to
// binning-only: tail rows are handled by the widest bin kernels.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/shape.hpp"
#include "core/binning.hpp"
#include "prof/prof.hpp"
#include "spmv/csr_device.hpp"
#include "spmv/csr_vector.hpp"
#include "spmv/engine.hpp"

namespace acsr::core {

struct AcsrOptions {
  BinningOptions binning;
  /// Elements per child-kernel thread (thread-coarsening knob of Alg. 3).
  int thread_load = 8;
  /// Issue the per-bin grids on independent streams (concurrent kernels).
  /// false serialises them — the ablation bench measures the difference.
  bool concurrent_streams = true;
  /// Read x through the texture path, as the paper (and cuSPARSE/CUSP)
  /// does; false uses plain global loads — the ablation's comparison.
  bool use_texture = true;

  /// Every field, for a memo key (vgpu/memo.hpp).
  void print_key(std::ostream& os) const {
    binning.print_key(os);
    os << ',' << thread_load << ',' << concurrent_streams << ','
       << use_texture;
  }
};
static_assert(field_count<AcsrOptions>() == 4,
              "print a new AcsrOptions field in print_key");

template <class T>
class AcsrLauncher {
 public:
  AcsrLauncher(vgpu::Device& dev, Binning binning, AcsrOptions opt)
      : dev_(dev), binning_(std::move(binning)), opt_(opt) {
    upload_metadata();
  }

  const Binning& binning() const { return binning_; }
  /// Table V columns: bin-specific and row-specific grids per SpMV.
  int bin_grids() const { return binning_.num_nonempty_bins(); }
  int row_grids() const { return static_cast<int>(binning_.dp_rows.size()); }
  std::size_t metadata_bytes() const { return metadata_bytes_; }
  double metadata_upload_s() const { return metadata_upload_s_; }

  /// One SpMV over the given extent arrays (plain CSR passes
  /// row_off[0..rows) / row_off[1..rows+1); incremental CSR its explicit
  /// begin/end arrays). Returns simulated seconds; `agg` receives the
  /// summed kernel record when non-null.
  double run(vgpu::DeviceSpan<const mat::offset_t> row_start,
             vgpu::DeviceSpan<const mat::offset_t> row_end,
             vgpu::DeviceSpan<const mat::index_t> col_idx,
             vgpu::DeviceSpan<const T> vals, vgpu::DeviceSpan<const T> xs,
             vgpu::DeviceSpan<T> ys, vgpu::KernelRun* agg = nullptr) {
    std::vector<vgpu::KernelRun> runs;
    // On independent streams the grids execute concurrently and share L2
    // (their row sweeps are aligned); serialised mode forgoes both.
    vgpu::ConcurrentGroup group(dev_);
    const bool conc = opt_.concurrent_streams;
    auto do_launch = [&](const vgpu::LaunchConfig& cfg, auto&& body,
                         vgpu::ValueRef value) {
      runs.push_back(conc ? group.launch_warps(cfg, body, value)
                          : dev_.launch_warps(cfg, body, nullptr, value));
    };

    // --- Bin-specific grids (Algorithm 2). --------------------------------
    for (std::size_t i = 1; i < binning_.bins.size(); ++i) {
      const auto& rows_in_bin = binning_.bins[i];
      if (rows_in_bin.empty()) continue;
      const int v = Binning::vector_size_for_bin(i);
      const int rows_per_warp = vgpu::kWarpSize / v;
      const long long n_slots = static_cast<long long>(rows_in_bin.size());
      const long long warps = (n_slots + rows_per_warp - 1) / rows_per_warp;
      vgpu::LaunchConfig cfg;
      cfg.name = "acsr_bin" + std::to_string(i);
      cfg.block_dim = 128;
      cfg.grid_dim = std::max<long long>(1, (warps + 3) / 4);
      // Each row has one vector group and one storing head (the injective
      // bin row map): blocks write disjoint rows and read only A and x.
      cfg.blocks_independent = true;
      if (prof::profiler_enabled()) [[unlikely]]
        prof::Profiler::instance().annotate_next_launch(
            "bin=" + std::to_string(i) +
            " rows=" + std::to_string(rows_in_bin.size()) +
            " vector_size=" + std::to_string(v));
      auto row_map = bin_rows_dev_[i].cspan();
      do_launch(
          cfg,
          [&](vgpu::Warp& w) {
            const long long first = w.global_warp() * rows_per_warp;
            if (first >= n_slots) return;
            spmv::csr_vector_warp<T>(w, v, row_start, row_end, col_idx, vals,
                                     xs, ys, row_map, n_slots, first,
                                     opt_.use_texture);
          },
          [&] {
            spmv::csr_vector_rows<T>(v, row_start, row_end, col_idx, vals,
                                     row_map, n_slots, spmv::x_reader(xs),
                                     ys);
          });
    }

    // --- Dynamic-parallelism parent grid (Algorithm 3). -------------------
    if (!binning_.dp_rows.empty()) {
      const long long n_dp = static_cast<long long>(binning_.dp_rows.size());
      vgpu::LaunchConfig cfg;
      cfg.name = "acsr_dp_parent";
      cfg.block_dim = 32;
      cfg.grid_dim = (n_dp + 31) / 32;
      if (prof::profiler_enabled()) [[unlikely]]
        prof::Profiler::instance().annotate_next_launch(
            "dp_rows=" + std::to_string(n_dp));
      auto dp_rows = dp_rows_dev_.cspan();
      const int thread_load = opt_.thread_load;
      const auto value = [&] {
        dp_rows_values(dp_rows, row_start, row_end, col_idx, vals,
                       spmv::x_reader(xs), ys, thread_load);
      };
      do_launch(cfg, [&](vgpu::Warp& w) {
        using vgpu::LaneArray;
        using vgpu::Mask;
        LaneArray<long long> tid = w.global_threads();
        const Mask live = tid.where(
            [n_dp](long long t) { return t < n_dp; }, w.active_mask());
        if (live == 0) return;
        const LaneArray<mat::index_t> row = w.load(dp_rows, tid, live);
        const LaneArray<mat::offset_t> start = w.load(row_start, row, live);
        const LaneArray<mat::offset_t> end = w.load(row_end, row, live);
        // The children *accumulate* (Algorithm 4's inter-block reduction),
        // so the parent clears its rows before launching them.
        w.store(ys, row, LaneArray<T>::filled(T{0}), live);
        w.count_alu(4);  // bSize computation
        for (int l = 0; l < vgpu::kWarpSize; ++l) {
          if (!vgpu::lane_active(live, l)) continue;
          launch_row_child(w, row[l], start[l], end[l], col_idx, vals, xs,
                           ys, thread_load, opt_.use_texture);
        }
      }, value);
    }

    if (agg != nullptr) {
      *agg = runs.empty() ? vgpu::KernelRun{} : runs.front();
      for (std::size_t i = 1; i < runs.size(); ++i) {
        agg->counters += runs[i].counters;
        agg->duration_s += runs[i].duration_s;
      }
      agg->name = "acsr";
    }
    if (runs.empty()) return 0.0;
    return conc ? group.seconds() : vgpu::combine_sequential(runs);
  }

  /// One column-blocked SpMM over the same extent arrays: per-bin row
  /// group x vector-block tile grids (the Algorithm 2 structure widened to
  /// a column tile per warp, the tile's x-slices staged through a per-warp
  /// shared-memory slab), plus the batched dynamic-parallelism tail. The
  /// matrix arrays are swept once per launch — the sector model charges
  /// the A-traffic once per SpMM instead of once per vector, which is the
  /// whole point of batching (docs/SERVING.md). Caller guarantees k >= 1.
  double run_batch(vgpu::DeviceSpan<const mat::offset_t> row_start,
                   vgpu::DeviceSpan<const mat::offset_t> row_end,
                   vgpu::DeviceSpan<const mat::index_t> col_idx,
                   vgpu::DeviceSpan<const T> vals,
                   vgpu::DeviceSpan<const T> xp, vgpu::DeviceSpan<T> yb,
                   long long ldy, long long n_rows, int k,
                   vgpu::KernelRun* agg = nullptr) {
    ACSR_CHECK(k >= 1);
    std::vector<vgpu::KernelRun> runs;
    vgpu::ConcurrentGroup group(dev_);
    const bool conc = opt_.concurrent_streams;
    const long long n_tiles = (k + spmv::kSpmmTile - 1) / spmv::kSpmmTile;

    // --- Bin-specific SpMM grids (Algorithm 2 x column tiles). ------------
    for (std::size_t i = 1; i < binning_.bins.size(); ++i) {
      const auto& rows_in_bin = binning_.bins[i];
      if (rows_in_bin.empty()) continue;
      const int v = Binning::vector_size_for_bin(i);
      const int rows_per_warp = vgpu::kWarpSize / v;
      const long long n_slots = static_cast<long long>(rows_in_bin.size());
      const long long warps_for_slots =
          (n_slots + rows_per_warp - 1) / rows_per_warp;
      const int warps_per_block = 4;
      vgpu::LaunchConfig cfg;
      cfg.name = "acsr_spmm_bin" + std::to_string(i);
      cfg.block_dim = warps_per_block * vgpu::kWarpSize;
      cfg.grid_dim = std::max<long long>(
          1, (warps_for_slots * n_tiles + warps_per_block - 1) /
                 warps_per_block);
      // Disjoint (row, column tile) outputs per warp, as in the SpMV bins;
      // the x-slice slab is block-shared memory.
      cfg.blocks_independent = true;
      if (prof::profiler_enabled()) [[unlikely]]
        prof::Profiler::instance().annotate_next_launch(
            "bin=" + std::to_string(i) +
            " rows=" + std::to_string(rows_in_bin.size()) +
            " vector_size=" + std::to_string(v) +
            " k=" + std::to_string(k));
      auto row_map = bin_rows_dev_[i].cspan();
      const bool use_tex = opt_.use_texture;
      auto body = [&](vgpu::Block& blk) {
        // Per-warp x-slice slab: each warp stages the gathered x values
        // of its current tile column here before the FMA fan-out, so the
        // tile's slices live in shared memory instead of k re-gathers'
        // worth of registers. Slices are warp-private — no sync needed.
        auto xslab = blk.shared<T>(
            static_cast<std::size_t>(blk.warps_per_block()) *
            vgpu::kWarpSize);
        blk.each_warp([&](vgpu::Warp& w) {
          bin_spmm_warp(w, v, row_start, row_end, col_idx, vals, xp, yb,
                        ldy, n_rows, row_map, n_slots, warps_for_slots, k,
                        xslab, use_tex);
        });
      };
      const auto value = [&] {
        spmv::csr_vector_rows_batch<T>(v, row_start, row_end, col_idx, vals,
                                       row_map, n_slots, xp, k, yb, ldy,
                                       n_rows);
      };
      runs.push_back(conc ? group.launch(cfg, vgpu::KernelRef(body), value)
                          : dev_.launch(cfg, vgpu::KernelRef(body), nullptr,
                                        value));
    }

    // --- Batched dynamic-parallelism parent (Algorithm 3 x columns). ------
    if (!binning_.dp_rows.empty()) {
      const long long n_dp = static_cast<long long>(binning_.dp_rows.size());
      vgpu::LaunchConfig cfg;
      cfg.name = "acsr_spmm_dp_parent";
      cfg.block_dim = 32;
      cfg.grid_dim = (n_dp + 31) / 32;
      if (prof::profiler_enabled()) [[unlikely]]
        prof::Profiler::instance().annotate_next_launch(
            "dp_rows=" + std::to_string(n_dp) + " k=" + std::to_string(k));
      auto dp_rows = dp_rows_dev_.cspan();
      const int thread_load = opt_.thread_load;
      const bool use_tex = opt_.use_texture;
      const auto value = [&] {
        dp_rows_values_batch(dp_rows, row_start, row_end, col_idx, vals, xp,
                             k, yb, ldy, n_rows, thread_load);
      };
      auto do_launch = [&](const vgpu::LaunchConfig& c, auto&& b) {
        runs.push_back(conc ? group.launch_warps(c, b, value)
                            : dev_.launch_warps(c, b, nullptr, value));
      };
      do_launch(cfg, [&](vgpu::Warp& w) {
        using vgpu::LaneArray;
        using vgpu::Mask;
        LaneArray<long long> tid = w.global_threads();
        const Mask live = tid.where(
            [n_dp](long long t) { return t < n_dp; }, w.active_mask());
        if (live == 0) return;
        const LaneArray<mat::index_t> row = w.load(dp_rows, tid, live);
        const LaneArray<mat::offset_t> start = w.load(row_start, row, live);
        const LaneArray<mat::offset_t> end = w.load(row_end, row, live);
        // Children accumulate into every column; clear each column's slot.
        for (int c = 0; c < k; ++c) {
          auto ycol = yb.subspan(
              static_cast<std::size_t>(c) * static_cast<std::size_t>(ldy),
              static_cast<std::size_t>(n_rows));
          w.store(ycol, row, LaneArray<T>::filled(T{0}), live);
        }
        w.count_alu(4);
        for (int l = 0; l < vgpu::kWarpSize; ++l) {
          if (!vgpu::lane_active(live, l)) continue;
          launch_row_child_batch(w, row[l], start[l], end[l], col_idx,
                                 vals, xp, yb, ldy, n_rows, k, thread_load,
                                 use_tex);
        }
      });
    }

    if (agg != nullptr) {
      *agg = runs.empty() ? vgpu::KernelRun{} : runs.front();
      for (std::size_t i = 1; i < runs.size(); ++i) {
        agg->counters += runs[i].counters;
        agg->duration_s += runs[i].duration_s;
      }
      agg->name = "acsr_spmm";
    }
    if (runs.empty()) return 0.0;
    return conc ? group.seconds() : vgpu::combine_sequential(runs);
  }

  /// Value kernel of the whole launch sequence run() issues — bin i's
  /// rows, then the tail rows — over the host copies of the bin maps:
  /// what run() stores into ys, in its order. AcsrEngine::apply.
  template <class XAt>
  void values(vgpu::DeviceSpan<const mat::offset_t> row_start,
              vgpu::DeviceSpan<const mat::offset_t> row_end,
              vgpu::DeviceSpan<const mat::index_t> col_idx,
              vgpu::DeviceSpan<const T> vals, const XAt& x_at,
              vgpu::DeviceSpan<T> ys) const {
    for (std::size_t i = 1; i < binning_.bins.size(); ++i) {
      const auto& rows_in_bin = binning_.bins[i];
      spmv::csr_vector_rows<T>(Binning::vector_size_for_bin(i), row_start,
                               row_end, col_idx, vals,
                               vgpu::host_span(rows_in_bin),
                               static_cast<long long>(rows_in_bin.size()),
                               x_at, ys);
    }
    dp_rows_values(vgpu::host_span(binning_.dp_rows), row_start, row_end,
                   col_idx, vals, x_at, ys, opt_.thread_load);
  }

 private:
  /// Algorithm 3's sizing of one tail row's child grid (Algorithm 4):
  /// ceil(nnz / thread_load) threads in blocks of at most 256, a warp
  /// multiple. Caller guarantees nnz > 0.
  static vgpu::LaunchConfig child_config(long long nnz, int thread_load) {
    const long long want_threads = (nnz + thread_load - 1) / thread_load;
    vgpu::LaunchConfig child;
    child.block_dim = static_cast<int>(
        std::min<long long>(256, ((want_threads + 31) / 32) * 32));
    child.grid_dim = std::max<long long>(
        1, (want_threads + child.block_dim - 1) / child.block_dim);
    return child;
  }

  /// The value a tail row's parent store and child grid leave in y,
  /// Algorithms 3-4 bit for bit: per warp, lanes sum the entries
  /// start + tid, start + tid + total_threads, ... and fold by the 32-lane
  /// butterfly; each block folds its warp sums in warp order from 0; the
  /// block totals accumulate onto the parent's 0 in block order (the
  /// simulator runs a grid's blocks in order, so the children's atomics
  /// land in that order). The row's col/val range is checked once.
  template <class XAt>
  static T dp_row_value(vgpu::DeviceSpan<const mat::index_t> col_idx,
                        vgpu::DeviceSpan<const T> vals, mat::offset_t start,
                        mat::offset_t end, int thread_load,
                        const XAt& x_at) {
    T y{0};
    if (end <= start) return y;  // no child grid: the parent's 0 stays
    const vgpu::LaunchConfig child = child_config(end - start, thread_load);
    const mat::index_t* ci = col_idx.checked_base(start, end - 1);
    const T* va = vals.checked_base(start, end - 1);
    const long long total_threads = child.grid_dim * child.block_dim;
    const int warps = child.block_dim / vgpu::kWarpSize;
    for (long long b = 0; b < child.grid_dim; ++b) {
      T block_total{0};
      for (int wi = 0; wi < warps; ++wi)
        block_total += spmv::lane_tree_sum(
            ci, va,
            static_cast<mat::offset_t>(start + b * child.block_dim +
                                       wi * vgpu::kWarpSize),
            end, static_cast<mat::offset_t>(total_threads), vgpu::kWarpSize,
            x_at);
      y += block_total;
    }
    return y;
  }

  /// Value kernel of the DP parent grid: every tail row's dp_row_value,
  /// one row per chunk on the block pool (dp_row_chunks).
  template <class XAt>
  static void dp_rows_values(vgpu::DeviceSpan<const mat::index_t> dp_rows,
                             vgpu::DeviceSpan<const mat::offset_t> row_start,
                             vgpu::DeviceSpan<const mat::offset_t> row_end,
                             vgpu::DeviceSpan<const mat::index_t> col_idx,
                             vgpu::DeviceSpan<const T> vals, const XAt& x_at,
                             vgpu::DeviceSpan<T> ys, int thread_load) {
    dp_row_chunks(dp_rows, row_start, row_end, 1, [&](std::size_t row) {
      ys[row] = dp_row_value(col_idx, vals, row_start[row], row_end[row],
                             thread_load, x_at);
    });
  }

  /// dp_rows_values for each of the k columns of the batched DP parent (x
  /// column c of the packed block, y column c of yb), the column loop
  /// inside the row's chunk.
  static void dp_rows_values_batch(
      vgpu::DeviceSpan<const mat::index_t> dp_rows,
      vgpu::DeviceSpan<const mat::offset_t> row_start,
      vgpu::DeviceSpan<const mat::offset_t> row_end,
      vgpu::DeviceSpan<const mat::index_t> col_idx,
      vgpu::DeviceSpan<const T> vals, vgpu::DeviceSpan<const T> xp, int k,
      vgpu::DeviceSpan<T> yb, long long ldy, long long n_rows,
      int thread_load) {
    dp_row_chunks(dp_rows, row_start, row_end, k, [&](std::size_t row) {
      const mat::offset_t start = row_start[row];
      const mat::offset_t end = row_end[row];
      for (int c = 0; c < k; ++c)
        spmv::y_column(yb, ldy, n_rows, c)[row] = dp_row_value(
            col_idx, vals, start, end, thread_load, spmv::x_reader(xp, k, c));
    });
  }

  /// Runs row_body(dp_rows[t]) for every tail row t, one row per chunk
  /// (vgpu::run_chunks): the list is sorted by descending nnz, so workers
  /// claiming the next row take the heaviest ones first. The floor sees
  /// the rows' nnz times `cols`; a row whose extents are out of range
  /// counts 0 and is left to its chunk to report.
  template <class RowBody>
  static void dp_row_chunks(vgpu::DeviceSpan<const mat::index_t> dp_rows,
                            vgpu::DeviceSpan<const mat::offset_t> row_start,
                            vgpu::DeviceSpan<const mat::offset_t> row_end,
                            long long cols, const RowBody& row_body) {
    long long work = 0;
    for (std::size_t t = 0; t < dp_rows.size(); ++t) {
      const mat::index_t r = dp_rows[t];
      const auto row = static_cast<std::size_t>(r);
      if (r >= 0 && row < row_start.size() && row < row_end.size())
        work += std::max<long long>(0, row_end[row] - row_start[row]);
    }
    vgpu::run_chunks(vgpu::value_kernel_workers(work * cols),
                     static_cast<long long>(dp_rows.size()), [&](long long t) {
                       row_body(static_cast<std::size_t>(
                           dp_rows[static_cast<std::size_t>(t)]));
                     });
  }

  /// Algorithm 3 body for one parent lane: size and launch the
  /// row-specific child grid (Algorithm 4).
  static void launch_row_child(vgpu::Warp& w, mat::index_t row,
                               mat::offset_t start, mat::offset_t end,
                               vgpu::DeviceSpan<const mat::index_t> col_idx,
                               vgpu::DeviceSpan<const T> vals,
                               vgpu::DeviceSpan<const T> xs,
                               vgpu::DeviceSpan<T> ys, int thread_load,
                               bool use_tex) {
    const long long nnz = end - start;
    if (nnz <= 0) return;
    vgpu::LaunchConfig child = child_config(nnz, thread_load);
    child.name = "acsr_row" + std::to_string(row);
    const long long total_threads = child.grid_dim * child.block_dim;

    w.launch_child(child, [row, start, end, col_idx, vals, xs, ys,
                           total_threads, use_tex](vgpu::Block& blk) {
      // Phase 1: grid-stride partial sums, one per warp, into shared.
      auto partials =
          blk.shared<T>(static_cast<std::size_t>(blk.warps_per_block()));
      blk.each_warp([&](vgpu::Warp& cw) {
        using vgpu::LaneArray;
        using vgpu::Mask;
        const LaneArray<long long> tid = cw.global_threads();
        LaneArray<mat::offset_t> i;
        for (int l = 0; l < vgpu::kWarpSize; ++l) i[l] = start + tid[l];
        LaneArray<T> sum{};
        for (;;) {
          Mask m = 0;
          for (int l = 0; l < vgpu::kWarpSize; ++l)
            if (vgpu::lane_active(cw.active_mask(), l) && i[l] < end)
              m |= vgpu::lane_bit(l);
          if (m == 0) break;
          const LaneArray<mat::index_t> col = cw.load(col_idx, i, m);
          const LaneArray<T> val = cw.load(vals, i, m);
          const LaneArray<T> xv =
              use_tex ? cw.load_tex(xs, col, m)
                      : cw.load_gather_uncached(xs, col, m);
          vgpu::fma_into(sum, val, xv, m);
          cw.count_flops(m, 2, sizeof(T) == 8);
          cw.count_alu(2);
          for (int l = 0; l < vgpu::kWarpSize; ++l)
            if (vgpu::lane_active(m, l)) i[l] += total_threads;
        }
        partials[static_cast<std::size_t>(cw.warp_in_block())] =
            cw.reduce_heads(sum, cw.active_mask(), vgpu::kWarpSize)[0];
        cw.count_smem(1);
      });
      blk.sync();
      // Phase 2: warp 0 folds the per-warp partials, lane 0 publishes.
      blk.each_warp([&](vgpu::Warp& cw) {
        if (cw.warp_in_block() != 0) return;
        using vgpu::LaneArray;
        T total{0};
        for (std::size_t p = 0; p < partials.size(); ++p)
          total += partials[p];
        cw.count_smem(static_cast<int>(partials.size()));
        cw.count_flops(vgpu::lane_bit(0),
                       static_cast<int>(partials.size()), sizeof(T) == 8);
        LaneArray<mat::index_t> rr{};
        LaneArray<T> vv{};
        rr[0] = row;
        vv[0] = total;
        cw.atomic_add(ys, rr, vv, vgpu::lane_bit(0));
      });
    });
  }

  /// Bin SpMM warp body: the csr_vector structure widened to a column
  /// tile. Per matrix entry the col/val pair is loaded once and the
  /// lane's packed x slice arrives as its row of a lane-major tile; each
  /// x value is staged through the lane's slot of the warp's private
  /// 32-slot window of the block's shared slab (one smem store + one smem
  /// load per element) and accumulated from there — register pressure
  /// stays one accumulator per tile column no matter the batch width. The
  /// store discipline is the bin kernels' usual one: group heads only,
  /// rows owned exclusively via the injective bin row map.
  static void bin_spmm_warp(vgpu::Warp& w, int vec_size,
                            vgpu::DeviceSpan<const mat::offset_t> row_start,
                            vgpu::DeviceSpan<const mat::offset_t> row_end,
                            vgpu::DeviceSpan<const mat::index_t> col_idx,
                            vgpu::DeviceSpan<const T> vals,
                            vgpu::DeviceSpan<const T> xp, vgpu::DeviceSpan<T> yb,
                            long long ldy, long long n_rows,
                            vgpu::DeviceSpan<const mat::index_t> row_map,
                            long long map_size, long long warps_for_slots,
                            int k, vgpu::DeviceSpan<T> xslab, bool use_tex) {
    using vgpu::LaneArray;
    using vgpu::Mask;
    const int rows_per_warp = vgpu::kWarpSize / vec_size;
    const long long gw = w.global_warp();
    const long long tile = gw / warps_for_slots;
    const long long warp_first_slot =
        (gw - tile * warps_for_slots) * rows_per_warp;
    const int c_begin = static_cast<int>(tile) * spmv::kSpmmTile;
    const int c_end = std::min(k, c_begin + spmv::kSpmmTile);
    if (c_begin >= c_end) return;
    const int kt = c_end - c_begin;
    const std::size_t slab_base =
        static_cast<std::size_t>(w.warp_in_block()) * vgpu::kWarpSize;

    spmv::VectorGroups grp;
    if (!grp.load(w, vec_size, row_start, row_end, row_map, map_size,
                  warp_first_slot))
      return;
    w.count_alu(5);

    std::array<vgpu::DeviceSpan<T>, spmv::kSpmmTile> ycol;
    for (int c = 0; c < kt; ++c) {
      const auto gc = static_cast<std::size_t>(c_begin + c);
      ycol[static_cast<std::size_t>(c)] =
          yb.subspan(gc * static_cast<std::size_t>(ldy),
                     static_cast<std::size_t>(n_rows));
    }

    vgpu::LaneTile<T> sums;
    vgpu::LaneTile<T> xt;
    LaneArray<mat::index_t> col;
    LaneArray<T> val;
    vgpu::LaneRuns runs;
    Mask walking = 0;
    for (Mask m = grp.walk_begin(runs, walking); m != 0;
         m = grp.walk_next(runs, walking)) {
      w.load_pair_runs(col_idx, vals, runs, col, val);  // A paid once per tile
      spmv::load_x_tile(w, xp, col, k, c_begin, kt, m, use_tex, xt);
      // Stage each x value through the lane's slab slot and accumulate
      // from there, all of a lane's tile columns in one pass: a lane only
      // touches its own slot, which holds what it staged last, so the
      // slot is stored once per step with the tile's last column — the
      // slab ends as the column-by-column staging leaves it, and each
      // product reads the value the staging would. Charged per tile
      // column as that staging is.
      for (Mask rem = m; rem != 0; rem &= rem - 1) {
        const int l = std::countr_zero(rem);
        const T v = val[l];
        auto& acc = sums[l];
        const auto& xl = xt[l];
        for (std::size_t c = 0; c < static_cast<std::size_t>(kt); ++c)
          acc[c] += v * xl[c];
        xslab[slab_base + static_cast<std::size_t>(l)] =
            xl[static_cast<std::size_t>(kt - 1)];
      }
      const int staged = 2 * vgpu::active_lanes(m);
      for (int c = 0; c < kt; ++c) w.count_smem(staged);
      w.count_flops(m, 2 * kt, sizeof(T) == 8);
      w.count_alu(2);
    }

    const LaneArray<long long> rows = grp.head_rows();
    const auto red = w.reduce_heads(sums, kt, grp.lanes, vec_size);
    for (int c = 0; c < kt; ++c)
      w.store(ycol[static_cast<std::size_t>(c)], rows,
              red[static_cast<std::size_t>(c)], grp.heads);
  }

  /// Algorithm 3/4 widened to the vector block: one child grid per heavy
  /// row serves *all* k columns, looping the column tiles inside the
  /// child (per-tile two-phase shared reduction, barrier-separated) so
  /// the per-SpMV device-launch count stays the scalar one regardless of
  /// batch width.
  static void launch_row_child_batch(
      vgpu::Warp& w, mat::index_t row, mat::offset_t start,
      mat::offset_t end, vgpu::DeviceSpan<const mat::index_t> col_idx,
      vgpu::DeviceSpan<const T> vals, vgpu::DeviceSpan<const T> xp,
      vgpu::DeviceSpan<T> yb, long long ldy, long long n_rows, int k,
      int thread_load, bool use_tex) {
    const long long nnz = end - start;
    if (nnz <= 0) return;
    vgpu::LaunchConfig child = child_config(nnz, thread_load);
    child.name = "acsr_spmm_row" + std::to_string(row);
    const long long total_threads = child.grid_dim * child.block_dim;
    const int n_tiles = (k + spmv::kSpmmTile - 1) / spmv::kSpmmTile;

    w.launch_child(child, [row, start, end, col_idx, vals, xp, yb, ldy,
                           n_rows, k, n_tiles, total_threads,
                           use_tex](vgpu::Block& blk) {
      auto partials = blk.shared<T>(
          static_cast<std::size_t>(blk.warps_per_block()) *
          spmv::kSpmmTile);
      for (int t = 0; t < n_tiles; ++t) {
        const int c_begin = t * spmv::kSpmmTile;
        const int kt = std::min(k, c_begin + spmv::kSpmmTile) - c_begin;
        // WAR barrier: the previous tile's fold must finish reading the
        // partials before this tile overwrites them.
        if (t > 0) blk.sync();
        blk.each_warp([&](vgpu::Warp& cw) {
          using vgpu::LaneArray;
          using vgpu::Mask;
          const LaneArray<long long> tid = cw.global_threads();
          LaneArray<mat::offset_t> i;
          for (int l = 0; l < vgpu::kWarpSize; ++l) i[l] = start + tid[l];
          vgpu::LaneTile<T> sums;
          vgpu::LaneTile<T> xt;
          for (;;) {
            Mask m = 0;
            for (int l = 0; l < vgpu::kWarpSize; ++l)
              if (vgpu::lane_active(cw.active_mask(), l) && i[l] < end)
                m |= vgpu::lane_bit(l);
            if (m == 0) break;
            const LaneArray<mat::index_t> col = cw.load(col_idx, i, m);
            const LaneArray<T> val = cw.load(vals, i, m);
            // Packed vector gather of the tile slice, one fetch per lane.
            spmv::load_x_tile(cw, xp, col, k, c_begin, kt, m, use_tex, xt);
            vgpu::fma_into(sums, val, xt, kt, m);
            cw.count_flops(m, 2 * kt, sizeof(T) == 8);
            cw.count_alu(2);
            for (int l = 0; l < vgpu::kWarpSize; ++l)
              if (vgpu::lane_active(m, l)) i[l] += total_threads;
          }
          const auto red =
              cw.reduce_heads(sums, kt, cw.active_mask(), vgpu::kWarpSize);
          for (int c = 0; c < kt; ++c)
            partials[static_cast<std::size_t>(c) *
                         static_cast<std::size_t>(blk.warps_per_block()) +
                     static_cast<std::size_t>(cw.warp_in_block())] =
                red[static_cast<std::size_t>(c)][0];
          cw.count_smem(kt);
        });
        blk.sync();
        blk.each_warp([&](vgpu::Warp& cw) {
          if (cw.warp_in_block() != 0) return;
          using vgpu::LaneArray;
          const auto warps = static_cast<std::size_t>(blk.warps_per_block());
          for (int c = 0; c < kt; ++c) {
            T total{0};
            for (std::size_t p = 0; p < warps; ++p)
              total += partials[static_cast<std::size_t>(c) * warps + p];
            cw.count_smem(static_cast<int>(warps));
            cw.count_flops(vgpu::lane_bit(0), static_cast<int>(warps),
                           sizeof(T) == 8);
            auto ycol = yb.subspan(
                static_cast<std::size_t>(c_begin + c) *
                    static_cast<std::size_t>(ldy),
                static_cast<std::size_t>(n_rows));
            LaneArray<mat::index_t> rr{};
            LaneArray<T> vv{};
            rr[0] = row;
            vv[0] = total;
            cw.atomic_add(ycol, rr, vv, vgpu::lane_bit(0));
          }
        });
      }
    });
  }

  void upload_metadata() {
    metadata_bytes_ = 0;
    bin_rows_dev_.clear();
    bin_rows_dev_.resize(binning_.bins.size());
    for (std::size_t i = 1; i < binning_.bins.size(); ++i) {
      if (binning_.bins[i].empty()) continue;
      bin_rows_dev_[i] = dev_.template alloc<mat::index_t>(
          binning_.bins[i].size(), "acsr.bin" + std::to_string(i));
      bin_rows_dev_[i].host() = binning_.bins[i];
      metadata_bytes_ += bin_rows_dev_[i].bytes();
    }
    if (!binning_.dp_rows.empty()) {
      dp_rows_dev_ = dev_.template alloc<mat::index_t>(
          binning_.dp_rows.size(), "acsr.dp_rows");
      dp_rows_dev_.host() = binning_.dp_rows;
      metadata_bytes_ += dp_rows_dev_.bytes();
    }
    metadata_upload_s_ = dev_.note_transfer(metadata_bytes_).duration_s;
  }

  vgpu::Device& dev_;
  Binning binning_;
  AcsrOptions opt_;
  std::vector<vgpu::DeviceBuffer<mat::index_t>> bin_rows_dev_;
  vgpu::DeviceBuffer<mat::index_t> dp_rows_dev_;
  std::size_t metadata_bytes_ = 0;
  double metadata_upload_s_ = 0.0;
};

/// Bin a CSR matrix: the one-scan preprocessing of Algorithm 1, with DP
/// force-disabled when the device lacks CC >= 3.5.
template <class T>
Binning bin_matrix(const mat::Csr<T>& a, const vgpu::Device& dev,
                   BinningOptions opt, vgpu::HostModel* hm = nullptr) {
  opt.enable_dp = opt.enable_dp && dev.spec().supports_dynamic_parallelism();
  std::vector<mat::offset_t> row_nnz(static_cast<std::size_t>(a.rows));
  for (mat::index_t r = 0; r < a.rows; ++r)
    row_nnz[static_cast<std::size_t>(r)] = a.row_nnz(r);
  return Binning::build(row_nnz, opt, hm);
}

template <class T>
class AcsrEngine final : public spmv::EngineBase<T> {
 public:
  /// `preset_binning` lets the multi-GPU partitioner inject a per-device
  /// share of each bin; by default the engine bins the whole matrix.
  AcsrEngine(vgpu::Device& dev, const mat::Csr<T>& a, AcsrOptions opt = {},
             std::optional<Binning> preset_binning = std::nullopt)
      : spmv::EngineBase<T>(dev, "ACSR"), host_(a) {
    vgpu::HostModel hm;
    dev_csr_ = spmv::CsrDevice<T>::upload(dev, a, this->name());
    this->charge_upload(dev_csr_.bytes());

    Binning b = preset_binning.has_value()
                    ? std::move(*preset_binning)
                    : bin_matrix(a, dev, opt.binning, &hm);
    launcher_.emplace(dev, std::move(b), opt);
    this->report_.preprocess_s = hm.seconds();
    this->report_.h2d_bytes += launcher_->metadata_bytes();
    this->report_.h2d_s += launcher_->metadata_upload_s();
    this->report_.device_bytes =
        dev_csr_.bytes() + launcher_->metadata_bytes();
  }

  mat::index_t rows() const override { return host_.rows; }
  mat::index_t cols() const override { return host_.cols; }
  mat::offset_t nnz() const override { return host_.nnz(); }

  const Binning& binning() const { return launcher_->binning(); }
  int bin_grids() const { return launcher_->bin_grids(); }
  int row_grids() const { return launcher_->row_grids(); }
  bool dynamic_parallelism_active() const { return row_grids() > 0; }

  /// The simulated launch sequence's value, bit for bit
  /// (AcsrLauncher::values over the host arrays).
  void apply(const std::vector<T>& x, std::vector<T>& y) const override {
    ACSR_CHECK(static_cast<mat::index_t>(x.size()) == host_.cols);
    const auto nrows = static_cast<std::size_t>(host_.rows);
    y.assign(nrows, T{0});
    launcher_->values(vgpu::host_span(host_.row_off, 0, nrows),
                      vgpu::host_span(host_.row_off, 1, nrows),
                      vgpu::host_span(host_.col_idx),
                      vgpu::host_span(host_.vals),
                      spmv::x_reader(vgpu::host_span(x)), vgpu::host_span(y));
  }

  double simulate(const std::vector<T>& x, std::vector<T>& y) override {
    ACSR_CHECK(static_cast<mat::index_t>(x.size()) == host_.cols);
    auto x_dev = this->stage_x(x);
    auto y_dev = this->stage_y(static_cast<std::size_t>(host_.rows));
    const auto nrows = static_cast<std::size_t>(host_.rows);
    const double t = launcher_->run(
        dev_csr_.row_off.cspan().subspan(0, nrows),
        dev_csr_.row_off.cspan().subspan(1, nrows), dev_csr_.col_idx.cspan(),
        dev_csr_.vals.cspan(), x_dev, y_dev,
        &this->report_.last_run);
    y = this->staged_y();
    return t;
  }

  /// Column-blocked batched SpMM (tentpole path). Width 0 is a no-op
  /// (no launch), width 1 routes through the scalar simulate() so the
  /// launch sequence — and the memo key material — is exactly the SpMV
  /// one; wider blocks run the real per-bin SpMM grids.
  double simulate_batch(const mat::DenseBlock<T>& x_block,
                        mat::DenseBlock<T>& y_block) override {
    ACSR_CHECK(x_block.rows == host_.cols);
    if (x_block.width == 0) {
      y_block.resize(host_.rows, 0);
      return 0.0;
    }
    if (x_block.width == 1) return this->simulate_batch_loop(x_block, y_block);
    const int k = x_block.width;
    const auto ldy = mat::DenseBlock<T>::padded_ld(host_.rows);
    auto xp = this->stage_x_pack(x_block);
    auto yb = this->stage_y_block(
        static_cast<std::size_t>(ldy) * static_cast<std::size_t>(k), k);
    const auto nrows = static_cast<std::size_t>(host_.rows);
    const double t = launcher_->run_batch(
        dev_csr_.row_off.cspan().subspan(0, nrows),
        dev_csr_.row_off.cspan().subspan(1, nrows), dev_csr_.col_idx.cspan(),
        dev_csr_.vals.cspan(), xp, yb, ldy, host_.rows, k,
        &this->report_.last_run);
    y_block.resize(host_.rows, k);
    y_block.data = this->staged_y_block(k);  // valid: ldy == y_block.ld
    return t;
  }

 private:
  mat::Csr<T> host_;
  spmv::CsrDevice<T> dev_csr_;
  std::optional<AcsrLauncher<T>> launcher_;
};

/// Shape class of the ACSR launch sequence (Algorithms 2-4). Key format
/// invariants from Binning::build: every row lands in exactly one bin-or-
/// dp list (both maps injective, so the bin grids' plain y stores and the
/// DP parent's clearing store cannot collide), and the number of tail
/// rows is hard-capped at BinningOptions::row_max — which is what keeps
/// the per-SpMV device-launch count under the Table II pending-launch
/// limit (cudaLimitDevRuntimePendingLaunchCount, 2048).
inline analysis::ShapeClass acsr_shape_class() {
  namespace an = acsr::analysis;
  const an::Sym n_rows = an::Sym::param("n_rows");
  const an::Sym n_cols = an::Sym::param("n_cols");
  const an::Sym nnz = an::Sym::param("nnz");
  const an::Sym n_slots = an::Sym::param("n_slots");
  const an::Sym n_dp = an::Sym::param("n_dp");
  an::ShapeClass sc;
  sc.engine = "acsr";
  sc.params = {
      an::param("n_rows", 0, "matrix rows"),
      an::param("n_cols", 0, "matrix columns"),
      an::param("nnz", 0, "stored non-zeros"),
      an::param("n_slots", 0, "rows handled by bin grids"),
      an::param("n_dp", 0, BinningOptions{}.row_max,
                "tail rows (capped by BinningOptions::row_max)"),
      an::param("grid", 1, "launch grid dim"),
      an::param("child_grid", 1, "row-child grid dim"),
      // SpMM batch: k >= 1 encodes the verified 0-column no-op (a 0-width
      // block never reaches a launch); ldy_pad carries the row padding of
      // the column-major output block (the input slab is packed, unpadded).
      an::param("k", 1, "batch width (vector-block columns)"),
      an::param("ldy_pad", 0, "y-block leading-dimension padding rows"),
  };
  const an::Sym k = an::Sym::param("k");
  const an::Sym ldy_pad = an::Sym::param("ldy_pad");
  sc.spans = {
      an::data_span("xpack", n_cols * k,
                    "packed row-major x slab (xpack[col*k + c])"),
      an::data_span("yb", (n_rows + ldy_pad) * k,
                    "column-major output vector block",
                    /*initialized=*/false),
      an::index_span("row_start", n_rows, {an::Sym(0), nnz},
                     "per-row begin offsets", true),
      an::index_span("row_end", n_rows, {an::Sym(0), nnz},
                     "per-row end offsets", true),
      an::index_span("col_idx", nnz, {an::Sym(0), n_cols - an::Sym(1)},
                     "column indices"),
      an::data_span("vals", nnz, "non-zero values"),
      an::data_span("x", n_cols, "input vector"),
      an::data_span("y", n_rows, "output vector", /*initialized=*/false),
      an::index_span("acsr.bin_rows", n_slots,
                     {an::Sym(0), n_rows - an::Sym(1)},
                     "bin row maps (each row in at most one bin)", false,
                     true),
      an::index_span("acsr.dp_rows", n_dp,
                     {an::Sym(0), n_rows - an::Sym(1)},
                     "tail rows for dynamic parallelism", false, true),
  };
  return sc;
}

}  // namespace acsr::core
