// Incremental CSR for dynamic graphs (paper section VII).
//
// Each row is allocated with slack at its end so that insertions do not
// force a global rebuild. A matrix update ships only the change list
// (rows + sorted delete/insert column lists) across PCIe; a device kernel
// with one warp per updated row — only lane 0 active, as in the paper, to
// avoid intra-warp divergence — deletes, compacts and inserts in place.
// Rows that outgrow their slack relocate into a spare heap at the end of
// the arrays (row placement is free-form thanks to the explicit begin/end
// offsets); only an exhausted heap forces the host-side rebuild + full
// re-upload (both counted, so benches can report how rare they are).
#pragma once

#include <algorithm>
#include <cstdint>

#include "core/binning.hpp"
#include "graph/dynamic.hpp"
#include "mat/csr.hpp"
#include "vgpu/device.hpp"

namespace acsr::core {

/// How the update kernel maps work to threads (section VII): the paper
/// assigns a warp per row with only lane 0 active, to avoid intra-warp
/// divergence; the thread-per-row alternative packs 32 rows per warp but
/// runs every warp at the pace of its slowest row. The ablation bench
/// compares them.
enum class UpdateKernelMode { kWarpPerRowLane0, kThreadPerRow };

template <class T>
class IncrementalCsr {
 public:
  struct UpdateResult {
    double h2d_s = 0.0;       // change-list transfer
    double kernel_s = 0.0;    // device update kernel
    double rebuild_s = 0.0;   // host rebuild + full re-upload (overflow)
    std::size_t overflowed_rows = 0;
  };

  /// `slack_factor`: per-row headroom; `spare_factor`: shared overflow
  /// heap at the end of the arrays that rows relocate into when they
  /// outgrow their slot (row_begin/row_end make placement free-form).
  IncrementalCsr(vgpu::Device& dev, const mat::Csr<T>& a,
                 double slack_factor = 0.5, double spare_factor = 0.10,
                 UpdateKernelMode mode = UpdateKernelMode::kWarpPerRowLane0)
      : dev_(dev),
        slack_factor_(slack_factor),
        spare_factor_(spare_factor),
        mode_(mode) {
    build(a);
  }

  mat::index_t rows() const { return rows_; }
  mat::index_t cols() const { return cols_; }
  mat::offset_t nnz() const {
    mat::offset_t n = 0;
    for (std::size_t r = 0; r < row_len_.size(); ++r) n += row_len_[r];
    return n;
  }

  std::size_t bytes() const {
    return begin_dev_.bytes() + end_dev_.bytes() + col_dev_.bytes() +
           val_dev_.bytes();
  }

  /// Row lengths for (re)binning after an update.
  const std::vector<mat::offset_t>& row_lengths() const { return row_len_; }

  /// Structure version: bumped by every apply_update (in-place merges,
  /// relocations and overflow rebuilds alike — any of them can change
  /// extents and therefore metering). No caller in src/ memoizes over it:
  /// the dynamic path (apps/dynamic_pagerank.hpp) launches outside any
  /// memo session. A raw vgpu::Memoizer owner can fold it into its tail
  /// key so a structural change misses by key drift (tests/test_memo.cpp).
  std::uint64_t version() const { return version_; }

  // Extent spans consumed by the ACSR kernels.
  vgpu::DeviceSpan<const mat::offset_t> row_begin() const {
    return begin_dev_.cspan();
  }
  vgpu::DeviceSpan<const mat::offset_t> row_end() const {
    return end_dev_.cspan();
  }
  vgpu::DeviceSpan<const mat::index_t> col_idx() const {
    return col_dev_.cspan();
  }
  vgpu::DeviceSpan<const T> vals() const { return val_dev_.cspan(); }

  /// Logical content as plain CSR (verification / host apply).
  mat::Csr<T> to_csr() const {
    mat::Csr<T> m;
    m.rows = rows_;
    m.cols = cols_;
    m.row_off.assign(static_cast<std::size_t>(rows_) + 1, 0);
    for (mat::index_t r = 0; r < rows_; ++r) {
      const auto rr = static_cast<std::size_t>(r);
      for (mat::offset_t i = row_begin_[rr]; i < row_begin_[rr] + row_len_[rr];
           ++i) {
        m.col_idx.push_back(col_dev_.host()[static_cast<std::size_t>(i)]);
        m.vals.push_back(val_dev_.host()[static_cast<std::size_t>(i)]);
      }
      m.row_off[rr + 1] = static_cast<mat::offset_t>(m.col_idx.size());
    }
    m.validate();
    return m;
  }

  /// Apply a change batch on the device. Only the change list crosses
  /// PCIe; the paper's one-warp-per-row / lane-0-only kernel applies it.
  UpdateResult apply_update(const graph::UpdateBatch<T>& batch) {
    UpdateResult res;
    ++version_;
    res.h2d_s = dev_.note_transfer(batch.bytes()).duration_s;

    // Overflow pre-pass: rows that might outgrow their slot (conservative:
    // listed deletes may not all match) are relocated into the spare heap
    // with a grown capacity. Only an exhausted heap forces the full
    // host-side rebuild.
    for (std::size_t i = 0; i < batch.rows.size(); ++i) {
      const auto r = static_cast<std::size_t>(batch.rows[i]);
      const mat::offset_t inss = batch.ins_off[i + 1] - batch.ins_off[i];
      const mat::offset_t need = row_len_[r] + inss;
      if (need <= row_cap_[r]) continue;
      ++res.overflowed_rows;
      const mat::offset_t new_cap =
          need + std::max<mat::offset_t>(
                     4, static_cast<mat::offset_t>(
                            slack_factor_ * static_cast<double>(need)));
      if (heap_cursor_ + new_cap > total_slots_) {
        res.rebuild_s = rebuild_with(batch);
        return res;
      }
      relocate_row(r, new_cap, res);
    }

    const long long n_upd = static_cast<long long>(batch.rows.size());
    if (n_upd == 0) return res;

    auto cols_span = col_dev_.span();
    auto vals_span = val_dev_.span();
    vgpu::KernelRun run;
    if (mode_ == UpdateKernelMode::kWarpPerRowLane0) {
      // The paper's kernel: one warp per updated row, lane 0 does the
      // merge (no intra-warp divergence, serialised accesses).
      vgpu::LaunchConfig cfg;
      cfg.name = "csr_update";
      cfg.block_dim = 128;  // 4 row-warps per block
      cfg.grid_dim = std::max<long long>(1, (n_upd + 3) / 4);
      run = dev_.launch_warps(cfg, [&](vgpu::Warp& w) {
        const long long i = w.global_warp();
        if (i >= n_upd) return;
        const auto work = merge_row(batch, static_cast<std::size_t>(i),
                                    cols_span, vals_span);
        w.count_serial_gmem(work.transactions);
        w.count_alu(static_cast<int>(std::min<std::uint64_t>(
            work.alu, 1u << 20)));
      });
    } else {
      // Thread-per-row: 32 updates per warp. Total traffic is identical,
      // but the warp issues at the pace of its *longest* row (divergence).
      vgpu::LaunchConfig cfg;
      cfg.name = "csr_update_divergent";
      cfg.block_dim = 128;
      cfg.grid_dim = std::max<long long>(1, (n_upd + 127) / 128);
      run = dev_.launch_warps(cfg, [&](vgpu::Warp& w) {
        const long long first = w.global_warp() * vgpu::kWarpSize;
        std::uint64_t transactions = 0, max_alu = 0;
        for (int l = 0; l < vgpu::kWarpSize; ++l) {
          const long long i = first + l;
          if (i >= n_upd) break;
          const auto work = merge_row(batch, static_cast<std::size_t>(i),
                                      cols_span, vals_span);
          transactions += work.transactions;
          max_alu = std::max(max_alu, work.alu);
        }
        if (transactions == 0) return;
        w.count_serial_gmem(transactions);
        // Every lane re-issues until the slowest finishes.
        w.count_alu(static_cast<int>(std::min<std::uint64_t>(
            max_alu * 2, 1u << 20)));
      });
    }
    res.kernel_s = run.duration_s;

    // Mirror the new lengths and end offsets host-side (the device wrote
    // end_dev_ in the kernel; row_len_ is the host-side scan mirror).
    for (std::size_t i = 0; i < batch.rows.size(); ++i) {
      const auto r = static_cast<std::size_t>(batch.rows[i]);
      row_len_[r] = end_dev_.host()[r] - row_begin_[r];
    }
    return res;
  }

 private:
  void build(const mat::Csr<T>& a) {
    rows_ = a.rows;
    cols_ = a.cols;
    const auto nrows = static_cast<std::size_t>(a.rows);
    row_begin_.assign(nrows, 0);
    row_len_.assign(nrows, 0);
    row_cap_.assign(nrows, 0);
    mat::offset_t total = 0;
    for (std::size_t r = 0; r < nrows; ++r) {
      const mat::offset_t n = a.row_nnz(static_cast<mat::index_t>(r));
      const auto slack = static_cast<mat::offset_t>(std::max(
          4.0, slack_factor_ * static_cast<double>(n)));
      row_begin_[r] = total;
      row_len_[r] = n;
      row_cap_[r] = n + slack;
      total += n + slack;
    }
    heap_cursor_ = total;
    total += std::max<mat::offset_t>(
        64, static_cast<mat::offset_t>(spare_factor_ *
                                       static_cast<double>(total)));
    total_slots_ = total;
    std::vector<mat::index_t> cols(static_cast<std::size_t>(total), 0);
    std::vector<T> vals(static_cast<std::size_t>(total), T{0});
    std::vector<mat::offset_t> ends(nrows, 0);
    for (std::size_t r = 0; r < nrows; ++r) {
      const mat::offset_t lo = a.row_off[r];
      for (mat::offset_t j = 0; j < row_len_[r]; ++j) {
        cols[static_cast<std::size_t>(row_begin_[r] + j)] =
            a.col_idx[static_cast<std::size_t>(lo + j)];
        vals[static_cast<std::size_t>(row_begin_[r] + j)] =
            a.vals[static_cast<std::size_t>(lo + j)];
      }
      ends[r] = row_begin_[r] + row_len_[r];
    }
    begin_dev_ = dev_.template alloc<mat::offset_t>(nrows, "inc.begin");
    begin_dev_.host() = row_begin_;
    end_dev_ = dev_.template alloc<mat::offset_t>(nrows, "inc.end");
    end_dev_.host() = ends;
    col_dev_ = dev_.template alloc<mat::index_t>(cols.size(), "inc.col");
    col_dev_.host() = std::move(cols);
    val_dev_ = dev_.template alloc<T>(vals.size(), "inc.val");
    val_dev_.host() = std::move(vals);
  }

  struct MergeWork {
    std::uint64_t transactions = 0;  // serialised scalar accesses
    std::uint64_t alu = 0;           // compare/branch instructions
  };

  /// Functional merge for one updated row: delete + compact, then sorted
  /// insert. Returns the work counts for the caller's cost charging
  /// (depends on the kernel mode).
  MergeWork merge_row(const graph::UpdateBatch<T>& batch, std::size_t i,
                      vgpu::DeviceSpan<mat::index_t> cols,
                      vgpu::DeviceSpan<T> vals) {
    const auto r = static_cast<std::size_t>(batch.rows[i]);
    const mat::offset_t base = row_begin_[r];
    const mat::offset_t len = row_len_[r];
    const auto d0 = static_cast<std::size_t>(batch.del_off[i]);
    const auto d1 = static_cast<std::size_t>(batch.del_off[i + 1]);
    const auto i0 = static_cast<std::size_t>(batch.ins_off[i]);
    const auto i1 = static_cast<std::size_t>(batch.ins_off[i + 1]);

    // Pass 1: delete & compact (read every entry, write survivors).
    mat::offset_t write = 0;
    std::size_t dc = d0;
    for (mat::offset_t j = 0; j < len; ++j) {
      const auto slot = static_cast<std::size_t>(base + j);
      const mat::index_t c = cols[slot];
      while (dc < d1 && batch.del_cols[dc] < c) ++dc;
      const bool deleted = dc < d1 && batch.del_cols[dc] == c;
      if (!deleted) {
        const auto wslot = static_cast<std::size_t>(base + write);
        cols[wslot] = c;
        vals[wslot] = vals[slot];
        ++write;
      }
    }
    MergeWork work;
    work.transactions += static_cast<std::uint64_t>(2 * len + 2 * write);
    work.alu += static_cast<std::uint64_t>(len) + (d1 - d0);

    // Pass 2: merge the sorted insert list, one backward pass over the
    // survivors. The result is what inserting each entry in turn, from the
    // last to the first, after every entry of its column already in the
    // row would leave: an insert lands after the survivors of its column,
    // and a run of equal inserts lands in reverse order.
    const auto n_ins = static_cast<mat::offset_t>(i1 - i0);
    const mat::offset_t new_len = write + n_ins;
    mat::offset_t src = write;  // survivors not yet placed: [0, src)
    mat::offset_t dst = new_len;
    for (std::size_t k = i1; k > i0;) {
      const mat::index_t c = batch.ins_cols[k - 1];
      while (src > 0 && cols[static_cast<std::size_t>(base + src - 1)] > c) {
        --src;
        --dst;
        cols[static_cast<std::size_t>(base + dst)] =
            cols[static_cast<std::size_t>(base + src)];
        vals[static_cast<std::size_t>(base + dst)] =
            vals[static_cast<std::size_t>(base + src)];
      }
      std::size_t run = k - 1;
      while (run > i0 && batch.ins_cols[run - 1] == c) --run;
      for (std::size_t j = run; j < k; ++j) {
        --dst;
        cols[static_cast<std::size_t>(base + dst)] = c;
        vals[static_cast<std::size_t>(base + dst)] = batch.ins_vals[j];
      }
      k = run;
    }
    work.transactions += static_cast<std::uint64_t>(
        4 * (i1 - i0) + 2 * (new_len - write));
    work.alu += (i1 - i0) + 2;

    end_dev_.host()[r] = base + new_len;
    work.transactions += 1;
    ACSR_CHECK_MSG(new_len <= row_cap_[r], "row " << r << " overflowed");
    return work;
  }

  /// Move row r into the spare heap with capacity new_cap. The copy runs
  /// on the device as part of the update kernel; its cost (a coalesced
  /// read + write of the row) is charged to the result's kernel time.
  void relocate_row(std::size_t r, mat::offset_t new_cap, UpdateResult& res) {
    const mat::offset_t old_base = row_begin_[r];
    const mat::offset_t new_base = heap_cursor_;
    auto& cols = col_dev_.host();
    auto& vals = val_dev_.host();
    for (mat::offset_t j = 0; j < row_len_[r]; ++j) {
      cols[static_cast<std::size_t>(new_base + j)] =
          cols[static_cast<std::size_t>(old_base + j)];
      vals[static_cast<std::size_t>(new_base + j)] =
          vals[static_cast<std::size_t>(old_base + j)];
    }
    row_begin_[r] = new_base;
    row_cap_[r] = new_cap;
    begin_dev_.host()[r] = new_base;
    end_dev_.host()[r] = new_base + row_len_[r];
    heap_cursor_ += new_cap;
    const double bytes = 2.0 * static_cast<double>(row_len_[r]) *
                         (sizeof(T) + sizeof(mat::index_t));
    res.kernel_s += bytes / (dev_.spec().dram_bandwidth_gbs * 1e9 *
                             dev_.spec().dram_efficiency);
  }

  /// Overflow path: rebuild the structure host-side from the updated
  /// logical matrix and re-upload everything.
  double rebuild_with(const graph::UpdateBatch<T>& batch) {
    mat::Csr<T> m = to_csr();
    graph::apply_update_host(m, batch);
    const std::size_t old_bytes = bytes();
    begin_dev_ = {};
    end_dev_ = {};
    col_dev_ = {};
    val_dev_ = {};
    (void)old_bytes;
    build(m);
    vgpu::HostModel hm;
    hm.charge_ops(4.0 * static_cast<double>(m.nnz()));
    return hm.seconds() + dev_.note_transfer(bytes()).duration_s;
  }

  vgpu::Device& dev_;
  std::uint64_t version_ = 0;
  double slack_factor_;
  double spare_factor_;
  UpdateKernelMode mode_;
  mat::offset_t heap_cursor_ = 0;
  mat::offset_t total_slots_ = 0;
  mat::index_t rows_ = 0;
  mat::index_t cols_ = 0;
  std::vector<mat::offset_t> row_begin_;
  std::vector<mat::offset_t> row_len_;
  std::vector<mat::offset_t> row_cap_;
  vgpu::DeviceBuffer<mat::offset_t> begin_dev_;
  vgpu::DeviceBuffer<mat::offset_t> end_dev_;
  vgpu::DeviceBuffer<mat::index_t> col_dev_;
  vgpu::DeviceBuffer<T> val_dev_;
};

}  // namespace acsr::core
