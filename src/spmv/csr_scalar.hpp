// CSR-scalar: one thread per row (the naive CSR kernel the paper uses as
// the "straightforward SpMV for CSR" baseline). Suffers warp divergence —
// a warp runs for the *longest* of its 32 rows — and uncoalesced access to
// the matrix arrays, both of which the simulator observes directly.
#pragma once

#include <algorithm>
#include <array>
#include <vector>

#include "analysis/shape.hpp"
#include "spmv/csr_device.hpp"
#include "spmv/csr_vector.hpp"
#include "spmv/engine.hpp"
#include "vgpu/lane_array.hpp"

namespace acsr::spmv {

using vgpu::LaneArray;
using vgpu::Mask;

/// Warp body shared with tests: processes 32 consecutive rows.
/// `row_start`/`row_end` are per-row extent arrays — for plain CSR these
/// are row_off.subspan(0, rows) and row_off.subspan(1, rows); the
/// incremental (slack-padded) CSR passes its explicit begin/end arrays.
template <class T>
void csr_scalar_warp(vgpu::Warp& w,
                     vgpu::DeviceSpan<const mat::offset_t> row_start,
                     vgpu::DeviceSpan<const mat::offset_t> row_end,
                     vgpu::DeviceSpan<const mat::index_t> col_idx,
                     vgpu::DeviceSpan<const T> vals,
                     vgpu::DeviceSpan<const T> x, vgpu::DeviceSpan<T> y,
                     mat::index_t n_rows) {
  const LaneArray<long long> rows = w.global_threads();
  const Mask live =
      rows.where([n_rows](long long r) { return r < n_rows; },
                 w.active_mask());
  if (live == 0) return;

  // Consecutive rows per lane: unit-stride extents load.
  const LaneArray<mat::offset_t> start = w.load_seq(row_start, rows[0], live);
  const LaneArray<mat::offset_t> end = w.load_seq(row_end, rows[0], live);
  w.count_alu(2);  // pointer math

  // Each lane walks its row cursor start..end; a lane drops out of the
  // mask permanently once its row is exhausted, so the mask is maintained
  // incrementally and the tail iterations (the straggler rows a divergent
  // warp waits on) cost work proportional to the lanes still live.
  LaneArray<T> sum{};
  LaneArray<mat::offset_t> cur = start;
  Mask m = 0;
  for (Mask rem = live; rem != 0; rem &= rem - 1) {
    const int l = std::countr_zero(rem);
    if (cur[l] < end[l]) m |= vgpu::lane_bit(l);
  }
  // Reused across steps: load_pair zeroes the lanes outside m itself.
  LaneArray<mat::index_t> col;
  LaneArray<T> val;
  while (m != 0) {
    w.load_pair(col_idx, vals, cur, m, col, val);
    const LaneArray<T> xv = w.load_tex(x, col, m);
    vgpu::fma_into(sum, val, xv, m);
    w.count_flops(m, 2, sizeof(T) == 8);  // FMA = 2 flops
    w.count_alu(2);                       // loop compare + increment
    Mask next = 0;
    if (m == vgpu::kFullMask) {  // plain loop: no serial bit-scan chain
      for (int l = 0; l < vgpu::kWarpSize; ++l)
        if (++cur[l] < end[l]) next |= vgpu::lane_bit(l);
    } else {
      for (Mask rem = m; rem != 0; rem &= rem - 1) {
        const int l = std::countr_zero(rem);
        if (++cur[l] < end[l]) next |= vgpu::lane_bit(l);
      }
    }
    m = next;
  }
  w.store_seq(y, rows[0], sum, live);
}

/// Column-blocked SpMM body (one warp = 32 consecutive rows, looping over
/// the column tiles of the vector block). For each tile of kSpmmTile
/// columns the warp re-walks its rows' entries, loading col/val once per
/// step and fanning the FMA out over the tile columns. Because the same
/// warp performs every re-walk, the matrix sectors stay hot in its sector
/// cache after the first tile — the batch pays the A traffic once, not
/// once per tile, which is the whole point of column blocking. The tile
/// bound (kSpmmTile accumulators) keeps register pressure flat no matter
/// how wide the batch is. Per column the accumulation order over j is
/// identical to csr_scalar_warp, so each output column is bit-identical
/// to the scalar kernel's result. xp is the packed row-major x slab
/// (xp[col*k + c], see EngineBase::stage_x_pack) — a tile's k gathers for
/// one matrix column share texture sectors instead of each pulling their
/// own; yb is the column-major output block with leading dimension ldy.
template <class T>
void csr_scalar_spmm_warp(vgpu::Warp& w,
                          vgpu::DeviceSpan<const mat::offset_t> row_start,
                          vgpu::DeviceSpan<const mat::offset_t> row_end,
                          vgpu::DeviceSpan<const mat::index_t> col_idx,
                          vgpu::DeviceSpan<const T> vals,
                          vgpu::DeviceSpan<const T> xp, vgpu::DeviceSpan<T> yb,
                          long long ldy, mat::index_t n_rows, int k) {
  const LaneArray<long long> rows = w.global_threads();
  const long long row0 = rows[0];
  const Mask live =
      rows.where([n_rows](long long r) { return r < n_rows; },
                 w.active_mask());
  if (live == 0) return;

  const LaneArray<mat::offset_t> start = w.load_seq(row_start, row0, live);
  const LaneArray<mat::offset_t> end = w.load_seq(row_end, row0, live);
  w.count_alu(2);

  for (int c_begin = 0; c_begin < k; c_begin += kSpmmTile) {
    const int kt = std::min(k, c_begin + kSpmmTile) - c_begin;
    w.count_alu(1);  // tile bookkeeping

    // Per-column views of the output block: column c is yb[c*ldy .. +n_rows).
    std::array<vgpu::DeviceSpan<T>, kSpmmTile> ycol;
    for (int c = 0; c < kt; ++c) {
      const auto gc = static_cast<std::size_t>(c_begin + c);
      ycol[static_cast<std::size_t>(c)] =
          yb.subspan(gc * static_cast<std::size_t>(ldy),
                     static_cast<std::size_t>(n_rows));
    }

    vgpu::LaneTile<T> sums;
    vgpu::LaneTile<T> xt;
    LaneArray<mat::offset_t> cur = start;
    Mask m = 0;
    for (Mask rem = live; rem != 0; rem &= rem - 1) {
      const int l = std::countr_zero(rem);
      if (cur[l] < end[l]) m |= vgpu::lane_bit(l);
    }
    LaneArray<mat::index_t> col;  // load_pair zeroes lanes outside m
    LaneArray<T> val;
    while (m != 0) {
      // A sectors: DRAM on the first tile, warp sector cache afterwards.
      w.load_pair(col_idx, vals, cur, m, col, val);
      // Packed vector gather: lane l fetches xp[col*k + c_begin .. +kt-1]
      // in one short-vector fetch, so the tile's kt values per matrix
      // column are charged per contiguous sector, not per element.
      load_x_tile(w, xp, col, k, c_begin, kt, m, /*use_tex=*/true, xt);
      vgpu::fma_into(sums, val, xt, kt, m);
      w.count_flops(m, 2 * kt, sizeof(T) == 8);
      w.count_alu(2);  // loop compare + increment
      Mask next = 0;
      if (m == vgpu::kFullMask) {
        for (int l = 0; l < vgpu::kWarpSize; ++l)
          if (++cur[l] < end[l]) next |= vgpu::lane_bit(l);
      } else {
        for (Mask rem = m; rem != 0; rem &= rem - 1) {
          const int l = std::countr_zero(rem);
          if (++cur[l] < end[l]) next |= vgpu::lane_bit(l);
        }
      }
      m = next;
    }
    for (int c = 0; c < kt; ++c)
      w.store_seq(ycol[static_cast<std::size_t>(c)], row0, sums.column(c),
                  live);
  }
}

template <class T>
class CsrScalarEngine final : public EngineBase<T> {
 public:
  CsrScalarEngine(vgpu::Device& dev, const mat::Csr<T>& a)
      : EngineBase<T>(dev, "CSR-scalar"), host_(a) {
    // No transform: CSR ships as-is.
    dev_csr_ = CsrDevice<T>::upload(dev, a, this->name());
    this->charge_upload(dev_csr_.bytes());
    this->report_.device_bytes = dev_csr_.bytes();
  }

  mat::index_t rows() const override { return host_.rows; }
  mat::index_t cols() const override { return host_.cols; }
  mat::offset_t nnz() const override { return host_.nnz(); }

  /// The simulated kernel's value, bit for bit: lane r's walk sums row
  /// r's entries in order, which is csr_vector_rows at V = 1.
  void apply(const std::vector<T>& x, std::vector<T>& y) const override {
    ACSR_CHECK(static_cast<mat::index_t>(x.size()) == host_.cols);
    const auto nrows = static_cast<std::size_t>(host_.rows);
    y.assign(nrows, T{0});
    csr_vector_rows<T>(1, vgpu::host_span(host_.row_off, 0, nrows),
                       vgpu::host_span(host_.row_off, 1, nrows),
                       vgpu::host_span(host_.col_idx),
                       vgpu::host_span(host_.vals),
                       vgpu::DeviceSpan<const mat::index_t>(), host_.rows,
                       x_reader(vgpu::host_span(x)), vgpu::host_span(y));
  }

  double simulate(const std::vector<T>& x, std::vector<T>& y) override {
    ACSR_CHECK(static_cast<mat::index_t>(x.size()) == host_.cols);
    auto x_dev = this->stage_x(x);
    auto y_dev = this->stage_y(static_cast<std::size_t>(host_.rows));

    const int block = 128;
    vgpu::LaunchConfig cfg;
    cfg.name = "csr_scalar";
    cfg.block_dim = block;
    cfg.grid_dim = std::max<long long>(1, (host_.rows + block - 1) / block);
    cfg.blocks_independent = true;  // one storing thread per row
    const auto nrows = static_cast<std::size_t>(host_.rows);
    auto rs = dev_csr_.row_off.cspan().subspan(0, nrows);
    auto re = dev_csr_.row_off.cspan().subspan(1, nrows);
    auto ci = dev_csr_.col_idx.cspan();
    auto va = dev_csr_.vals.cspan();
    auto xs = x_dev;
    auto ys = y_dev;
    const mat::index_t n = host_.rows;
    const vgpu::DeviceSpan<const mat::index_t> no_map;
    const vgpu::KernelRun run = this->dev_.launch_warps(
        cfg,
        [&](vgpu::Warp& w) {
          csr_scalar_warp<T>(w, rs, re, ci, va, xs, ys, n);
        },
        nullptr,
        [&] {
          csr_vector_rows<T>(1, rs, re, ci, va, no_map, n, x_reader(xs), ys);
        });
    this->report_.last_run = run;
    y = this->staged_y();
    return run.duration_s;
  }

  /// Real column-blocked SpMM: the scalar kernel's grid, each warp
  /// looping over the column tiles with its matrix sectors kept hot in
  /// its sector cache. Width 0 never launches; width 1 is the scalar SpMV
  /// path (same launch sequence, so memo keys stay compatible).
  double simulate_batch(const mat::DenseBlock<T>& x_block,
                        mat::DenseBlock<T>& y_block) override {
    ACSR_CHECK(x_block.rows == host_.cols);
    if (x_block.width == 0) {
      y_block.resize(host_.rows, 0);
      return 0.0;
    }
    if (x_block.width == 1) return this->simulate_batch_loop(x_block, y_block);

    const int k = x_block.width;
    const long long ldy = mat::DenseBlock<T>::padded_ld(host_.rows);
    auto xp = this->stage_x_pack(x_block);
    auto yb = this->stage_y_block(
        static_cast<std::size_t>(ldy) * static_cast<std::size_t>(k), k);

    const int block = 128;
    vgpu::LaunchConfig cfg;
    cfg.name = "csr_scalar_spmm";
    cfg.block_dim = block;
    cfg.grid_dim = std::max<long long>(1, (host_.rows + block - 1) / block);
    cfg.blocks_independent = true;  // one storing thread per row
    const auto nrows = static_cast<std::size_t>(host_.rows);
    auto rs = dev_csr_.row_off.cspan().subspan(0, nrows);
    auto re = dev_csr_.row_off.cspan().subspan(1, nrows);
    auto ci = dev_csr_.col_idx.cspan();
    auto va = dev_csr_.vals.cspan();
    const mat::index_t n = host_.rows;
    const vgpu::DeviceSpan<const mat::index_t> no_map;
    const vgpu::KernelRun run = this->dev_.launch_warps(
        cfg,
        [&](vgpu::Warp& w) {
          csr_scalar_spmm_warp<T>(w, rs, re, ci, va, xp, yb, ldy, n, k);
        },
        nullptr,
        [&] {
          csr_vector_rows_batch<T>(1, rs, re, ci, va, no_map, n, xp, k, yb,
                                   ldy, n);
        });
    this->report_.last_run = run;
    y_block.resize(host_.rows, k);
    y_block.data = this->staged_y_block(k);
    return run.duration_s;
  }

 private:
  mat::Csr<T> host_;
  CsrDevice<T> dev_csr_;
};

/// Shape class of csr_scalar_warp's inputs (static verifier contract, see
/// docs/ANALYSIS.md): a well-formed CSR matrix. The extents arrays are the
/// two length-n_rows windows of the monotone row-pointer array, so every
/// row's [start, end) cursor range lies inside [0, nnz].
inline analysis::ShapeClass csr_scalar_shape_class() {
  namespace an = acsr::analysis;
  const an::Sym n_rows = an::Sym::param("n_rows");
  const an::Sym n_cols = an::Sym::param("n_cols");
  const an::Sym nnz = an::Sym::param("nnz");
  const an::Sym k = an::Sym::param("k");
  const an::Sym ldy_pad = an::Sym::param("ldy_pad");
  an::ShapeClass sc;
  sc.engine = "csr-scalar";
  sc.params = {an::param("n_rows", 0, "matrix rows"),
               an::param("n_cols", 0, "matrix columns"),
               an::param("nnz", 0, "stored non-zeros"),
               an::param("grid", 1, "launch grid dim"),
               // Batched SpMM operands. k >= 1 is an engine guarantee:
               // simulate_batch returns before any launch on a 0-column
               // DenseBlock, so the kernels never see an empty block (the
               // empty-batch no-op the verifier proves by this bound).
               an::param("k", 1, "batch width (0-column blocks never launch)"),
               an::param("ldy_pad", 0, "y-block row padding (ldy - n_rows)")};
  sc.spans = {
      an::index_span("row_start", n_rows, {an::Sym(0), nnz},
                     "per-row begin offsets (row_off[0..rows))", true),
      an::index_span("row_end", n_rows, {an::Sym(0), nnz},
                     "per-row end offsets (row_off[1..rows])", true),
      an::index_span("col_idx", nnz, {an::Sym(0), n_cols - an::Sym(1)},
                     "column indices"),
      an::data_span("vals", nnz, "non-zero values"),
      an::data_span("x", n_cols, "input vector"),
      an::data_span("y", n_rows, "output vector", /*initialized=*/false),
      an::data_span("xpack", n_cols * k,
                    "packed row-major x slab (xpack[col*k + c])"),
      an::data_span("yb", (n_rows + ldy_pad) * k,
                    "column-major y block, leading dim n_rows + ldy_pad",
                    /*initialized=*/false),
  };
  return sc;
}

}  // namespace acsr::spmv
