// TCOO-style engine (Yang et al. [28]: tiled COO for graph mining).
// Columns are partitioned into contiguous tiles so the x slice a kernel
// touches fits in the read-only cache; each tile's entries run through the
// segmented-COO kernel. The tile count is the algorithm's input parameter,
// found — as in the paper — by exhaustive search: every candidate requires
// a full re-partition and trial runs, which is the preprocessing cost
// Table III / Fig. 4 charges TCOO for.
#pragma once

#include <algorithm>

#include "analysis/shape.hpp"
#include "spmv/coo_engine.hpp"
#include "spmv/engine.hpp"

namespace acsr::spmv {

template <class T>
class TcooEngine final : public EngineBase<T> {
 public:
  /// trial_reps: timing repetitions per tuning candidate (the tuner's own
  /// measurement loop; the paper used 50-run averages).
  TcooEngine(vgpu::Device& dev, const mat::Csr<T>& a, int trial_reps = 40)
      : EngineBase<T>(dev, "TCOO"), shape_(a) {
    vgpu::HostModel hm;
    tune(a, hm, trial_reps);
    this->report_.preprocess_s = hm.seconds();
    upload();
  }

  mat::index_t rows() const override { return shape_.rows; }
  mat::index_t cols() const override { return shape_.cols; }
  mat::offset_t nnz() const override { return shape_.nnz; }
  int num_tiles() const { return n_tiles_; }

  /// The simulated kernels' value, bit for bit: the tiles in launch
  /// order, each through tile_values.
  void apply(const std::vector<T>& x, std::vector<T>& y) const override {
    ACSR_CHECK(static_cast<mat::index_t>(x.size()) == shape_.cols);
    y.assign(static_cast<std::size_t>(shape_.rows), T{0});
    for (int t = 0; t < n_tiles_; ++t) {
      const Tile g = tile(t, x.size());
      if (g.n == 0) continue;
      tile_values(g.n, vgpu::host_span(row_, g.lo, g.n),
                  vgpu::host_span(col_, g.lo, g.n),
                  vgpu::host_span(val_, g.lo, g.n),
                  vgpu::host_span(x, g.xlo, g.xw), g.col_base(),
                  vgpu::host_span(y));
    }
  }

  double simulate(const std::vector<T>& x, std::vector<T>& y) override {
    ACSR_CHECK(static_cast<mat::index_t>(x.size()) == shape_.cols);
    auto x_dev = this->stage_x(x);
    auto y_dev = this->stage_y(static_cast<std::size_t>(shape_.rows));
    const double t = run_tiles(row_dev_.cspan(), col_dev_.cspan(),
                               val_dev_.cspan(), x_dev,
                               y_dev);
    y = this->staged_y();
    return t;
  }

 private:
  /// Tile t's launch operands: its n entries from entry lo on, and its
  /// x slice, xw columns from column xlo on.
  struct Tile {
    std::size_t lo = 0, n = 0, xlo = 0, xw = 0;
    mat::index_t col_base() const { return static_cast<mat::index_t>(xlo); }
  };
  Tile tile(int t, std::size_t x_size) const {
    const auto tile_w = static_cast<std::size_t>(
        (shape_.cols + static_cast<mat::index_t>(n_tiles_) - 1) /
        static_cast<mat::index_t>(n_tiles_));
    Tile g;
    g.lo = static_cast<std::size_t>(tile_off_[static_cast<std::size_t>(t)]);
    g.n = static_cast<std::size_t>(
              tile_off_[static_cast<std::size_t>(t) + 1]) - g.lo;
    g.xlo = static_cast<std::size_t>(t) * tile_w;
    g.xw = g.n == 0 ? 0 : std::min(tile_w, x_size - g.xlo);
    return g;
  }

  /// Value kernel of one tile launch: its entries through
  /// coo_segmented_values, columns rebased into the tile's x slice.
  static void tile_values(long long n,
                          vgpu::DeviceSpan<const mat::index_t> rows_s,
                          vgpu::DeviceSpan<const mat::index_t> cols_s,
                          vgpu::DeviceSpan<const T> vals_s,
                          vgpu::DeviceSpan<const T> x_tile,
                          mat::index_t col_base, vgpu::DeviceSpan<T> y) {
    coo_segmented_values(
        rows_s, cols_s, vals_s, n,
        [x_tile, col_base](mat::index_t c) {
          return x_tile[static_cast<std::size_t>(c - col_base)];
        },
        y);
  }

  /// Run the per-tile kernels sequentially; x accesses within a tile have
  /// a footprint of one tile width, which the texture-cache model rewards.
  double run_tiles(vgpu::DeviceSpan<const mat::index_t> rows_s,
                   vgpu::DeviceSpan<const mat::index_t> cols_s,
                   vgpu::DeviceSpan<const T> vals_s,
                   vgpu::DeviceSpan<const T> x, vgpu::DeviceSpan<T> y) {
    std::vector<vgpu::KernelRun> runs;
    runs.push_back(zero_fill(this->dev_, y));  // tiles accumulate into y
    for (int t = 0; t < n_tiles_; ++t) {
      const Tile g = tile(t, x.size());
      if (g.n == 0) continue;
      const auto n = static_cast<long long>(g.n);
      vgpu::LaunchConfig cfg;
      cfg.name = "tcoo_tile";
      cfg.block_dim = 128;
      cfg.grid_dim = std::max<long long>(1, (n + 127) / 128);
      // The tile's x slice: what the read-only cache actually holds.
      auto x_tile = x.subspan(g.xlo, g.xw);
      auto rs = rows_s.subspan(g.lo, g.n);
      auto cs = cols_s.subspan(g.lo, g.n);
      auto vs = vals_s.subspan(g.lo, g.n);
      const mat::index_t col_base = g.col_base();
      runs.push_back(this->dev_.launch_warps(
          cfg,
          [&](vgpu::Warp& w) {
            const long long base = w.global_warp() * vgpu::kWarpSize;
            if (base >= n) return;
            // Entries' columns are rebased into the tile slice.
            coo_segmented_warp<T>(w, rs, cs, vs, x_tile, y, n, base,
                                  col_base);
          },
          nullptr,
          [&] { tile_values(n, rs, cs, vs, x_tile, col_base, y); }));
    }
    vgpu::KernelRun agg =
        runs.empty() ? vgpu::KernelRun{} : runs.front();
    for (std::size_t i = 1; i < runs.size(); ++i) {
      agg.counters += runs[i].counters;
      agg.duration_s += runs[i].duration_s;
    }
    agg.name = "tcoo";
    this->report_.last_run = agg;
    return vgpu::combine_sequential(runs);
  }

  void partition(const mat::Csr<T>& a, int n_tiles, vgpu::HostModel& hm) {
    n_tiles_ = n_tiles;
    const mat::index_t tile_w =
        (a.cols + static_cast<mat::index_t>(n_tiles) - 1) /
        static_cast<mat::index_t>(n_tiles);
    const auto nnz = static_cast<std::size_t>(a.nnz());
    row_.clear();
    col_.clear();
    val_.clear();
    row_.reserve(nnz);
    col_.reserve(nnz);
    val_.reserve(nnz);
    tile_off_.assign(static_cast<std::size_t>(n_tiles) + 1, 0);
    // Bucket entries by tile (counting pass + scatter pass), row order
    // preserved inside a tile because rows are scanned in order.
    std::vector<long long> count(static_cast<std::size_t>(n_tiles), 0);
    for (mat::index_t c : a.col_idx)
      ++count[static_cast<std::size_t>(c / tile_w)];
    for (int t = 0; t < n_tiles; ++t)
      tile_off_[static_cast<std::size_t>(t) + 1] =
          tile_off_[static_cast<std::size_t>(t)] +
          count[static_cast<std::size_t>(t)];
    row_.resize(nnz);
    col_.resize(nnz);
    val_.resize(nnz);
    std::vector<long long> cur(tile_off_.begin(), tile_off_.end() - 1);
    for (mat::index_t r = 0; r < a.rows; ++r)
      for (mat::offset_t i = a.row_off[static_cast<std::size_t>(r)];
           i < a.row_off[static_cast<std::size_t>(r) + 1]; ++i) {
        const mat::index_t c = a.col_idx[static_cast<std::size_t>(i)];
        const auto t = static_cast<std::size_t>(c / tile_w);
        const auto wpos = static_cast<std::size_t>(cur[t]++);
        row_[wpos] = r;
        col_[wpos] = c;
        val_[wpos] = a.vals[static_cast<std::size_t>(i)];
      }
    hm.charge_ops(4.0 * static_cast<double>(nnz));
  }

  void tune(const mat::Csr<T>& a, vgpu::HostModel& hm, int trial_reps) {
    static constexpr int kCandidates[] = {1, 2, 3, 4, 6, 8, 12, 16, 24, 32,
                                          48, 64};
    double best_t = -1.0;
    int best_tiles = 1;
    std::vector<T> x(static_cast<std::size_t>(a.cols), T{1});
    for (int cand : kCandidates) {
      if (cand > a.cols) break;
      partition(a, cand, hm);
      // Trial upload + timed runs, all charged to preprocessing.
      auto rd = this->dev_.template alloc<mat::index_t>(row_.size(), "t.r");
      rd.host() = row_;
      auto cd = this->dev_.template alloc<mat::index_t>(col_.size(), "t.c");
      cd.host() = col_;
      auto vd = this->dev_.template alloc<T>(val_.size(), "t.v");
      vd.host() = val_;
      hm.charge_seconds(
          this->dev_
              .note_transfer(rd.bytes() + cd.bytes() + vd.bytes())
              .duration_s);
      auto xd = this->dev_.template alloc<T>(x.size(), "t.x");
      xd.host() = x;
      auto yd = this->dev_.template alloc<T>(
          static_cast<std::size_t>(a.rows), "t.y");
      const double t1 =
          run_tiles(rd.cspan(), cd.cspan(), vd.cspan(), xd.cspan(),
                    yd.span());
      hm.charge_seconds(t1 * static_cast<double>(trial_reps));
      if (best_t < 0.0 || t1 < best_t) {
        best_t = t1;
        best_tiles = cand;
      }
    }
    partition(a, best_tiles, hm);  // final layout
  }

  void upload() {
    row_dev_ = this->dev_.template alloc<mat::index_t>(row_.size(),
                                                       "tcoo.row");
    row_dev_.host() = row_;
    col_dev_ = this->dev_.template alloc<mat::index_t>(col_.size(),
                                                       "tcoo.col");
    col_dev_.host() = col_;
    val_dev_ = this->dev_.template alloc<T>(val_.size(), "tcoo.val");
    val_dev_.host() = val_;
    auto offs = this->dev_.template alloc<long long>(tile_off_.size(),
                                                     "tcoo.off");
    offs.host() = tile_off_;
    const std::size_t b = row_dev_.bytes() + col_dev_.bytes() +
                          val_dev_.bytes() + offs.bytes();
    off_dev_ = std::move(offs);
    this->charge_upload(b);
    this->report_.device_bytes = b;
  }

  MatShape shape_;
  int n_tiles_ = 1;
  std::vector<long long> tile_off_;
  std::vector<mat::index_t> row_;
  std::vector<mat::index_t> col_;
  std::vector<T> val_;
  vgpu::DeviceBuffer<mat::index_t> row_dev_;
  vgpu::DeviceBuffer<mat::index_t> col_dev_;
  vgpu::DeviceBuffer<T> val_dev_;
  vgpu::DeviceBuffer<long long> off_dev_;
};

/// Shape class of one generic TCOO tile launch: the tile's entries (a
/// contiguous bucket of tile_n non-zeros), its x slice of xw elements
/// starting at column col_base, and the partition invariant that every
/// entry's column lies in [col_base, col_base + xw - 1] — so the rebased
/// column c - col_base indexes the slice in bounds. The per-SpMV launch
/// sequence (zero-fill, then one such launch per tile accumulating with
/// atomics) is safe for any tile count because the proof is per generic
/// tile.
inline analysis::ShapeClass tcoo_shape_class() {
  namespace an = acsr::analysis;
  const an::Sym n_rows = an::Sym::param("n_rows");
  const an::Sym tile_n = an::Sym::param("tile_n");
  const an::Sym xw = an::Sym::param("xw");
  const an::Sym col_base = an::Sym::param("col_base");
  an::ShapeClass sc;
  sc.engine = "tcoo";
  sc.params = {an::param("n_rows", 0, "matrix rows"),
               an::param("tile_n", 0, "entries in the generic tile"),
               an::param("xw", 0, "tile's x-slice width"),
               an::param("col_base", 0, "tile's first column"),
               an::param("grid", 1, "launch grid dim")};
  sc.spans = {
      an::index_span("tcoo.row", tile_n, {an::Sym(0), n_rows - an::Sym(1)},
                     "tile row ids, sorted non-decreasing", true),
      an::index_span("tcoo.col", tile_n,
                     {col_base, col_base + xw - an::Sym(1)},
                     "tile columns (partition invariant)"),
      an::data_span("tcoo.val", tile_n, "tile values"),
      an::data_span("x_tile", xw, "x slice for this tile"),
      an::data_span("y", n_rows, "output vector", /*initialized=*/false),
  };
  return sc;
}

}  // namespace acsr::spmv
