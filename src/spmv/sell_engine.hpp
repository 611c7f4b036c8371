// SELL-C-sigma engine (Kreutzer et al.) — the format that generalised the
// paper's era of sliced layouts: rows are sorted by length only within
// windows of sigma rows (bounding both the sort cost and the y-scatter
// distance), then packed into C-row slices stored column-major with
// slice-local width. With sigma = rows it degenerates to BRC's global
// sort; with sigma = C to SIC-like unsorted slices — this engine completes
// that family for the format-landscape comparisons.
#pragma once

#include <algorithm>
#include <numeric>

#include "analysis/shape.hpp"
#include "spmv/engine.hpp"
#include "vgpu/lane_array.hpp"

namespace acsr::spmv {

template <class T>
class SellEngine final : public EngineBase<T> {
 public:
  /// C is fixed to the warp size (the natural GPU choice); sigma must be a
  /// positive multiple of C.
  SellEngine(vgpu::Device& dev, const mat::Csr<T>& a, mat::index_t sigma = 256)
      : EngineBase<T>(dev, "SELL-32"), shape_(a), sigma_(sigma) {
    ACSR_REQUIRE(sigma >= kC && sigma % kC == 0,
                 "sigma must be a positive multiple of C = " << kC);
    vgpu::HostModel hm;
    build(a, hm);
    this->report_.preprocess_s = hm.seconds();
    upload();
  }

  mat::index_t rows() const override { return shape_.rows; }
  mat::index_t cols() const override { return shape_.cols; }
  mat::offset_t nnz() const override { return shape_.nnz; }
  mat::index_t sigma() const { return sigma_; }
  std::size_t num_slices() const { return slice_width_.size(); }

  /// The simulated kernel's value, bit for bit (sliced_rows).
  void apply(const std::vector<T>& x, std::vector<T>& y) const override {
    ACSR_CHECK(static_cast<mat::index_t>(x.size()) == shape_.cols);
    y.assign(static_cast<std::size_t>(shape_.rows), T{0});
    sliced_rows<T>(vgpu::host_span(slice_off_), vgpu::host_span(slice_width_),
                   vgpu::host_span(perm_), vgpu::host_span(slab_col_),
                   vgpu::host_span(slab_val_), vgpu::host_span(x),
                   vgpu::host_span(y));
  }

  double simulate(const std::vector<T>& x, std::vector<T>& y) override {
    ACSR_CHECK(static_cast<mat::index_t>(x.size()) == shape_.cols);
    auto x_dev = this->stage_x(x);
    auto y_dev = this->stage_y(static_cast<std::size_t>(shape_.rows));

    const long long n_slices = static_cast<long long>(slice_width_.size());
    vgpu::LaunchConfig cfg;
    cfg.name = "sell";
    cfg.block_dim = 128;
    cfg.grid_dim = std::max<long long>(1, (n_slices + 3) / 4);

    auto perm = perm_dev_.cspan();
    auto soff = soff_dev_.cspan();
    auto sw = sw_dev_.cspan();
    auto sc = scol_dev_.cspan();
    auto sv = sval_dev_.cspan();
    auto xs = x_dev;
    auto ys = y_dev;

    const vgpu::KernelRun run = this->dev_.launch_warps(
        cfg,
        [&](vgpu::Warp& w) {
          sliced_warp<T>(w, soff, sw, perm, sc, sv, xs, ys, false);
        },
        nullptr, [&] { sliced_rows<T>(soff, sw, perm, sc, sv, xs, ys); });
    this->report_.last_run = run;
    y = this->staged_y();
    return run.duration_s;
  }

 private:
  static constexpr int kC = 32;

  void build(const mat::Csr<T>& a, vgpu::HostModel& hm) {
    // Window-local sort: cheap (sigma log sigma per window) and keeps the
    // y scatter within sigma rows of home.
    perm_.resize(static_cast<std::size_t>(a.rows));
    std::iota(perm_.begin(), perm_.end(), 0);
    for (mat::index_t lo = 0; lo < a.rows; lo += sigma_) {
      const auto hi = std::min<mat::index_t>(lo + sigma_, a.rows);
      std::stable_sort(perm_.begin() + lo, perm_.begin() + hi,
                       [&](mat::index_t p, mat::index_t q) {
                         return a.row_nnz(p) > a.row_nnz(q);
                       });
      const double w = static_cast<double>(hi - lo);
      hm.charge_ops(w * std::max(1.0, std::log2(std::max(2.0, w))));
    }

    const std::size_t n_slices = (perm_.size() + kC - 1) / kC;
    slice_off_.resize(n_slices);
    slice_width_.resize(n_slices);
    mat::offset_t total = 0;
    for (std::size_t s = 0; s < n_slices; ++s) {
      mat::offset_t wmax = 0;
      for (std::size_t l = 0; l < kC; ++l) {
        const std::size_t pr = s * kC + l;
        if (pr < perm_.size()) wmax = std::max(wmax, a.row_nnz(perm_[pr]));
      }
      slice_off_[s] = total;
      slice_width_[s] = static_cast<mat::index_t>(wmax);
      total += wmax * kC;
    }
    slab_col_.assign(static_cast<std::size_t>(total), -1);
    slab_val_.assign(static_cast<std::size_t>(total), T{0});
    for (std::size_t s = 0; s < n_slices; ++s) {
      for (std::size_t l = 0; l < kC; ++l) {
        const std::size_t pr = s * kC + l;
        if (pr >= perm_.size()) break;
        const mat::index_t r = perm_[pr];
        const mat::offset_t lo = a.row_off[static_cast<std::size_t>(r)];
        const mat::offset_t n = a.row_nnz(r);
        for (mat::offset_t j = 0; j < n; ++j) {
          const auto slot = static_cast<std::size_t>(
              slice_off_[s] + j * kC + static_cast<mat::offset_t>(l));
          slab_col_[slot] = a.col_idx[static_cast<std::size_t>(lo + j)];
          slab_val_[slot] = a.vals[static_cast<std::size_t>(lo + j)];
        }
      }
    }
    hm.charge_ops(2.0 * static_cast<double>(total) +
                  2.0 * static_cast<double>(a.nnz()));
    this->report_.padding_ratio =
        total == 0 ? 0.0
                   : 1.0 - static_cast<double>(a.nnz()) /
                               static_cast<double>(total);
  }

  void upload() {
    perm_dev_ = this->dev_.template alloc<mat::index_t>(perm_.size(),
                                                        "sell.perm");
    perm_dev_.host() = perm_;
    soff_dev_ = this->dev_.template alloc<mat::offset_t>(slice_off_.size(),
                                                         "sell.soff");
    soff_dev_.host() = slice_off_;
    sw_dev_ = this->dev_.template alloc<mat::index_t>(slice_width_.size(),
                                                      "sell.swidth");
    sw_dev_.host() = slice_width_;
    scol_dev_ = this->dev_.template alloc<mat::index_t>(slab_col_.size(),
                                                        "sell.col");
    scol_dev_.host() = slab_col_;
    sval_dev_ = this->dev_.template alloc<T>(slab_val_.size(), "sell.val");
    sval_dev_.host() = slab_val_;
    const std::size_t b = perm_dev_.bytes() + soff_dev_.bytes() +
                          sw_dev_.bytes() + scol_dev_.bytes() +
                          sval_dev_.bytes();
    this->charge_upload(b);
    this->report_.device_bytes = b;
  }

  MatShape shape_;
  mat::index_t sigma_;
  std::vector<mat::index_t> perm_;
  std::vector<mat::offset_t> slice_off_;
  std::vector<mat::index_t> slice_width_;
  std::vector<mat::index_t> slab_col_;
  std::vector<T> slab_val_;

  vgpu::DeviceBuffer<mat::index_t> perm_dev_;
  vgpu::DeviceBuffer<mat::offset_t> soff_dev_;
  vgpu::DeviceBuffer<mat::index_t> sw_dev_;
  vgpu::DeviceBuffer<mat::index_t> scol_dev_;
  vgpu::DeviceBuffer<T> sval_dev_;
};

/// Shape class of the SELL-C-sigma kernel: structurally BRC's (window-
/// local instead of global sort changes the *values* of the permutation,
/// not its injectivity, and the slice decomposition slab_base +
/// 32*slice_w + slab_rest is the same strip-in-slab invariant).
inline analysis::ShapeClass sell_shape_class() {
  namespace an = acsr::analysis;
  const an::Sym n_rows = an::Sym::param("n_rows");
  const an::Sym n_cols = an::Sym::param("n_cols");
  const an::Sym n_slices = an::Sym::param("n_slices");
  const an::Sym slab_base = an::Sym::param("slab_base");
  const an::Sym slice_w = an::Sym::param("slice_w");
  const an::Sym slab_rest = an::Sym::param("slab_rest");
  const an::Sym slab = slab_base + an::Sym(32) * slice_w + slab_rest;
  an::ShapeClass sc;
  sc.engine = "sell";
  sc.params = {an::param("n_rows", 0, "matrix rows"),
               an::param("n_cols", 0, "matrix columns"),
               an::param("n_slices", 0, "32-row slices"),
               an::param("slab_base", 0, "generic slice's slab offset"),
               an::param("slice_w", 0, "generic slice's width"),
               an::param("slab_rest", 0, "slab slots after the strip"),
               an::param("grid", 1, "launch grid dim")};
  sc.spans = {
      an::index_span("sell.perm", n_rows,
                     {an::Sym(0), n_rows - an::Sym(1)},
                     "row permutation (window-local sort)", false, true),
      an::data_span("sell.soff", n_slices, "per-slice slab offsets"),
      an::data_span("sell.swidth", n_slices, "per-slice widths"),
      an::index_span("sell.col", slab, {an::Sym(-1), n_cols - an::Sym(1)},
                     "slab columns (-1 = padding)"),
      an::data_span("sell.val", slab, "slab values"),
      an::data_span("x", n_cols, "input vector"),
      an::data_span("y", n_rows, "output vector", /*initialized=*/false),
  };
  return sc;
}

}  // namespace acsr::spmv
