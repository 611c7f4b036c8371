// ELL SpMV: one thread per row marching across the padded slab. Fully
// coalesced (column-major layout) but pays bandwidth for every padding
// slot — the trade the paper's HYB discussion is about.
#pragma once

#include <algorithm>

#include "analysis/shape.hpp"
#include "mat/ell.hpp"
#include "spmv/engine.hpp"
#include "vgpu/lane_array.hpp"

namespace acsr::spmv {

/// Warp body over 32 consecutive rows of an ELL slab. `accumulate` keeps
/// prior y contents (used by HYB where the COO tail adds on top).
template <class T>
void ell_warp(vgpu::Warp& w, vgpu::DeviceSpan<const mat::index_t> col_idx,
              vgpu::DeviceSpan<const T> vals, vgpu::DeviceSpan<const T> x,
              vgpu::DeviceSpan<T> y, mat::index_t n_rows, mat::index_t width) {
  using vgpu::LaneArray;
  using vgpu::Mask;

  const LaneArray<long long> rows = w.global_threads();
  const Mask live = rows.where(
      [n_rows](long long r) { return r < n_rows; }, w.active_mask());
  if (live == 0) return;

  LaneArray<T> sum{};
  for (mat::index_t j = 0; j < width; ++j) {
    // Column-major slab: lane l reads slot j*n_rows + rows[l], i.e. a
    // unit-stride run starting at this warp's first row.
    const long long slot0 = static_cast<long long>(j) * n_rows + rows[0];
    // The slab is loaded unconditionally — padding costs bandwidth.
    const LaneArray<mat::index_t> col = w.load_seq(col_idx, slot0, live);
    const LaneArray<T> val = w.load_seq(vals, slot0, live);
    Mask valid = 0;
    for (int l = 0; l < vgpu::kWarpSize; ++l)
      if (vgpu::lane_active(live, l) && col[l] != mat::Ell<T>::kPad)
        valid |= vgpu::lane_bit(l);
    w.count_alu(2);
    if (valid != 0) {
      const LaneArray<T> xv = w.load_tex(x, col, valid);
      vgpu::fma_into(sum, val, xv, valid);
      w.count_flops(valid, 2, sizeof(T) == 8);
    }
  }
  w.store_seq(y, rows[0], sum, live);
}

/// Value kernel of an ell_warp grid: row r sums its slots j*n_rows + r,
/// j < width, skipping padding, into a +0 accumulator in j order and
/// stores the sum, as lane r's march does, in equal chunks of rows on the
/// block pool (every row has `width` slots). Every read is bounds-checked.
template <class T>
void ell_rows(vgpu::DeviceSpan<const mat::index_t> col_idx,
              vgpu::DeviceSpan<const T> vals, vgpu::DeviceSpan<const T> x,
              vgpu::DeviceSpan<T> y, mat::index_t n_rows, mat::index_t width) {
  const long long row_work = std::max<long long>(0, width) + 1;
  for_balanced_chunks(
      n_rows, 1, [&](long long r) { return r * row_work; },
      [&](long long r0, long long r1) {
        for (long long r = r0; r < r1; ++r) {
          T sum{};
          for (mat::index_t j = 0; j < width; ++j) {
            const auto slot = static_cast<std::size_t>(
                static_cast<long long>(j) * n_rows + r);
            const mat::index_t c = col_idx[slot];
            if (c != mat::Ell<T>::kPad)
              sum += vals[slot] * x[static_cast<std::size_t>(c)];
          }
          y[static_cast<std::size_t>(r)] = sum;
        }
      });
}

template <class T>
class EllEngine final : public EngineBase<T> {
 public:
  EllEngine(vgpu::Device& dev, const mat::Csr<T>& a)
      : EngineBase<T>(dev, "ELL"), nnz_(a.nnz()) {
    vgpu::HostModel hm;
    ell_ = mat::Ell<T>::from_csr(a, &hm);
    this->report_.preprocess_s = hm.seconds();
    this->report_.padding_ratio = ell_.padding_ratio();
    upload();
  }

  mat::index_t rows() const override { return ell_.rows; }
  mat::index_t cols() const override { return ell_.cols; }
  mat::offset_t nnz() const override { return nnz_; }

  /// The simulated kernel's value, bit for bit (ell_rows).
  void apply(const std::vector<T>& x, std::vector<T>& y) const override {
    ACSR_CHECK(static_cast<mat::index_t>(x.size()) == ell_.cols);
    y.assign(static_cast<std::size_t>(ell_.rows), T{0});
    ell_rows(vgpu::host_span(ell_.col_idx), vgpu::host_span(ell_.vals),
             vgpu::host_span(x), vgpu::host_span(y), ell_.rows, ell_.width);
  }

  double simulate(const std::vector<T>& x, std::vector<T>& y) override {
    ACSR_CHECK(static_cast<mat::index_t>(x.size()) == ell_.cols);
    auto x_dev = this->stage_x(x);
    auto y_dev = this->stage_y(static_cast<std::size_t>(ell_.rows));

    const int block = 128;
    vgpu::LaunchConfig cfg;
    cfg.name = "ell";
    cfg.block_dim = block;
    cfg.grid_dim = std::max<long long>(1, (ell_.rows + block - 1) / block);
    cfg.blocks_independent = true;  // one storing thread per row
    auto ci = col_dev_.cspan();
    auto va = val_dev_.cspan();
    auto xs = x_dev;
    auto ys = y_dev;
    const mat::index_t n = ell_.rows;
    const mat::index_t k = ell_.width;
    const vgpu::KernelRun run = this->dev_.launch_warps(
        cfg, [&](vgpu::Warp& w) { ell_warp<T>(w, ci, va, xs, ys, n, k); },
        nullptr, [&] { ell_rows(ci, va, xs, ys, n, k); });
    this->report_.last_run = run;
    y = this->staged_y();
    return run.duration_s;
  }

 private:
  void upload() {
    col_dev_ = this->dev_.template alloc<mat::index_t>(ell_.col_idx.size(),
                                                       "ell.col");
    col_dev_.host() = ell_.col_idx;
    val_dev_ = this->dev_.template alloc<T>(ell_.vals.size(), "ell.val");
    val_dev_.host() = ell_.vals;
    this->charge_upload(col_dev_.bytes() + val_dev_.bytes());
    this->report_.device_bytes = col_dev_.bytes() + val_dev_.bytes();
  }

  mat::offset_t nnz_ = 0;
  mat::Ell<T> ell_;
  vgpu::DeviceBuffer<mat::index_t> col_dev_;
  vgpu::DeviceBuffer<T> val_dev_;
};

/// Shape class of ell_warp's inputs: a column-major width x n_rows slab
/// whose column entries are either real indices in [0, n_cols-1] or the
/// kPad sentinel (-1, masked off before the x gather). Slot j*n_rows + r
/// stays inside the slab for every j < width, r < n_rows — the polynomial
/// identity (width-1)*n_rows + (n_rows-1) == width*n_rows - 1 the
/// verifier discharges by cancellation.
inline analysis::ShapeClass ell_shape_class() {
  namespace an = acsr::analysis;
  const an::Sym n_rows = an::Sym::param("n_rows");
  const an::Sym n_cols = an::Sym::param("n_cols");
  const an::Sym width = an::Sym::param("width");
  an::ShapeClass sc;
  sc.engine = "ell";
  sc.params = {an::param("n_rows", 0, "matrix rows"),
               an::param("n_cols", 0, "matrix columns"),
               an::param("width", 0, "padded slab width"),
               an::param("grid", 1, "launch grid dim")};
  sc.spans = {
      an::index_span("ell.col", width * n_rows,
                     {an::Sym(-1), n_cols - an::Sym(1)},
                     "slab column indices (-1 = padding)"),
      an::data_span("ell.val", width * n_rows, "slab values"),
      an::data_span("x", n_cols, "input vector"),
      an::data_span("y", n_rows, "output vector", /*initialized=*/false),
  };
  return sc;
}

}  // namespace acsr::spmv
