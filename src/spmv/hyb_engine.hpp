// HYB SpMV (Bell & Garland): ELL kernel over the dense slab, then the COO
// tail with segmented reduction, issued back-to-back on one stream. The
// heavy preprocessing (slab construction incl. padding) and the ~33%
// average padding cost are what ACSR beats on dynamic graphs.
#pragma once

#include <algorithm>

#include "analysis/shape.hpp"
#include "mat/hyb.hpp"
#include "spmv/coo_engine.hpp"
#include "spmv/ell_engine.hpp"
#include "spmv/engine.hpp"

namespace acsr::spmv {

template <class T>
class HybEngine final : public EngineBase<T> {
 public:
  HybEngine(vgpu::Device& dev, const mat::Csr<T>& a,
            mat::index_t breakeven = 4096)
      : EngineBase<T>(dev, "HYB") {
    vgpu::HostModel hm;
    hyb_ = mat::Hyb<T>::from_csr(a, &hm, breakeven);
    this->report_.preprocess_s = hm.seconds();
    this->report_.padding_ratio = hyb_.padding_ratio();
    nnz_ = a.nnz();
    upload();
  }

  mat::index_t rows() const override { return hyb_.rows(); }
  mat::index_t cols() const override { return hyb_.cols(); }
  mat::offset_t nnz() const override { return nnz_; }
  mat::index_t ell_width() const { return hyb_.ell.width; }
  mat::offset_t coo_tail_nnz() const { return hyb_.coo.nnz(); }

  /// The simulated kernels' value, bit for bit: the ELL slab's rows
  /// (ell_rows), then the COO tail on top (coo_segmented_values).
  void apply(const std::vector<T>& x, std::vector<T>& y) const override {
    ACSR_CHECK(static_cast<mat::index_t>(x.size()) == hyb_.cols());
    y.assign(static_cast<std::size_t>(hyb_.rows()), T{0});
    const auto xs = vgpu::host_span(x);
    const auto ys = vgpu::host_span(y);
    ell_rows(vgpu::host_span(hyb_.ell.col_idx), vgpu::host_span(hyb_.ell.vals),
             xs, ys, hyb_.rows(), hyb_.ell.width);
    coo_segmented_values(vgpu::host_span(hyb_.coo.row_idx),
                         vgpu::host_span(hyb_.coo.col_idx),
                         vgpu::host_span(hyb_.coo.vals), hyb_.coo.nnz(),
                         x_reader(xs), ys);
  }

  double simulate(const std::vector<T>& x, std::vector<T>& y) override {
    ACSR_CHECK(static_cast<mat::index_t>(x.size()) == hyb_.cols());
    auto x_dev = this->stage_x(x);
    auto y_dev = this->stage_y(static_cast<std::size_t>(hyb_.rows()));
    auto xs = x_dev;
    auto ys = y_dev;

    std::vector<vgpu::KernelRun> runs;

    {  // ELL part.
      const int block = 128;
      vgpu::LaunchConfig cfg;
      cfg.name = "hyb_ell";
      cfg.block_dim = block;
      cfg.grid_dim =
          std::max<long long>(1, (hyb_.rows() + block - 1) / block);
      cfg.blocks_independent = true;  // one storing thread per row
      auto ci = ell_col_.cspan();
      auto va = ell_val_.cspan();
      const mat::index_t n = hyb_.rows();
      const mat::index_t k = hyb_.ell.width;
      runs.push_back(this->dev_.launch_warps(
          cfg, [&](vgpu::Warp& w) { ell_warp<T>(w, ci, va, xs, ys, n, k); },
          nullptr, [&] { ell_rows(ci, va, xs, ys, n, k); }));
    }

    if (hyb_.coo.nnz() > 0)  // COO tail.
      runs.push_back(launch_coo_segmented<T>(
          this->dev_, "hyb_coo", coo_row_.cspan(), coo_col_.cspan(),
          coo_val_.cspan(), hyb_.coo.nnz(), xs, ys));

    // Aggregate the run pair for reporting.
    vgpu::KernelRun agg = runs.front();
    for (std::size_t i = 1; i < runs.size(); ++i) {
      agg.counters += runs[i].counters;
      agg.duration_s += runs[i].duration_s;
    }
    agg.name = "hyb";
    this->report_.last_run = agg;
    y = this->staged_y();
    return vgpu::combine_sequential(runs);
  }

 private:
  void upload() {
    ell_col_ = this->dev_.template alloc<mat::index_t>(
        hyb_.ell.col_idx.size(), "hyb.ell.col");
    ell_col_.host() = hyb_.ell.col_idx;
    ell_val_ =
        this->dev_.template alloc<T>(hyb_.ell.vals.size(), "hyb.ell.val");
    ell_val_.host() = hyb_.ell.vals;
    coo_row_ = this->dev_.template alloc<mat::index_t>(
        hyb_.coo.row_idx.size(), "hyb.coo.row");
    coo_row_.host() = hyb_.coo.row_idx;
    coo_col_ = this->dev_.template alloc<mat::index_t>(
        hyb_.coo.col_idx.size(), "hyb.coo.col");
    coo_col_.host() = hyb_.coo.col_idx;
    coo_val_ =
        this->dev_.template alloc<T>(hyb_.coo.vals.size(), "hyb.coo.val");
    coo_val_.host() = hyb_.coo.vals;
    const std::size_t b = ell_col_.bytes() + ell_val_.bytes() +
                          coo_row_.bytes() + coo_col_.bytes() +
                          coo_val_.bytes();
    this->charge_upload(b);
    this->report_.device_bytes = b;
  }

  mat::Hyb<T> hyb_;
  mat::offset_t nnz_ = 0;
  vgpu::DeviceBuffer<mat::index_t> ell_col_;
  vgpu::DeviceBuffer<T> ell_val_;
  vgpu::DeviceBuffer<mat::index_t> coo_row_;
  vgpu::DeviceBuffer<mat::index_t> coo_col_;
  vgpu::DeviceBuffer<T> coo_val_;
};

/// Shape class of the HYB launch pair: an ELL slab covering every row
/// (the first kernel's unconditional store defines y) followed by a
/// row-sorted COO tail that accumulates on top with atomics. The launch
/// boundary between the two kernels is what makes the tail's atomic RMW
/// of y well-defined.
inline analysis::ShapeClass hyb_shape_class() {
  namespace an = acsr::analysis;
  const an::Sym n_rows = an::Sym::param("n_rows");
  const an::Sym n_cols = an::Sym::param("n_cols");
  const an::Sym ell_width = an::Sym::param("ell_width");
  const an::Sym tail_nnz = an::Sym::param("tail_nnz");
  an::ShapeClass sc;
  sc.engine = "hyb";
  sc.params = {an::param("n_rows", 0, "matrix rows"),
               an::param("n_cols", 0, "matrix columns"),
               an::param("ell_width", 0, "ELL slab width"),
               an::param("tail_nnz", 0, "COO tail entries"),
               an::param("grid", 1, "launch grid dim")};
  sc.spans = {
      an::index_span("hyb.ell.col", ell_width * n_rows,
                     {an::Sym(-1), n_cols - an::Sym(1)},
                     "ELL slab columns (-1 = padding)"),
      an::data_span("hyb.ell.val", ell_width * n_rows, "ELL slab values"),
      an::index_span("hyb.coo.row", tail_nnz,
                     {an::Sym(0), n_rows - an::Sym(1)},
                     "tail row ids, sorted non-decreasing", true),
      an::index_span("hyb.coo.col", tail_nnz,
                     {an::Sym(0), n_cols - an::Sym(1)}, "tail columns"),
      an::data_span("hyb.coo.val", tail_nnz, "tail values"),
      an::data_span("x", n_cols, "input vector"),
      an::data_span("y", n_rows, "output vector", /*initialized=*/false),
  };
  return sc;
}

}  // namespace acsr::spmv
