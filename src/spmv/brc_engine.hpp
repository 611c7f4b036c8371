// BRC-style engine (Ashari et al., ICS'14 "blocked row-column" — the BRC
// comparator of Table III). Re-implementation of its essential mechanism:
// rows are *sorted by length* and packed into 32-row blocks whose width is
// the block-local maximum, which nearly eliminates padding while keeping
// ELL-style coalescing; a permutation array scatters results back.
// The characteristic cost is the sort + full data restructuring, which is
// exactly the preprocessing the paper's Fig. 4 charges BRC for.
#pragma once

#include <algorithm>
#include <numeric>

#include "analysis/shape.hpp"
#include "spmv/engine.hpp"
#include "vgpu/lane_array.hpp"

namespace acsr::spmv {

template <class T>
class BrcEngine final : public EngineBase<T> {
 public:
  BrcEngine(vgpu::Device& dev, const mat::Csr<T>& a)
      : EngineBase<T>(dev, "BRC"), shape_(a) {
    vgpu::HostModel hm;
    build(a, hm);
    this->report_.preprocess_s = hm.seconds();
    upload();
  }

  mat::index_t rows() const override { return shape_.rows; }
  mat::index_t cols() const override { return shape_.cols; }
  mat::offset_t nnz() const override { return shape_.nnz; }
  std::size_t num_blocks() const { return block_width_.size(); }

  /// The simulated kernel's value, bit for bit (sliced_rows).
  void apply(const std::vector<T>& x, std::vector<T>& y) const override {
    ACSR_CHECK(static_cast<mat::index_t>(x.size()) == shape_.cols);
    y.assign(static_cast<std::size_t>(shape_.rows), T{0});
    sliced_rows<T>(vgpu::host_span(block_off_), vgpu::host_span(block_width_),
                   vgpu::host_span(perm_), vgpu::host_span(slab_col_),
                   vgpu::host_span(slab_val_), vgpu::host_span(x),
                   vgpu::host_span(y));
  }

  double simulate(const std::vector<T>& x, std::vector<T>& y) override {
    ACSR_CHECK(static_cast<mat::index_t>(x.size()) == shape_.cols);
    auto x_dev = this->stage_x(x);
    auto y_dev = this->stage_y(static_cast<std::size_t>(shape_.rows));

    const long long n_blocks = static_cast<long long>(block_width_.size());
    vgpu::LaunchConfig cfg;
    cfg.name = "brc";
    cfg.block_dim = 128;  // 4 matrix-blocks per thread block
    cfg.grid_dim = std::max<long long>(1, (n_blocks + 3) / 4);

    auto perm = perm_dev_.cspan();
    auto boff = boff_dev_.cspan();
    auto bw = bw_dev_.cspan();
    auto sc = scol_dev_.cspan();
    auto sv = sval_dev_.cspan();
    auto xs = x_dev;
    auto ys = y_dev;

    const vgpu::KernelRun run = this->dev_.launch_warps(
        cfg,
        [&](vgpu::Warp& w) {
          sliced_warp<T>(w, boff, bw, perm, sc, sv, xs, ys, false);
        },
        nullptr, [&] { sliced_rows<T>(boff, bw, perm, sc, sv, xs, ys); });
    this->report_.last_run = run;
    y = this->staged_y();
    return run.duration_s;
  }

 private:
  static constexpr int kBlockRows = 32;

  void build(const mat::Csr<T>& a, vgpu::HostModel& hm) {
    // Sort rows by descending nnz (the expensive global reorder).
    perm_.resize(static_cast<std::size_t>(a.rows));
    std::iota(perm_.begin(), perm_.end(), 0);
    std::stable_sort(perm_.begin(), perm_.end(),
                     [&](mat::index_t p, mat::index_t q) {
                       return a.row_nnz(p) > a.row_nnz(q);
                     });
    const double n_rows = static_cast<double>(a.rows);
    hm.charge_ops(n_rows * std::max(1.0, std::log2(std::max(2.0, n_rows))) *
                  2.0);

    // Pack into 32-row blocks with block-local width.
    const std::size_t n_blocks =
        (perm_.size() + kBlockRows - 1) / kBlockRows;
    block_off_.resize(n_blocks);
    block_width_.resize(n_blocks);
    mat::offset_t total = 0;
    for (std::size_t b = 0; b < n_blocks; ++b) {
      mat::offset_t wmax = 0;
      for (std::size_t l = 0; l < kBlockRows; ++l) {
        const std::size_t pr = b * kBlockRows + l;
        if (pr < perm_.size()) wmax = std::max(wmax, a.row_nnz(perm_[pr]));
      }
      block_off_[b] = total;
      block_width_[b] = static_cast<mat::index_t>(wmax);
      total += wmax * kBlockRows;
    }
    slab_col_.assign(static_cast<std::size_t>(total), -1);
    slab_val_.assign(static_cast<std::size_t>(total), T{0});
    for (std::size_t b = 0; b < n_blocks; ++b) {
      for (std::size_t l = 0; l < kBlockRows; ++l) {
        const std::size_t pr = b * kBlockRows + l;
        if (pr >= perm_.size()) break;
        const mat::index_t r = perm_[pr];
        const mat::offset_t lo = a.row_off[static_cast<std::size_t>(r)];
        const mat::offset_t n = a.row_nnz(r);
        for (mat::offset_t j = 0; j < n; ++j) {
          const auto slot = static_cast<std::size_t>(
              block_off_[b] + j * kBlockRows + static_cast<mat::offset_t>(l));
          slab_col_[slot] = a.col_idx[static_cast<std::size_t>(lo + j)];
          slab_val_[slot] = a.vals[static_cast<std::size_t>(lo + j)];
        }
      }
    }
    // Restructuring writes every slab slot.
    hm.charge_ops(2.0 * static_cast<double>(total) +
                  2.0 * static_cast<double>(a.nnz()));
    const double pad =
        total == 0 ? 0.0
                   : 1.0 - static_cast<double>(a.nnz()) /
                               static_cast<double>(total);
    this->report_.padding_ratio = pad;
  }

  void upload() {
    perm_dev_ = this->dev_.template alloc<mat::index_t>(perm_.size(),
                                                        "brc.perm");
    perm_dev_.host() = perm_;
    boff_dev_ = this->dev_.template alloc<mat::offset_t>(block_off_.size(),
                                                         "brc.boff");
    boff_dev_.host() = block_off_;
    bw_dev_ = this->dev_.template alloc<mat::index_t>(block_width_.size(),
                                                      "brc.bwidth");
    bw_dev_.host() = block_width_;
    scol_dev_ = this->dev_.template alloc<mat::index_t>(slab_col_.size(),
                                                        "brc.col");
    scol_dev_.host() = slab_col_;
    sval_dev_ = this->dev_.template alloc<T>(slab_val_.size(), "brc.val");
    sval_dev_.host() = slab_val_;
    const std::size_t b = perm_dev_.bytes() + boff_dev_.bytes() +
                          bw_dev_.bytes() + scol_dev_.bytes() +
                          sval_dev_.bytes();
    this->charge_upload(b);
    this->report_.device_bytes = b;
  }

  MatShape shape_;
  std::vector<mat::index_t> perm_;
  std::vector<mat::offset_t> block_off_;
  std::vector<mat::index_t> block_width_;
  std::vector<mat::index_t> slab_col_;
  std::vector<T> slab_val_;

  vgpu::DeviceBuffer<mat::index_t> perm_dev_;
  vgpu::DeviceBuffer<mat::offset_t> boff_dev_;
  vgpu::DeviceBuffer<mat::index_t> bw_dev_;
  vgpu::DeviceBuffer<mat::index_t> scol_dev_;
  vgpu::DeviceBuffer<T> sval_dev_;
};

/// Shape class of the BRC kernel: a permutation scattering results back
/// (injective, so the y store is race-free), per-block offset/width
/// metadata, and a slab whose layout invariant — every block's 32-row
/// strip [boff[b], boff[b] + 32*bwidth[b]) lies inside the slab — is
/// declared by decomposing the slab size as slab_base + 32*block_w +
/// slab_rest for a generic block (boff[b] = slab_base, bwidth[b] =
/// block_w, slab_rest >= 0 the space after the strip). The verifier's
/// strip bound then holds for *every* block by cancellation.
inline analysis::ShapeClass brc_shape_class() {
  namespace an = acsr::analysis;
  const an::Sym n_rows = an::Sym::param("n_rows");
  const an::Sym n_cols = an::Sym::param("n_cols");
  const an::Sym n_blocks = an::Sym::param("n_blocks");
  const an::Sym slab_base = an::Sym::param("slab_base");
  const an::Sym block_w = an::Sym::param("block_w");
  const an::Sym slab_rest = an::Sym::param("slab_rest");
  const an::Sym slab =
      slab_base + an::Sym(32) * block_w + slab_rest;
  an::ShapeClass sc;
  sc.engine = "brc";
  sc.params = {an::param("n_rows", 0, "matrix rows"),
               an::param("n_cols", 0, "matrix columns"),
               an::param("n_blocks", 0, "32-row blocks"),
               an::param("slab_base", 0, "generic block's slab offset"),
               an::param("block_w", 0, "generic block's width"),
               an::param("slab_rest", 0, "slab slots after the strip"),
               an::param("grid", 1, "launch grid dim")};
  sc.spans = {
      an::index_span("brc.perm", n_rows, {an::Sym(0), n_rows - an::Sym(1)},
                     "row permutation (sorted by length)", false, true),
      an::data_span("brc.boff", n_blocks, "per-block slab offsets"),
      an::data_span("brc.bwidth", n_blocks, "per-block widths"),
      an::index_span("brc.col", slab, {an::Sym(-1), n_cols - an::Sym(1)},
                     "slab columns (-1 = padding)"),
      an::data_span("brc.val", slab, "slab values"),
      an::data_span("x", n_cols, "input vector"),
      an::data_span("y", n_rows, "output vector", /*initialized=*/false),
  };
  return sc;
}

}  // namespace acsr::spmv
