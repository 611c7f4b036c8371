// SIC-style engine (Feng et al. [13]: CSR with Segmented Interleave
// Combination). The paper *could not* compare against SIC because the
// authors' implementation was unavailable; we reconstruct it from their
// description so the comparison the paper wanted exists here.
//
// Mechanism: rows are classified into three *segments* by length (short /
// medium / long — no global sort, unlike BRC); within each segment,
// consecutive rows are interleaved into 32-row blocks stored column-major
// (ELL-like per block, block width = the block's max row length), so warp
// lanes advance through different rows in lockstep with coalesced loads.
// Preprocessing is a classification pass plus a full data restructure —
// cheaper than BRC's global sort, far more than ACSR's scan.
#pragma once

#include <algorithm>
#include <array>

#include "analysis/shape.hpp"
#include "spmv/engine.hpp"
#include "vgpu/lane_array.hpp"

namespace acsr::spmv {

template <class T>
class SicEngine final : public EngineBase<T> {
 public:
  /// Segment thresholds: rows with nnz <= t1 are "short", <= t2 "medium",
  /// else "long" (Feng et al. use three segments).
  SicEngine(vgpu::Device& dev, const mat::Csr<T>& a, mat::offset_t t1 = 8,
            mat::offset_t t2 = 64)
      : EngineBase<T>(dev, "SIC"), shape_(a), t1_(t1), t2_(t2) {
    vgpu::HostModel hm;
    build(a, hm);
    this->report_.preprocess_s = hm.seconds();
    upload();
  }

  mat::index_t rows() const override { return shape_.rows; }
  mat::index_t cols() const override { return shape_.cols; }
  mat::offset_t nnz() const override { return shape_.nnz; }

  std::size_t num_blocks() const { return block_width_.size(); }
  /// Rows per segment (short, medium, long) for introspection.
  std::array<std::size_t, 3> segment_sizes() const {
    return {seg_rows_[0].size(), seg_rows_[1].size(), seg_rows_[2].size()};
  }

  /// The simulated kernel's value, bit for bit (sliced_rows).
  void apply(const std::vector<T>& x, std::vector<T>& y) const override {
    ACSR_CHECK(static_cast<mat::index_t>(x.size()) == shape_.cols);
    y.assign(static_cast<std::size_t>(shape_.rows), T{0});
    sliced_rows<T>(vgpu::host_span(block_off_), vgpu::host_span(block_width_),
                   vgpu::host_span(row_of_slot_), vgpu::host_span(slab_col_),
                   vgpu::host_span(slab_val_), vgpu::host_span(x),
                   vgpu::host_span(y));
  }

  double simulate(const std::vector<T>& x, std::vector<T>& y) override {
    ACSR_CHECK(static_cast<mat::index_t>(x.size()) == shape_.cols);
    auto x_dev = this->stage_x(x);
    auto y_dev = this->stage_y(static_cast<std::size_t>(shape_.rows));

    const long long n_blocks = static_cast<long long>(block_width_.size());
    vgpu::LaunchConfig cfg;
    cfg.name = "sic";
    cfg.block_dim = 128;
    cfg.grid_dim = std::max<long long>(1, (n_blocks + 3) / 4);

    auto rows_s = rows_dev_.cspan();
    auto boff = boff_dev_.cspan();
    auto bw = bw_dev_.cspan();
    auto sc = scol_dev_.cspan();
    auto sv = sval_dev_.cspan();
    auto xs = x_dev;
    auto ys = y_dev;

    const vgpu::KernelRun run = this->dev_.launch_warps(
        cfg,
        [&](vgpu::Warp& w) {
          sliced_warp<T>(w, boff, bw, rows_s, sc, sv, xs, ys, true);
        },
        nullptr, [&] { sliced_rows<T>(boff, bw, rows_s, sc, sv, xs, ys); });
    this->report_.last_run = run;
    y = this->staged_y();
    return run.duration_s;
  }

 private:
  static constexpr int kBlockRows = 32;

  void build(const mat::Csr<T>& a, vgpu::HostModel& hm) {
    // Pass 1: classify rows into the three segments (order preserved —
    // that is SIC's difference from BRC's sort).
    for (auto& s : seg_rows_) s.clear();
    for (mat::index_t r = 0; r < a.rows; ++r) {
      const mat::offset_t n = a.row_nnz(r);
      if (n == 0) continue;
      seg_rows_[n <= t1_ ? 0 : (n <= t2_ ? 1 : 2)].push_back(r);
    }
    hm.charge_ops(2.0 * static_cast<double>(a.rows));

    // Pass 2: interleave each segment's rows into 32-row blocks.
    row_of_slot_.clear();
    block_off_.clear();
    block_width_.clear();
    mat::offset_t total = 0;
    for (const auto& seg : seg_rows_) {
      for (std::size_t i = 0; i < seg.size(); i += kBlockRows) {
        const std::size_t count = std::min<std::size_t>(
            kBlockRows, seg.size() - i);
        mat::offset_t wmax = 0;
        for (std::size_t l = 0; l < kBlockRows; ++l) {
          if (l < count)
            wmax = std::max(wmax, a.row_nnz(seg[i + l]));
          row_of_slot_.push_back(l < count ? seg[i + l] : -1);
        }
        block_off_.push_back(total);
        block_width_.push_back(static_cast<mat::index_t>(wmax));
        total += wmax * kBlockRows;
      }
    }
    slab_col_.assign(static_cast<std::size_t>(total), -1);
    slab_val_.assign(static_cast<std::size_t>(total), T{0});
    for (std::size_t b = 0; b < block_width_.size(); ++b) {
      for (std::size_t l = 0; l < kBlockRows; ++l) {
        const std::size_t sr = b * kBlockRows + l;
        if (sr >= row_of_slot_.size() || row_of_slot_[sr] < 0) continue;
        const mat::index_t r = row_of_slot_[sr];
        const mat::offset_t lo = a.row_off[static_cast<std::size_t>(r)];
        const mat::offset_t n = a.row_nnz(r);
        for (mat::offset_t j = 0; j < n; ++j) {
          const auto s = static_cast<std::size_t>(
              block_off_[b] + j * kBlockRows + static_cast<mat::offset_t>(l));
          slab_col_[s] = a.col_idx[static_cast<std::size_t>(lo + j)];
          slab_val_[s] = a.vals[static_cast<std::size_t>(lo + j)];
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
    rows_dev_ = this->dev_.template alloc<mat::index_t>(row_of_slot_.size(),
                                                        "sic.rows");
    rows_dev_.host() = row_of_slot_;
    boff_dev_ = this->dev_.template alloc<mat::offset_t>(block_off_.size(),
                                                         "sic.boff");
    boff_dev_.host() = block_off_;
    bw_dev_ = this->dev_.template alloc<mat::index_t>(block_width_.size(),
                                                      "sic.bwidth");
    bw_dev_.host() = block_width_;
    scol_dev_ = this->dev_.template alloc<mat::index_t>(slab_col_.size(),
                                                        "sic.col");
    scol_dev_.host() = slab_col_;
    sval_dev_ = this->dev_.template alloc<T>(slab_val_.size(), "sic.val");
    sval_dev_.host() = slab_val_;
    const std::size_t b = rows_dev_.bytes() + boff_dev_.bytes() +
                          bw_dev_.bytes() + scol_dev_.bytes() +
                          sval_dev_.bytes();
    this->charge_upload(b);
    this->report_.device_bytes = b;
  }

  MatShape shape_;
  mat::offset_t t1_;
  mat::offset_t t2_;
  std::array<std::vector<mat::index_t>, 3> seg_rows_;
  std::vector<mat::index_t> row_of_slot_;  // -1 for pad slots
  std::vector<mat::offset_t> block_off_;
  std::vector<mat::index_t> block_width_;
  std::vector<mat::index_t> slab_col_;
  std::vector<T> slab_val_;

  vgpu::DeviceBuffer<mat::index_t> rows_dev_;
  vgpu::DeviceBuffer<mat::offset_t> boff_dev_;
  vgpu::DeviceBuffer<mat::index_t> bw_dev_;
  vgpu::DeviceBuffer<mat::index_t> scol_dev_;
  vgpu::DeviceBuffer<T> sval_dev_;
};

/// Shape class of the SIC kernel. Same slab decomposition as BRC
/// (slab_base + 32*block_w + slab_rest for a generic block); the row map
/// is sic.rows with -1 padding at segment ends. Each non-empty row
/// appears in exactly one slot, so the non-negative entries are pairwise
/// distinct (the sense in which the span is declared injective — pad
/// slots are masked off before the store).
inline analysis::ShapeClass sic_shape_class() {
  namespace an = acsr::analysis;
  const an::Sym n_rows = an::Sym::param("n_rows");
  const an::Sym n_cols = an::Sym::param("n_cols");
  const an::Sym n_blocks = an::Sym::param("n_blocks");
  const an::Sym n_slots = an::Sym::param("n_slots");
  const an::Sym slab_base = an::Sym::param("slab_base");
  const an::Sym block_w = an::Sym::param("block_w");
  const an::Sym slab_rest = an::Sym::param("slab_rest");
  const an::Sym slab = slab_base + an::Sym(32) * block_w + slab_rest;
  an::ShapeClass sc;
  sc.engine = "sic";
  sc.params = {an::param("n_rows", 0, "matrix rows"),
               an::param("n_cols", 0, "matrix columns"),
               an::param("n_blocks", 0, "32-row interleave blocks"),
               an::param("n_slots", 0, "row slots incl. segment padding"),
               an::param("slab_base", 0, "generic block's slab offset"),
               an::param("block_w", 0, "generic block's width"),
               an::param("slab_rest", 0, "slab slots after the strip"),
               an::param("grid", 1, "launch grid dim")};
  sc.spans = {
      an::index_span("sic.rows", n_slots,
                     {an::Sym(-1), n_rows - an::Sym(1)},
                     "row of each slot (-1 = segment padding)", false, true),
      an::data_span("sic.boff", n_blocks, "per-block slab offsets"),
      an::data_span("sic.bwidth", n_blocks, "per-block widths"),
      an::index_span("sic.col", slab, {an::Sym(-1), n_cols - an::Sym(1)},
                     "slab columns (-1 = padding)"),
      an::data_span("sic.val", slab, "slab values"),
      an::data_span("x", n_cols, "input vector"),
      an::data_span("y", n_rows, "output vector", /*initialized=*/false),
  };
  return sc;
}

}  // namespace acsr::spmv
