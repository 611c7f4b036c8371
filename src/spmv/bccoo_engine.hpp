// BCCOO-style engine (Yan et al., yaSpMV [27]: blocked compressed COO).
// Re-implementation of the essential mechanisms: consecutive non-zeros of a
// row are packed into fixed-width blocks that store the row id and base
// column once plus byte-sized column deltas, cutting index bandwidth; and
// the configuration (block width x thread-block size x ILP) is *auto-tuned*
// over a >300-point space where every candidate costs a code-generation/
// compile step plus timed trials — the dominating preprocessing cost that
// makes BCCOO's Fig. 4 ratio five orders of magnitude.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <new>

#include "analysis/shape.hpp"
#include "mat/padded.hpp"
#include "spmv/engine.hpp"
#include "vgpu/lane_array.hpp"

namespace acsr::spmv {

template <class T>
class BccooEngine final : public EngineBase<T> {
 public:
  struct TuningPolicy {
    // Simulated cost of generating + compiling one kernel variant (yaSpMV
    // emits specialised OpenCL per configuration).
    double compile_s = 0.05;
    int trial_reps = 3;
    // Secondary dimensions explored per block width (thread-block size,
    // ILP depth, texture on/off, ...). Together with the widths this gives
    // the >300-configuration space the paper describes.
    int configs_per_width = 64;
  };

  BccooEngine(vgpu::Device& dev, const mat::Csr<T>& a,
              TuningPolicy policy = {})
      : EngineBase<T>(dev, "BCCOO"), shape_(a) {
    vgpu::HostModel hm;
    tune(a, hm, policy);
    this->report_.preprocess_s = hm.seconds();
    upload();
  }

  mat::index_t rows() const override { return shape_.rows; }
  mat::index_t cols() const override { return shape_.cols; }
  mat::offset_t nnz() const override { return shape_.nnz; }
  int block_width() const { return width_; }
  std::size_t num_blocks() const { return blk_row_.size(); }

  /// The simulated kernels' value, bit for bit (block_values).
  void apply(const std::vector<T>& x, std::vector<T>& y) const override {
    ACSR_CHECK(static_cast<mat::index_t>(x.size()) == shape_.cols);
    y.assign(static_cast<std::size_t>(shape_.rows), T{0});
    block_values(vgpu::host_span(blk_row_), vgpu::host_span(blk_col_),
                 vgpu::host_span(deltas_), vgpu::host_span(vals_), width_,
                 vgpu::host_span(x), vgpu::host_span(y));
  }

  double simulate(const std::vector<T>& x, std::vector<T>& y) override {
    auto x_dev = this->stage_x(x);
    auto y_dev = this->stage_y(static_cast<std::size_t>(shape_.rows));
    const vgpu::KernelRun zero = zero_fill(this->dev_, y_dev);
    const vgpu::KernelRun run =
        run_kernel(x_dev, y_dev);
    this->report_.last_run = run;
    y = this->staged_y();
    return vgpu::combine_sequential({zero, run});
  }

 private:
  /// The warp's segmented reduction over its blocks (row-ordered): each
  /// run of consecutive live lanes with one row folds its accumulators,
  /// in lane order into a +0 sum, onto its first lane. Returns those head
  /// lanes; head_row and head_sum receive their rows and sums.
  static vgpu::Mask fold_head_runs(const vgpu::LaneArray<mat::index_t>& row,
                                   const vgpu::LaneArray<T>& acc,
                                   vgpu::Mask live,
                                   vgpu::LaneArray<mat::index_t>& head_row,
                                   vgpu::LaneArray<T>& head_sum) {
    vgpu::Mask heads = 0;
    int l = 0;
    while (l < vgpu::kWarpSize) {
      if (!vgpu::lane_active(live, l)) {
        ++l;
        continue;
      }
      const mat::index_t r = row[l];
      T sum{0};
      const int head = l;
      while (l < vgpu::kWarpSize && vgpu::lane_active(live, l) &&
             row[l] == r) {
        sum += acc[l];
        ++l;
      }
      heads |= vgpu::lane_bit(head);
      head_sum[head] = sum;
      head_row[head] = r;
    }
    return heads;
  }

  /// Value kernel of the bccoo grid: per warp of 32 consecutive blocks,
  /// each block's accumulator (its slots in order, explicit zeros
  /// skipped), then fold_head_runs, the heads adding into y in lane
  /// order as the warp's atomic_add applies them.
  static void block_values(vgpu::DeviceSpan<const mat::index_t> br,
                           vgpu::DeviceSpan<const mat::index_t> bc,
                           vgpu::DeviceSpan<const std::uint8_t> bd,
                           vgpu::DeviceSpan<const T> bv, int width,
                           vgpu::DeviceSpan<const T> x,
                           vgpu::DeviceSpan<T> y) {
    const auto n_blocks = static_cast<long long>(br.size());
    const auto w = static_cast<std::size_t>(width);
    for (long long b0 = 0; b0 < n_blocks; b0 += vgpu::kWarpSize) {
      const int n = static_cast<int>(
          std::min<long long>(vgpu::kWarpSize, n_blocks - b0));
      vgpu::LaneArray<mat::index_t> row{};
      vgpu::LaneArray<T> acc{};
      for (int l = 0; l < n; ++l) {
        const auto b = static_cast<std::size_t>(b0 + l);
        row[l] = br[b];
        mat::index_t c = bc[b];
        for (std::size_t j = 0; j < w; ++j) {
          c += static_cast<mat::index_t>(bd[b * w + j]);
          const T v = bv[b * w + j];
          if (v != T{0}) acc[l] += v * x[static_cast<std::size_t>(c)];
        }
      }
      vgpu::LaneArray<mat::index_t> head_row{};
      vgpu::LaneArray<T> head_sum{};
      for (vgpu::Mask rem = fold_head_runs(row, acc, vgpu::first_lanes(n),
                                           head_row, head_sum);
           rem != 0; rem &= rem - 1) {
        const int h = std::countr_zero(rem);
        y[static_cast<std::size_t>(head_row[h])] += head_sum[h];
      }
    }
  }

  vgpu::KernelRun run_kernel(vgpu::DeviceSpan<const T> x,
                             vgpu::DeviceSpan<T> y) {
    const long long n_blocks = static_cast<long long>(blk_row_.size());
    vgpu::LaunchConfig cfg;
    cfg.name = "bccoo";
    cfg.block_dim = 128;
    cfg.grid_dim = std::max<long long>(1, (n_blocks + 127) / 128);
    auto br = brow_dev_.cspan();
    auto bc = bcol_dev_.cspan();
    auto bd = bdel_dev_.cspan();
    auto bv = bval_dev_.cspan();
    const int width = width_;
    return this->dev_.launch_warps(
        cfg,
        [&, width](vgpu::Warp& w) {
          using vgpu::LaneArray;
          using vgpu::Mask;
          LaneArray<long long> blk =
              LaneArray<long long>::iota(w.global_warp() * vgpu::kWarpSize);
          const Mask live =
              blk.where([n_blocks](long long b) { return b < n_blocks; },
                        w.active_mask());
          if (live == 0) return;
          const LaneArray<mat::index_t> row = w.load(br, blk, live);
          LaneArray<mat::index_t> col = w.load(bc, blk, live);
          LaneArray<T> acc{};
          for (int j = 0; j < width; ++j) {
            LaneArray<long long> slot;
            for (int l = 0; l < vgpu::kWarpSize; ++l)
              slot[l] = blk[l] * width + j;
            const LaneArray<std::uint8_t> d = w.load(bd, slot, live);
            const LaneArray<T> v = w.load(bv, slot, live);
            for (int l = 0; l < vgpu::kWarpSize; ++l)
              col[l] += static_cast<mat::index_t>(d[l]);
            w.count_alu(1);
            Mask nz = 0;
            for (int l = 0; l < vgpu::kWarpSize; ++l)
              if (vgpu::lane_active(live, l) && v[l] != T{0})
                nz |= vgpu::lane_bit(l);
            if (nz != 0) {
              const LaneArray<T> xv = w.load_tex(x, col, nz);
              vgpu::fma_into(acc, v, xv, nz);
              w.count_flops(nz, 2, sizeof(T) == 8);
            }
          }
          // Segmented reduction across the 32 blocks of the warp (blocks are
          // row-ordered), heads publish with atomics.
          w.count_shuffles(5);
          w.count_alu(10);
          LaneArray<T> head_sum{};
          LaneArray<mat::index_t> head_row{};
          const Mask heads = fold_head_runs(row, acc, live, head_row, head_sum);
          w.atomic_add(y, head_row, head_sum, heads);
        },
        nullptr, [&] { block_values(br, bc, bd, bv, width, x, y); });
  }

  /// Pack the matrix into width-w blocks: consecutive entries of a row
  /// whose successive column deltas fit a byte. Short blocks are padded
  /// with zero values (delta 0), counted in padding_ratio.
  void pack(const mat::Csr<T>& a, int width, vgpu::HostModel& hm) {
    width_ = width;
    blk_row_.clear();
    blk_col_.clear();
    deltas_.clear();
    vals_.clear();
    // Worst case every entry opens its own block (no deltas fit), so the
    // padded store is bounded by nnz * width slots; check that product
    // up front (mat/padded.hpp) instead of letting push_back growth
    // overflow or abort — degenerate sizes must read as DeviceOom.
    mat::checked_padded_slots(static_cast<std::uint64_t>(a.nnz()),
                              static_cast<std::uint64_t>(width),
                              sizeof(T) + 1, "BCCOO block store");
    const auto w = static_cast<std::size_t>(width);
    try {
      pack_blocks(a, w);
    } catch (const std::bad_alloc&) {
      throw vgpu::DeviceOom("host allocator refused the BCCOO block store (" +
                            std::to_string(vals_.size()) + "+ slots)");
    }
    hm.charge_ops(3.0 * static_cast<double>(a.nnz()) +
                  2.0 * static_cast<double>(vals_.size()));
    this->report_.padding_ratio =
        vals_.empty()
            ? 0.0
            : 1.0 - static_cast<double>(a.nnz()) /
                        static_cast<double>(vals_.size());
  }

  void pack_blocks(const mat::Csr<T>& a, std::size_t w) {
    for (mat::index_t r = 0; r < a.rows; ++r) {
      mat::offset_t i = a.row_off[static_cast<std::size_t>(r)];
      const mat::offset_t end = a.row_off[static_cast<std::size_t>(r) + 1];
      while (i < end) {
        blk_row_.push_back(r);
        const mat::index_t base =
            a.col_idx[static_cast<std::size_t>(i)];
        blk_col_.push_back(base);
        mat::index_t prev = base;
        std::size_t filled = 0;
        // First entry: delta 0 from base.
        while (filled < w && i < end) {
          const mat::index_t c = a.col_idx[static_cast<std::size_t>(i)];
          const mat::index_t d = c - prev;
          if (filled > 0 && d > 255) break;  // delta overflow: new block
          deltas_.push_back(static_cast<std::uint8_t>(filled == 0 ? 0 : d));
          vals_.push_back(a.vals[static_cast<std::size_t>(i)]);
          prev = c;
          ++filled;
          ++i;
        }
        for (; filled < w; ++filled) {  // zero padding
          deltas_.push_back(0);
          vals_.push_back(T{0});
        }
      }
    }
  }

  void tune(const mat::Csr<T>& a, vgpu::HostModel& hm,
            const TuningPolicy& policy) {
    static constexpr int kWidths[] = {1, 2, 4, 8, 16};
    std::vector<T> x(static_cast<std::size_t>(a.cols), T{1});
    double best_t = -1.0;
    int best_w = 1;
    for (int w : kWidths) {
      pack(a, w, hm);
      auto br = this->dev_.template alloc<mat::index_t>(blk_row_.size(),
                                                        "b.r");
      br.host() = blk_row_;
      auto bc = this->dev_.template alloc<mat::index_t>(blk_col_.size(),
                                                        "b.c");
      bc.host() = blk_col_;
      auto bd = this->dev_.template alloc<std::uint8_t>(deltas_.size(),
                                                        "b.d");
      bd.host() = deltas_;
      auto bv = this->dev_.template alloc<T>(vals_.size(), "b.v");
      bv.host() = vals_;
      brow_dev_ = std::move(br);
      bcol_dev_ = std::move(bc);
      bdel_dev_ = std::move(bd);
      bval_dev_ = std::move(bv);
      auto xd = this->dev_.template alloc<T>(x.size(), "b.x");
      xd.host() = x;
      auto yd = this->dev_.template alloc<T>(
          static_cast<std::size_t>(a.rows), "b.y");
      // The kernel accumulates with atomics, so trial runs must clear y
      // like the real SpMV does (an atomic RMW reads the old value).
      zero_fill(this->dev_, yd.span());
      const double t1 = run_kernel(xd.cspan(), yd.span()).duration_s;
      // Every configuration sharing this width still pays codegen +
      // compile + its own timed trials; their kernel times vary little,
      // so the measured t1 stands in for each.
      hm.charge_seconds(static_cast<double>(policy.configs_per_width) *
                        (policy.compile_s +
                         static_cast<double>(policy.trial_reps) * t1));
      if (best_t < 0.0 || t1 < best_t) {
        best_t = t1;
        best_w = w;
      }
      brow_dev_ = {};
      bcol_dev_ = {};
      bdel_dev_ = {};
      bval_dev_ = {};
    }
    pack(a, best_w, hm);
  }

  void upload() {
    brow_dev_ = this->dev_.template alloc<mat::index_t>(blk_row_.size(),
                                                        "bccoo.row");
    brow_dev_.host() = blk_row_;
    bcol_dev_ = this->dev_.template alloc<mat::index_t>(blk_col_.size(),
                                                        "bccoo.col");
    bcol_dev_.host() = blk_col_;
    bdel_dev_ = this->dev_.template alloc<std::uint8_t>(deltas_.size(),
                                                        "bccoo.delta");
    bdel_dev_.host() = deltas_;
    bval_dev_ = this->dev_.template alloc<T>(vals_.size(), "bccoo.val");
    bval_dev_.host() = vals_;
    const std::size_t b = brow_dev_.bytes() + bcol_dev_.bytes() +
                          bdel_dev_.bytes() + bval_dev_.bytes();
    this->charge_upload(b);
    this->report_.device_bytes = b;
  }

  MatShape shape_;
  int width_ = 4;
  std::vector<mat::index_t> blk_row_;
  std::vector<mat::index_t> blk_col_;
  std::vector<std::uint8_t> deltas_;
  std::vector<T> vals_;
  vgpu::DeviceBuffer<mat::index_t> brow_dev_;
  vgpu::DeviceBuffer<mat::index_t> bcol_dev_;
  vgpu::DeviceBuffer<std::uint8_t> bdel_dev_;
  vgpu::DeviceBuffer<T> bval_dev_;
};

/// Shape class of the BCCOO kernel: n_blocks fixed-width blocks with one
/// row id and base column each, plus byte deltas. The pack invariant the
/// verifier leans on: delta-decoding never leaves the matrix — every
/// prefix sum blk_col[b] + d_1 + ... + d_j equals a real column index of
/// the packed row (padding deltas are 0), so the decoded column stays in
/// [0, n_cols-1]. Block slot b*width + j stays inside the width-padded
/// store by the identity (n_blocks-1)*width + (width-1) == n_blocks*width
/// - 1. y is zero-filled before the kernel (atomic accumulation).
inline analysis::ShapeClass bccoo_shape_class() {
  namespace an = acsr::analysis;
  const an::Sym n_rows = an::Sym::param("n_rows");
  const an::Sym n_cols = an::Sym::param("n_cols");
  const an::Sym n_blocks = an::Sym::param("n_blocks");
  const an::Sym width = an::Sym::param("width");
  an::ShapeClass sc;
  sc.engine = "bccoo";
  sc.params = {an::param("n_rows", 0, "matrix rows"),
               an::param("n_cols", 0, "matrix columns"),
               an::param("n_blocks", 0, "packed blocks"),
               an::param("width", 1, "entries per block"),
               an::param("grid", 1, "launch grid dim")};
  sc.spans = {
      an::index_span("bccoo.row", n_blocks,
                     {an::Sym(0), n_rows - an::Sym(1)},
                     "block row ids, sorted non-decreasing", true),
      an::index_span("bccoo.col", n_blocks,
                     {an::Sym(0), n_cols - an::Sym(1)},
                     "block base columns (delta decode stays in range)"),
      an::data_span("bccoo.delta", n_blocks * width, "byte column deltas"),
      an::data_span("bccoo.val", n_blocks * width, "block values"),
      an::data_span("x", n_cols, "input vector"),
      an::data_span("y", n_rows, "output vector", /*initialized=*/false),
  };
  return sc;
}

}  // namespace acsr::spmv
