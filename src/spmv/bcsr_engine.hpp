// BCSR (blocked CSR) engine — the related-work format for matrices with
// small dense blocks (BCSR/BELLPACK in the paper's section IX). Non-zeros
// are covered by bs x bs dense tiles addressed by one column index per
// tile, cutting index bandwidth when the structure is blocked and paying
// zero fill-in when it is not (power-law graphs: lots). Included for the
// format-landscape completeness the paper surveys; the fill-in report
// shows exactly why nobody uses BCSR on social graphs.
#pragma once

#include <array>
#include <map>

#include "analysis/shape.hpp"
#include "spmv/engine.hpp"
#include "vgpu/lane_array.hpp"

namespace acsr::spmv {

template <class T>
class BcsrEngine final : public EngineBase<T> {
 public:
  BcsrEngine(vgpu::Device& dev, const mat::Csr<T>& a, int block_size = 2)
      : EngineBase<T>(dev, "BCSR"), shape_(a), bs_(block_size) {
    ACSR_REQUIRE(block_size >= 1 && block_size <= 8,
                 "BCSR block size must be in [1, 8]");
    vgpu::HostModel hm;
    build(a, hm);
    this->report_.preprocess_s = hm.seconds();
    upload();
  }

  mat::index_t rows() const override { return shape_.rows; }
  mat::index_t cols() const override { return shape_.cols; }
  mat::offset_t nnz() const override { return shape_.nnz; }
  int block_size() const { return bs_; }
  std::size_t num_blocks() const { return blk_col_.size(); }
  /// Stored slots per actual non-zero (1.0 = no fill-in).
  double fill_in() const {
    return shape_.nnz == 0
               ? 1.0
               : static_cast<double>(blk_col_.size()) *
                     static_cast<double>(bs_ * bs_) /
                     static_cast<double>(shape_.nnz);
  }

  /// The simulated kernel's value, bit for bit (block_row_values).
  void apply(const std::vector<T>& x, std::vector<T>& y) const override {
    ACSR_CHECK(static_cast<mat::index_t>(x.size()) == shape_.cols);
    y.assign(static_cast<std::size_t>(shape_.rows), T{0});
    block_row_values(vgpu::host_span(blk_row_off_), vgpu::host_span(blk_col_),
                     vgpu::host_span(blk_val_), n_block_rows_, bs_,
                     shape_.rows, vgpu::host_span(x), vgpu::host_span(y));
  }

  double simulate(const std::vector<T>& x, std::vector<T>& y) override {
    ACSR_CHECK(static_cast<mat::index_t>(x.size()) == shape_.cols);
    auto x_dev = this->stage_x(x);
    auto y_dev = this->stage_y(static_cast<std::size_t>(shape_.rows));

    // One warp per block-row: lanes split across the row's blocks, each
    // lane computing its block's bs x bs product for one output sub-row.
    vgpu::LaunchConfig cfg;
    cfg.name = "bcsr";
    cfg.block_dim = 128;
    cfg.grid_dim = std::max<long long>(1, (n_block_rows_ + 3) / 4);
    auto ro = broff_dev_.cspan();
    auto bc = bcol_dev_.cspan();
    auto bv = bval_dev_.cspan();
    auto xs = x_dev;
    auto ys = y_dev;
    const mat::index_t nbr = n_block_rows_;
    const int bs = bs_;
    const mat::index_t n_rows = shape_.rows;

    const vgpu::KernelRun run =
        this->dev_.launch_warps(cfg, [&](vgpu::Warp& w) {
          using vgpu::LaneArray;
          using vgpu::Mask;
          const long long br = w.global_warp();
          if (br >= nbr) return;
          const mat::offset_t lo =
              w.load_scalar(ro, static_cast<std::size_t>(br));
          const mat::offset_t hi =
              w.load_scalar(ro, static_cast<std::size_t>(br) + 1);
          const auto area = static_cast<long long>(bs * bs);

          // Accumulators for the block-row's bs output rows, kept in the
          // first bs lanes after the reduction.
          std::array<T, 8> out{};
          const int per_step = vgpu::kWarpSize / bs;
          for (mat::offset_t b = lo; b < hi; b += per_step) {
            // Each group of bs lanes takes one block; lane i within the
            // group owns output sub-row i. Lanes past the last whole
            // group (32 % bs of them) stay off: their block is the next
            // step's first.
            Mask m = 0;
            LaneArray<long long> bidx{};
            LaneArray<int> sub{};
            for (int l = 0; l < vgpu::kWarpSize; ++l) {
              const long long mine = b + l / bs;
              if (l / bs < per_step && mine < hi) {
                m |= vgpu::lane_bit(l);
                bidx[l] = mine;
                sub[l] = l % bs;
              }
            }
            if (m == 0) break;
            const LaneArray<mat::index_t> bcol = w.load(bc, bidx, m);
            LaneArray<T> sum{};
            for (int j = 0; j < bs; ++j) {
              LaneArray<long long> vslot;
              LaneArray<long long> xidx;
              Mask mj = 0;  // the matrix edge may cut the last block column
              for (int l = 0; l < vgpu::kWarpSize; ++l) {
                vslot[l] = bidx[l] * area + sub[l] * bs + j;
                xidx[l] = static_cast<long long>(bcol[l]) * bs + j;
                if (vgpu::lane_active(m, l) &&
                    xidx[l] < static_cast<long long>(xs.size()))
                  mj |= vgpu::lane_bit(l);
              }
              if (mj == 0) continue;
              const LaneArray<T> val = w.load(bv, vslot, mj);
              const LaneArray<T> xv = w.load_tex(xs, xidx, mj);
              vgpu::fma_into(sum, val, xv, mj);
              w.count_flops(mj, 2, sizeof(T) == 8);
            }
            // Fold the per-block partial sums into the block-row
            // accumulators (functional: sequential; cost: one shuffle
            // round + adds).
            w.count_shuffles(5);
            w.count_alu(4);
            for (int l = 0; l < vgpu::kWarpSize; ++l)
              if (vgpu::lane_active(m, l))
                out[static_cast<std::size_t>(sub[l])] += sum[l];
          }
          // First bs lanes store the block-row's outputs.
          LaneArray<long long> rows_idx{};
          LaneArray<T> vals_out{};
          Mask store_m = 0;
          for (int i = 0; i < bs; ++i) {
            const long long row = br * bs + i;
            if (row >= n_rows) break;
            rows_idx[i] = row;
            vals_out[i] = out[static_cast<std::size_t>(i)];
            store_m |= vgpu::lane_bit(i);
          }
          w.store(ys, rows_idx, vals_out, store_m);
        },
        nullptr,
        [&] { block_row_values(ro, bc, bv, nbr, bs, n_rows, xs, ys); });
    this->report_.last_run = run;
    y = this->staged_y();
    return run.duration_s;
  }

 private:
  /// Value kernel of the bcsr grid. Per block row, each step puts
  /// per_step = 32 / bs blocks on the warp: lane l < per_step * bs takes
  /// sub-row l % bs of block b + l / bs and sums it over j into a +0
  /// accumulator (columns past the matrix edge skipped); the lanes fold
  /// into the block row's outputs in lane order, and the block row's
  /// first bs rows store them. Block rows run in chunks balanced by their
  /// block counts on the block pool.
  static void block_row_values(vgpu::DeviceSpan<const mat::offset_t> ro,
                               vgpu::DeviceSpan<const mat::index_t> bc,
                               vgpu::DeviceSpan<const T> bv, mat::index_t nbr,
                               int bs, mat::index_t n_rows,
                               vgpu::DeviceSpan<const T> x,
                               vgpu::DeviceSpan<T> y) {
    const auto area = static_cast<long long>(bs * bs);
    const auto block_rows = [&](long long br0, long long br1) {
      for (long long br = br0; br < br1; ++br) {
        const mat::offset_t lo = ro[static_cast<std::size_t>(br)];
        const mat::offset_t hi = ro[static_cast<std::size_t>(br) + 1];
        std::array<T, 8> out{};
        const int per_step = vgpu::kWarpSize / bs;
        for (mat::offset_t b = lo; b < hi; b += per_step) {
          for (int l = 0; l < per_step * bs; ++l) {
            const long long mine = b + l / bs;
            if (mine >= hi) break;
            const int sub = l % bs;
            const mat::index_t bcol = bc[static_cast<std::size_t>(mine)];
            T sum{};
            for (int j = 0; j < bs; ++j) {
              const long long xi = static_cast<long long>(bcol) * bs + j;
              if (xi >= static_cast<long long>(x.size())) continue;
              sum +=
                  bv[static_cast<std::size_t>(mine * area + sub * bs + j)] *
                  x[static_cast<std::size_t>(xi)];
            }
            out[static_cast<std::size_t>(sub)] += sum;
          }
        }
        for (int i = 0; i < bs; ++i) {
          const long long row = br * bs + i;
          if (row >= n_rows) break;
          y[static_cast<std::size_t>(row)] = out[static_cast<std::size_t>(i)];
        }
      }
    };
    // ro[0..nbr] is monotone in a built matrix; otherwise serve it in order
    // and let the row walk report it.
    if (nbr < 1 || ro.size() <= static_cast<std::size_t>(nbr)) {
      block_rows(0, nbr);
      return;
    }
    for_balanced_chunks(
        nbr, 1,
        [&](long long br) {
          return (ro[static_cast<std::size_t>(br)] - ro[0]) * area + br;
        },
        block_rows);
  }

  void build(const mat::Csr<T>& a, vgpu::HostModel& hm) {
    n_block_rows_ = (a.rows + bs_ - 1) / bs_;
    const auto area = static_cast<std::size_t>(bs_ * bs_);
    blk_row_off_.assign(static_cast<std::size_t>(n_block_rows_) + 1, 0);
    blk_col_.clear();
    blk_val_.clear();
    for (mat::index_t br = 0; br < n_block_rows_; ++br) {
      // Collect the block columns touched by this block-row.
      std::map<mat::index_t, std::size_t> cols_in_row;
      for (int i = 0; i < bs_; ++i) {
        const mat::index_t r = br * bs_ + i;
        if (r >= a.rows) break;
        for (mat::offset_t k = a.row_off[static_cast<std::size_t>(r)];
             k < a.row_off[static_cast<std::size_t>(r) + 1]; ++k)
          cols_in_row.emplace(
              a.col_idx[static_cast<std::size_t>(k)] / bs_, 0);
      }
      for (auto& [bc, idx] : cols_in_row) {
        idx = blk_col_.size();
        blk_col_.push_back(bc);
        blk_val_.insert(blk_val_.end(), area, T{0});
      }
      for (int i = 0; i < bs_; ++i) {
        const mat::index_t r = br * bs_ + i;
        if (r >= a.rows) break;
        for (mat::offset_t k = a.row_off[static_cast<std::size_t>(r)];
             k < a.row_off[static_cast<std::size_t>(r) + 1]; ++k) {
          const mat::index_t c = a.col_idx[static_cast<std::size_t>(k)];
          const std::size_t b = cols_in_row[c / bs_];
          blk_val_[b * area + static_cast<std::size_t>(i * bs_ + c % bs_)] =
              a.vals[static_cast<std::size_t>(k)];
        }
      }
      blk_row_off_[static_cast<std::size_t>(br) + 1] =
          static_cast<mat::offset_t>(blk_col_.size());
    }
    // Restructure touches nnz entries plus every (partly zero) block slot,
    // with map overhead for the block discovery.
    hm.charge_ops(4.0 * static_cast<double>(a.nnz()) +
                  2.0 * static_cast<double>(blk_val_.size()));
    this->report_.padding_ratio =
        blk_val_.empty()
            ? 0.0
            : 1.0 - static_cast<double>(a.nnz()) /
                        static_cast<double>(blk_val_.size());
  }

  void upload() {
    broff_dev_ = this->dev_.template alloc<mat::offset_t>(
        blk_row_off_.size(), "bcsr.roff");
    broff_dev_.host() = blk_row_off_;
    bcol_dev_ = this->dev_.template alloc<mat::index_t>(blk_col_.size(),
                                                        "bcsr.col");
    bcol_dev_.host() = blk_col_;
    bval_dev_ =
        this->dev_.template alloc<T>(blk_val_.size(), "bcsr.val");
    bval_dev_.host() = blk_val_;
    const std::size_t b =
        broff_dev_.bytes() + bcol_dev_.bytes() + bval_dev_.bytes();
    this->charge_upload(b);
    this->report_.device_bytes = b;
  }

  MatShape shape_;
  int bs_;
  mat::index_t n_block_rows_ = 0;
  std::vector<mat::offset_t> blk_row_off_;
  std::vector<mat::index_t> blk_col_;
  std::vector<T> blk_val_;
  vgpu::DeviceBuffer<mat::offset_t> broff_dev_;
  vgpu::DeviceBuffer<mat::index_t> bcol_dev_;
  vgpu::DeviceBuffer<T> bval_dev_;
};

/// Shape class of the BCSR kernel: a block-CSR structure over bs x bs
/// tiles. The tile-value slot bidx*bs^2 + sub*bs + j stays inside the
/// n_blocks*bs^2 store by cancellation ((n_blocks-1)*bs^2 + (bs-1)*bs +
/// (bs-1) == n_blocks*bs^2 - 1, with bs symbolic in [1, 8]); the x index
/// bcol*bs + j is additionally edge-guarded by the kernel's xs.size()
/// mask, which the model mirrors as an interval refinement.
inline analysis::ShapeClass bcsr_shape_class() {
  namespace an = acsr::analysis;
  const an::Sym n_rows = an::Sym::param("n_rows");
  const an::Sym n_cols = an::Sym::param("n_cols");
  const an::Sym nbr = an::Sym::param("nbr");
  const an::Sym n_blocks = an::Sym::param("n_blocks");
  const an::Sym bs = an::Sym::param("bs");
  const an::Sym n_bcols = an::Sym::param("n_bcols");
  an::ShapeClass sc;
  sc.engine = "bcsr";
  sc.params = {an::param("n_rows", 0, "matrix rows"),
               an::param("n_cols", 0, "matrix columns"),
               an::param("nbr", 0, "block rows"),
               an::param("n_blocks", 0, "stored bs x bs tiles"),
               an::param("bs", 1, 8, "tile edge (ACSR_REQUIRE'd <= 8)"),
               an::param("n_bcols", 0, "block columns"),
               an::param("grid", 1, "launch grid dim")};
  sc.spans = {
      an::index_span("bcsr.roff", nbr + an::Sym(1), {an::Sym(0), n_blocks},
                     "block-row pointers", true),
      an::index_span("bcsr.col", n_blocks,
                     {an::Sym(0), n_bcols - an::Sym(1)},
                     "tile block-column ids"),
      an::data_span("bcsr.val", n_blocks * bs * bs, "dense tile values"),
      an::data_span("x", n_cols, "input vector"),
      an::data_span("y", n_rows, "output vector", /*initialized=*/false),
  };
  return sc;
}

}  // namespace acsr::spmv
