// COO SpMV with warp-level segmented reduction (Bell & Garland): each warp
// takes 32 consecutive non-zeros, head-flags row boundaries with a ballot,
// runs a shuffle-based segmented scan, and the segment tails accumulate
// into y with atomics. Used both standalone and as the tail of HYB.
#pragma once

#include <algorithm>
#include <bit>
#include <optional>
#include <string>

#include "analysis/shape.hpp"
#include "mat/coo.hpp"
#include "spmv/engine.hpp"
#include "vgpu/lane_array.hpp"

namespace acsr::spmv {

/// The segments of a segmented warp's publish step (coo, tcoo, hyb's
/// tail, merge-csr's carry-out): the lanes of m hold rows, equal rows in
/// consecutive lanes. A lane heads a segment when its predecessor is off
/// or holds another row, and ends one when its successor does or heads
/// the next.
struct Segments {
  vgpu::Mask heads = 0;
  vgpu::Mask tails = 0;
};
inline Segments segments_of(const vgpu::LaneArray<mat::index_t>& row,
                            vgpu::Mask m) {
  using vgpu::lane_active;
  Segments s;
  for (vgpu::Mask rem = m; rem != 0; rem &= rem - 1) {
    const int l = std::countr_zero(rem);
    if (l == 0 || !lane_active(m, l - 1) || row[l] != row[l - 1])
      s.heads |= vgpu::lane_bit(l);
  }
  for (vgpu::Mask rem = m; rem != 0; rem &= rem - 1) {
    const int l = std::countr_zero(rem);
    if (l == vgpu::kWarpSize - 1 || !lane_active(m, l + 1) ||
        lane_active(s.heads, l + 1))
      s.tails |= vgpu::lane_bit(l);
  }
  return s;
}

/// The publish step itself, metered: the head and tail ballots, the
/// segmented scan (segmented_scan_add) and an atomic add of each
/// segment's sum, on its last lane, into y[row] — in ascending lane order.
template <class T>
void publish_segments(vgpu::Warp& w, const vgpu::LaneArray<mat::index_t>& row,
                      const vgpu::LaneArray<T>& v, vgpu::Mask m,
                      vgpu::DeviceSpan<T> y) {
  const Segments s = segments_of(row, m);
  w.count_alu(2);  // the head and tail ballots
  w.atomic_add(y, row, w.segmented_scan_add(v, s.heads, m), s.tails);
}

/// Its host twin for the value kernels: the same segments, the same scan
/// core (vgpu::segmented_scan_lanes) and the same adds in the same order.
template <class T>
void publish_segments(const vgpu::LaneArray<mat::index_t>& row,
                      vgpu::LaneArray<T> v, vgpu::Mask m,
                      vgpu::DeviceSpan<T> y) {
  const Segments s = segments_of(row, m);
  vgpu::segmented_scan_lanes(v, s.heads, m);
  for (vgpu::Mask rem = s.tails; rem != 0; rem &= rem - 1) {
    const int l = std::countr_zero(rem);
    y[static_cast<std::size_t>(row[l])] += v[l];
  }
}

/// Value kernel of a coo_segmented_warp grid over n_entries entries: each
/// 32-entry window, in warp order, forms its products v * x and publishes
/// them as the warp does (publish_segments), on top of what y holds.
template <class T, class XAt>
void coo_segmented_values(vgpu::DeviceSpan<const mat::index_t> row_idx,
                          vgpu::DeviceSpan<const mat::index_t> col_idx,
                          vgpu::DeviceSpan<const T> vals, long long n_entries,
                          const XAt& x_at, vgpu::DeviceSpan<T> y) {
  for (long long base = 0; base < n_entries; base += vgpu::kWarpSize) {
    const int n = static_cast<int>(
        std::min<long long>(vgpu::kWarpSize, n_entries - base));
    vgpu::LaneArray<mat::index_t> r{};
    vgpu::LaneArray<T> prod{};
    for (int l = 0; l < n; ++l) {
      const auto e = static_cast<std::size_t>(base + l);
      r[l] = row_idx[e];
      prod[l] = vals[e] * x_at(col_idx[e]);
    }
    publish_segments(r, prod, vgpu::first_lanes(n), y);
  }
}

/// Warp body over 32 consecutive COO entries starting at `base`. A tiled
/// caller (TCOO) passes its tile's x slice and the slice's first column
/// `col_base`, and the warp rebases its columns into the slice (one ALU
/// op).
template <class T>
void coo_segmented_warp(vgpu::Warp& w,
                        vgpu::DeviceSpan<const mat::index_t> row_idx,
                        vgpu::DeviceSpan<const mat::index_t> col_idx,
                        vgpu::DeviceSpan<const T> vals,
                        vgpu::DeviceSpan<const T> x, vgpu::DeviceSpan<T> y,
                        long long n_entries, long long base,
                        std::optional<mat::index_t> col_base = std::nullopt) {
  using vgpu::LaneArray;
  using vgpu::Mask;

  LaneArray<long long> idx = LaneArray<long long>::iota(base);
  const Mask live = idx.where(
      [n_entries](long long i) { return i < n_entries; }, w.active_mask());
  if (live == 0) return;

  // One COO entry per lane, consecutive: unit-stride loads of all three
  // arrays.
  const LaneArray<mat::index_t> r = w.load_seq(row_idx, base, live);
  LaneArray<mat::index_t> c = w.load_seq(col_idx, base, live);
  if (col_base) {
    for (int l = 0; l < vgpu::kWarpSize; ++l) c[l] -= *col_base;
    w.count_alu(1);
  }
  const LaneArray<T> v = w.load_seq(vals, base, live);
  const LaneArray<T> xv = w.load_tex(x, c, live);
  LaneArray<T> prod;
  for (int l = 0; l < vgpu::kWarpSize; ++l) prod[l] = v[l] * xv[l];
  w.count_flops(live, 1, sizeof(T) == 8);

  // Entries are row-sorted, so equal rows are contiguous within the warp.
  // A true shuffle-based segmented scan (as in CUSP's coo_flat kernel,
  // which stages the same computation through shared memory); each
  // segment's last lane publishes with an atomic (rows may continue into
  // the neighbouring warps).
  publish_segments(w, r, prod, live, y);
}

/// The segmented COO grid over n_entries row-sorted entries, 128 per
/// block, accumulating into y (zeroed, or holding HYB's ELL part): COO's
/// one kernel and HYB's tail, launched under their own names.
template <class T>
vgpu::KernelRun launch_coo_segmented(
    vgpu::Device& dev, std::string name,
    vgpu::DeviceSpan<const mat::index_t> row_idx,
    vgpu::DeviceSpan<const mat::index_t> col_idx,
    vgpu::DeviceSpan<const T> vals, long long n_entries,
    vgpu::DeviceSpan<const T> x, vgpu::DeviceSpan<T> y) {
  const int block = 128;
  vgpu::LaunchConfig cfg;
  cfg.name = std::move(name);
  cfg.block_dim = block;
  cfg.grid_dim = std::max<long long>(1, (n_entries + block - 1) / block);
  return dev.launch_warps(
      cfg,
      [&](vgpu::Warp& w) {
        const long long base = w.global_warp() * vgpu::kWarpSize;
        if (base >= n_entries) return;
        coo_segmented_warp<T>(w, row_idx, col_idx, vals, x, y, n_entries,
                              base);
      },
      nullptr, [&] {
        coo_segmented_values(row_idx, col_idx, vals, n_entries, x_reader(x),
                             y);
      });
}

template <class T>
class CooEngine final : public EngineBase<T> {
 public:
  CooEngine(vgpu::Device& dev, const mat::Csr<T>& a)
      : EngineBase<T>(dev, "COO") {
    vgpu::HostModel hm;
    coo_ = a.to_coo();
    hm.charge_ops(3.0 * static_cast<double>(coo_.nnz()));
    this->report_.preprocess_s = hm.seconds();
    upload();
  }

  mat::index_t rows() const override { return coo_.rows; }
  mat::index_t cols() const override { return coo_.cols; }
  mat::offset_t nnz() const override { return coo_.nnz(); }

  /// The simulated kernels' value, bit for bit (coo_segmented_values).
  void apply(const std::vector<T>& x, std::vector<T>& y) const override {
    ACSR_CHECK(static_cast<mat::index_t>(x.size()) == coo_.cols);
    y.assign(static_cast<std::size_t>(coo_.rows), T{0});
    coo_segmented_values(vgpu::host_span(coo_.row_idx),
                         vgpu::host_span(coo_.col_idx),
                         vgpu::host_span(coo_.vals), coo_.nnz(),
                         x_reader(vgpu::host_span(x)), vgpu::host_span(y));
  }

  double simulate(const std::vector<T>& x, std::vector<T>& y) override {
    ACSR_CHECK(static_cast<mat::index_t>(x.size()) == coo_.cols);
    auto x_dev = this->stage_x(x);
    auto y_dev = this->stage_y(static_cast<std::size_t>(coo_.rows));

    const vgpu::KernelRun zero = zero_fill(this->dev_, y_dev);
    const vgpu::KernelRun run = launch_coo_segmented<T>(
        this->dev_, "coo_segmented", row_dev_.cspan(), col_dev_.cspan(),
        val_dev_.cspan(), coo_.nnz(), x_dev, y_dev);
    this->report_.last_run = run;
    y = this->staged_y();
    return vgpu::combine_sequential({zero, run});
  }

 private:
  void upload() {
    row_dev_ = this->dev_.template alloc<mat::index_t>(coo_.row_idx.size(),
                                                       "coo.row");
    row_dev_.host() = coo_.row_idx;
    col_dev_ = this->dev_.template alloc<mat::index_t>(coo_.col_idx.size(),
                                                       "coo.col");
    col_dev_.host() = coo_.col_idx;
    val_dev_ = this->dev_.template alloc<T>(coo_.vals.size(), "coo.val");
    val_dev_.host() = coo_.vals;
    const std::size_t b = row_dev_.bytes() + col_dev_.bytes() + val_dev_.bytes();
    this->charge_upload(b);
    this->report_.device_bytes = b;
  }

  mat::Coo<T> coo_;
  vgpu::DeviceBuffer<mat::index_t> row_dev_;
  vgpu::DeviceBuffer<mat::index_t> col_dev_;
  vgpu::DeviceBuffer<T> val_dev_;
};

/// Shape class of coo_segmented_warp's inputs: three parallel length-nnz
/// arrays with row ids sorted non-decreasing (the segmented reduction's
/// precondition) and column ids in range. y must be zero-filled before
/// the kernel runs — segment tails accumulate with atomic RMWs, which
/// read the previous value.
inline analysis::ShapeClass coo_shape_class() {
  namespace an = acsr::analysis;
  const an::Sym n_rows = an::Sym::param("n_rows");
  const an::Sym n_cols = an::Sym::param("n_cols");
  const an::Sym nnz = an::Sym::param("nnz");
  an::ShapeClass sc;
  sc.engine = "coo";
  sc.params = {an::param("n_rows", 0, "matrix rows"),
               an::param("n_cols", 0, "matrix columns"),
               an::param("nnz", 0, "stored non-zeros"),
               an::param("grid", 1, "launch grid dim")};
  sc.spans = {
      an::index_span("coo.row", nnz, {an::Sym(0), n_rows - an::Sym(1)},
                     "row ids, sorted non-decreasing", true),
      an::index_span("coo.col", nnz, {an::Sym(0), n_cols - an::Sym(1)},
                     "column indices"),
      an::data_span("coo.val", nnz, "non-zero values"),
      an::data_span("x", n_cols, "input vector"),
      an::data_span("y", n_rows, "output vector", /*initialized=*/false),
  };
  return sc;
}

}  // namespace acsr::spmv
