// CSR-vector (cuSPARSE/CUSP style): a thread-group of V = 2^k lanes
// cooperates on each row, V chosen from the mean row length, with
// segmented-warp operation so one warp covers 32/V rows. This is the
// library-quality CSR baseline the paper compares ACSR against.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <vector>

#include "analysis/shape.hpp"
#include "spmv/csr_device.hpp"
#include "spmv/engine.hpp"
#include "vgpu/lane_array.hpp"

namespace acsr::spmv {

/// One warp's V-lane row groups (V a power of two, as the shuffle
/// reduction requires): group g — lanes g*V .. g*V + V - 1 — serves slot
/// first_slot + g. A slot indexes row_map when present (ACSR bins, ooc
/// slabs) or is the row id itself (plain CSR-vector, empty row_map). The
/// shared setup and row walk of csr_vector_warp, csr_vector_spmm_warp and
/// the ACSR bin SpMM kernel; every per-group array is indexed by g.
struct VectorGroups {
  int vec = 1;
  vgpu::Mask live = 0;   // live groups, bit g
  vgpu::Mask lanes = 0;  // their lanes
  vgpu::Mask heads = 0;  // their first lanes, which publish the row sums
  std::array<long long, vgpu::kWarpSize> row{};
  std::array<mat::offset_t, vgpu::kWarpSize> start{};
  std::array<mat::offset_t, vgpu::kWarpSize> end{};

  /// Decodes the warp's groups and loads their extents — row_map (when
  /// present), row_start, row_end — one group-broadcast gather each. A
  /// group is live when its lanes are active and its slot is below
  /// map_size. A group the block edge cuts is an InvariantError: its live
  /// sub-lanes would publish a partial row sum. False when none is live.
  bool load(vgpu::Warp& w, int vec_size,
            vgpu::DeviceSpan<const mat::offset_t> row_start,
            vgpu::DeviceSpan<const mat::offset_t> row_end,
            vgpu::DeviceSpan<const mat::index_t> row_map, long long map_size,
            long long first_slot) {
    ACSR_CHECK(vec_size > 0 && vec_size <= vgpu::kWarpSize &&
               (vec_size & (vec_size - 1)) == 0);
    vec = vec_size;
    const vgpu::Mask one = vgpu::first_lanes(vec);
    for (int g = 0; g * vec < vgpu::kWarpSize; ++g) {
      const vgpu::Mask on = w.active_mask() & (one << (g * vec));
      ACSR_CHECK_MSG(on == 0 || on == one << (g * vec),
                     "V-lane group " << g << " (V = " << vec
                                     << ") cut by the block edge");
      if (on != 0 && first_slot + g < map_size) {
        live |= vgpu::lane_bit(g);
        row[static_cast<std::size_t>(g)] = first_slot + g;
      }
    }
    if (live == 0) return false;
    lanes = vgpu::group_lanes(live, vec);
    for (vgpu::Mask rem = live; rem != 0; rem &= rem - 1)
      heads |= vgpu::lane_bit(std::countr_zero(rem) * vec);
    if (!row_map.empty()) {
      std::array<mat::index_t, vgpu::kWarpSize> mapped{};
      w.load_broadcast(row_map, vec, row, live, mapped);
      for (vgpu::Mask rem = live; rem != 0; rem &= rem - 1) {
        const auto g = static_cast<std::size_t>(std::countr_zero(rem));
        row[g] = mapped[g];
      }
    }
    w.load_broadcast(row_start, vec, row, live, start);
    w.load_broadcast(row_end, vec, row, live, end);
    return true;
  }

  /// Row ids on the head lanes, the index vector of the y stores.
  vgpu::LaneArray<long long> head_rows() const {
    vgpu::LaneArray<long long> r{};
    for (vgpu::Mask rem = live; rem != 0; rem &= rem - 1) {
      const int g = std::countr_zero(rem);
      r[g * vec] = row[static_cast<std::size_t>(g)];
    }
    return r;
  }

  /// First step of the row walk: each live group's run starts at its
  /// row's first entry. `walking` tracks the groups still inside their
  /// rows. Returns the lanes with an entry this step.
  vgpu::Mask walk_begin(vgpu::LaneRuns& runs, vgpu::Mask& walking) const {
    runs.vec = vec;
    walking = live;
    for (vgpu::Mask rem = live; rem != 0; rem &= rem - 1) {
      const auto g = static_cast<std::size_t>(std::countr_zero(rem));
      runs.base[g] = start[g];
    }
    return clip(runs, walking);
  }

  /// Next step: every walking group advances V entries (lane j of group g
  /// reads entry start[g] + j + kV at step k, as the per-lane walk does).
  vgpu::Mask walk_next(vgpu::LaneRuns& runs, vgpu::Mask& walking) const {
    for (vgpu::Mask rem = walking; rem != 0; rem &= rem - 1)
      runs.base[static_cast<std::size_t>(std::countr_zero(rem))] += vec;
    return clip(runs, walking);
  }

 private:
  /// Sets each walking group's run length to its row's remaining entries,
  /// at most V, and drops the groups that have none left.
  vgpu::Mask clip(vgpu::LaneRuns& runs, vgpu::Mask& walking) const {
    vgpu::Mask m = 0;
    for (vgpu::Mask rem = walking; rem != 0; rem &= rem - 1) {
      const int g = std::countr_zero(rem);
      const auto gi = static_cast<std::size_t>(g);
      const mat::offset_t left = end[gi] - runs.base[gi];
      const int n = left <= 0 ? 0 : left >= vec ? vec : static_cast<int>(left);
      runs.len[gi] = n;
      if (n == 0) walking &= ~vgpu::lane_bit(g);
      m |= vgpu::first_lanes(n) << (g * vec);
    }
    return m;
  }
};

// --- exact-order host value kernels ------------------------------------------
// One host kernel per simulated kernel, reproducing its floating-point
// order bit for bit: it is both the engine's `apply` and, as the launch's
// ValueRef, the way a replayed launch computes y (vgpu/memo.hpp).

/// The warp-sum order every kernel here shares: lane j < lanes sums the
/// entries first + j, first + j + stride, ... below end in order (a lane
/// with none holds +0, as a zero-initialised register does), then the
/// butterfly part[j] += part[j + d], d = lanes/2 ... 1, leaves the sum in
/// lane 0. ci/va are the row's raw col/val arrays, already range-checked
/// over [first, end); x_at performs each x read with its own check.
template <class T, class XAt>
T lane_tree_sum(const mat::index_t* ci, const T* va, mat::offset_t first,
                mat::offset_t end, mat::offset_t stride, int lanes,
                const XAt& x_at) {
  T part[vgpu::kWarpSize];
  for (int j = 0; j < lanes; ++j) {
    T acc{};
    for (mat::offset_t e = first + j; e < end; e += stride)
      acc += va[e] * x_at(ci[e]);
    part[j] = acc;
  }
  for (int d = lanes / 2; d > 0; d /= 2)
    for (int j = 0; j < d; ++j) part[j] = part[j] + part[j + d];
  return part[0];
}

/// The row sum csr_vector_warp publishes for a row on V lanes. The row's
/// col/val range is checked once — col_idx, then vals, as the kernel's
/// gather checks them — and then read raw (an empty or inverted range
/// reads nothing and sums to +0, as the kernel's walk does).
template <class T, class XAt>
T vector_row_value(int vec, vgpu::DeviceSpan<const mat::index_t> col_idx,
                   vgpu::DeviceSpan<const T> vals, mat::offset_t start,
                   mat::offset_t end, const XAt& x_at) {
  const mat::index_t* ci = nullptr;
  const T* va = nullptr;
  if (start < end) {
    ci = col_idx.checked_base(start, end - 1);
    va = vals.checked_base(start, end - 1);
  }
  return lane_tree_sum(ci, va, start, end, static_cast<mat::offset_t>(vec),
                       vec, x_at);
}

/// Stores vector_row_value for slots [s0, s1) of a csr_vector_warp grid
/// (row = row_map[slot], or the slot itself when row_map is empty) into
/// y, in slot order: one chunk of csr_vector_rows. Takes its spans by
/// value so the row loop keeps them in registers.
template <class T, class XAt>
void csr_vector_slots(int vec, vgpu::DeviceSpan<const mat::offset_t> row_start,
                      vgpu::DeviceSpan<const mat::offset_t> row_end,
                      vgpu::DeviceSpan<const mat::index_t> col_idx,
                      vgpu::DeviceSpan<const T> vals,
                      vgpu::DeviceSpan<const mat::index_t> row_map,
                      long long s0, long long s1, XAt x_at,
                      vgpu::DeviceSpan<T> y) {
  for (long long s = s0; s < s1; ++s) {
    const auto row = static_cast<std::size_t>(
        row_map.empty() ? s : row_map[static_cast<std::size_t>(s)]);
    y[row] = vector_row_value<T>(vec, col_idx, vals, row_start[row],
                                 row_end[row], x_at);
  }
}

/// Value kernel of a csr_vector_warp grid over slots 0 .. n_slots-1: each
/// row's vector_row_value, as the grid's group heads store it, in
/// nnz-balanced chunks of slots on the block pool (for_row_chunks). Every
/// extent and row-map read is bounds-checked.
template <class T, class XAt>
void csr_vector_rows(int vec, vgpu::DeviceSpan<const mat::offset_t> row_start,
                     vgpu::DeviceSpan<const mat::offset_t> row_end,
                     vgpu::DeviceSpan<const mat::index_t> col_idx,
                     vgpu::DeviceSpan<const T> vals,
                     vgpu::DeviceSpan<const mat::index_t> row_map,
                     long long n_slots, const XAt& x_at,
                     vgpu::DeviceSpan<T> y) {
  for_row_chunks(row_start, row_end, row_map, n_slots, 1,
                 [&](long long s0, long long s1) {
                   csr_vector_slots<T>(vec, row_start, row_end, col_idx, vals,
                                       row_map, s0, s1, x_at, y);
                 });
}

/// csr_vector_rows for each of the k columns of a batched launch — x
/// column c read from the packed block (x_reader(xp, k, c)), y column c
/// of yb (y_column) — with the column loop inside the row loop, so each
/// chunk walks its rows' extents once for all k columns. Every column is
/// csr_vector_rows' value bit for bit.
template <class T>
void csr_vector_rows_batch(int vec,
                           vgpu::DeviceSpan<const mat::offset_t> row_start,
                           vgpu::DeviceSpan<const mat::offset_t> row_end,
                           vgpu::DeviceSpan<const mat::index_t> col_idx,
                           vgpu::DeviceSpan<const T> vals,
                           vgpu::DeviceSpan<const mat::index_t> row_map,
                           long long n_slots, vgpu::DeviceSpan<const T> xp,
                           int k, vgpu::DeviceSpan<T> yb, long long ldy,
                           long long n_rows) {
  for_row_chunks(
      row_start, row_end, row_map, n_slots, k,
      [&](long long s0, long long s1) {
        for (long long s = s0; s < s1; ++s) {
          const auto row = static_cast<std::size_t>(
              row_map.empty() ? s : row_map[static_cast<std::size_t>(s)]);
          const mat::offset_t start = row_start[row];
          const mat::offset_t end = row_end[row];
          for (int c = 0; c < k; ++c)
            y_column(yb, ldy, n_rows, c)[row] = vector_row_value<T>(
                vec, col_idx, vals, start, end, x_reader(xp, k, c));
        }
      });
}

/// Warp body: processes 32/V consecutive rows starting at warp_first_row.
/// Shared with the ACSR bin-specific kernels (Algorithm 2 is exactly this
/// with a per-bin V).
template <class T>
void csr_vector_warp(vgpu::Warp& w, int vec_size,
                     vgpu::DeviceSpan<const mat::offset_t> row_start,
                     vgpu::DeviceSpan<const mat::offset_t> row_end,
                     vgpu::DeviceSpan<const mat::index_t> col_idx,
                     vgpu::DeviceSpan<const T> vals,
                     vgpu::DeviceSpan<const T> x, vgpu::DeviceSpan<T> y,
                     vgpu::DeviceSpan<const mat::index_t> row_map,
                     long long map_size, long long warp_first_slot,
                     bool use_tex = true) {
  using vgpu::LaneArray;
  using vgpu::Mask;

  VectorGroups grp;
  if (!grp.load(w, vec_size, row_start, row_end, row_map, map_size,
                warp_first_slot))
    return;

  w.count_alu(3);

  // Each step, group g's lanes read the next run of its row's entries
  // (one segmented-affine col/val gather); a group leaves the walk for
  // good when its row runs out, so the divergent tail costs only the
  // groups still live.
  LaneArray<T> sum{};
  LaneArray<mat::index_t> col;
  LaneArray<T> val;
  vgpu::LaneRuns runs;
  Mask walking = 0;
  for (Mask m = grp.walk_begin(runs, walking); m != 0;
       m = grp.walk_next(runs, walking)) {
    w.load_pair_runs(col_idx, vals, runs, col, val);
    // x through the texture path (the paper's choice, also cuSPARSE's) or
    // the plain global path for the ablation.
    const LaneArray<T> xv = use_tex ? w.load_tex(x, col, m)
                                    : w.load_gather_uncached(x, col, m);
    vgpu::fma_into(sum, val, xv, m);
    w.count_flops(m, 2, sizeof(T) == 8);
    w.count_alu(2);
  }

  // Intra-group shuffle reduction; the group leader publishes. Every
  // caller (plain CSR-vector, the ACSR bins) owns its rows exclusively,
  // so this is a plain store (beta = 0 semantics) — no read-modify-write.
  w.store(y, grp.head_rows(), w.reduce_heads(sum, grp.lanes, vec_size),
          grp.heads);
}

/// Column-blocked SpMM body on the csr_vector structure: one warp = 32/V
/// row slots, looping over the column tiles of the vector block. Per
/// matrix entry the col/val pair comes from DRAM on the first tile and
/// from the warp's sector cache on every re-walk after it — the batch
/// pays the A traffic once, while the tile bound (kSpmmTile accumulator
/// sets) keeps register pressure flat for any width. Per column the
/// per-lane stride-V accumulation and butterfly reduction run in exactly
/// the scalar kernel's order, so each output column is bit-identical to
/// csr_vector_warp. Takes the same (row_map, warp_first_slot) plumbing as
/// csr_vector_warp so the ACSR bin SpMM grids could share it. xp is the
/// packed row-major x slab (xp[col*k + c], EngineBase::stage_x_pack): a
/// tile's kt gathers per matrix column land in contiguous elements, so
/// the batch shares x sectors across the tile instead of paying one per
/// column.
template <class T>
void csr_vector_spmm_warp(vgpu::Warp& w, int vec_size,
                          vgpu::DeviceSpan<const mat::offset_t> row_start,
                          vgpu::DeviceSpan<const mat::offset_t> row_end,
                          vgpu::DeviceSpan<const mat::index_t> col_idx,
                          vgpu::DeviceSpan<const T> vals,
                          vgpu::DeviceSpan<const T> xp, vgpu::DeviceSpan<T> yb,
                          long long ldy, long long n_rows,
                          vgpu::DeviceSpan<const mat::index_t> row_map,
                          long long map_size, long long warp_first_slot,
                          int k, bool use_tex = true) {
  using vgpu::LaneArray;
  using vgpu::Mask;

  VectorGroups grp;
  if (!grp.load(w, vec_size, row_start, row_end, row_map, map_size,
                warp_first_slot))
    return;
  w.count_alu(3);  // slot/sub decode
  const LaneArray<long long> rows = grp.head_rows();

  for (int c_begin = 0; c_begin < k; c_begin += kSpmmTile) {
    const int kt = std::min(k, c_begin + kSpmmTile) - c_begin;
    w.count_alu(1);  // tile bookkeeping

    std::array<vgpu::DeviceSpan<T>, kSpmmTile> ycol;
    for (int c = 0; c < kt; ++c) {
      const auto gc = static_cast<std::size_t>(c_begin + c);
      ycol[static_cast<std::size_t>(c)] =
          yb.subspan(gc * static_cast<std::size_t>(ldy),
                     static_cast<std::size_t>(n_rows));
    }

    vgpu::LaneTile<T> sums;
    vgpu::LaneTile<T> xt;
    LaneArray<mat::index_t> col;
    LaneArray<T> val;
    vgpu::LaneRuns runs;
    Mask walking = 0;
    for (Mask m = grp.walk_begin(runs, walking); m != 0;
         m = grp.walk_next(runs, walking)) {
      // A sectors: DRAM on the first tile, warp sector cache afterwards.
      w.load_pair_runs(col_idx, vals, runs, col, val);
      load_x_tile(w, xp, col, k, c_begin, kt, m, use_tex, xt);
      vgpu::fma_into(sums, val, xt, kt, m);
      w.count_flops(m, 2 * kt, sizeof(T) == 8);
      w.count_alu(2);
    }

    const auto red = w.reduce_heads(sums, kt, grp.lanes, vec_size);
    for (int c = 0; c < kt; ++c)
      w.store(ycol[static_cast<std::size_t>(c)], rows,
              red[static_cast<std::size_t>(c)], grp.heads);
  }
}

/// The CUSP heuristic: vector size = nearest power of two to the mean row
/// length, clamped to [2, 32].
inline int choose_vector_size(double mean_nnz_per_row) {
  int v = 2;
  while (v < 32 && static_cast<double>(v) * 2.0 <= mean_nnz_per_row) v <<= 1;
  return v;
}

template <class T>
class CsrVectorEngine final : public EngineBase<T> {
 public:
  CsrVectorEngine(vgpu::Device& dev, const mat::Csr<T>& a,
                  int vec_size_override = 0)
      : EngineBase<T>(dev, "CSR-vector"), host_(a) {
    const double mu =
        a.rows == 0 ? 1.0
                    : static_cast<double>(a.nnz()) / static_cast<double>(a.rows);
    vec_size_ = vec_size_override > 0 ? vec_size_override
                                      : choose_vector_size(mu);
    dev_csr_ = CsrDevice<T>::upload(dev, a, this->name());
    this->charge_upload(dev_csr_.bytes());
    this->report_.device_bytes = dev_csr_.bytes();
  }

  int vector_size() const { return vec_size_; }

  mat::index_t rows() const override { return host_.rows; }
  mat::index_t cols() const override { return host_.cols; }
  mat::offset_t nnz() const override { return host_.nnz(); }

  /// The simulated kernel's value, bit for bit (csr_vector_rows).
  void apply(const std::vector<T>& x, std::vector<T>& y) const override {
    ACSR_CHECK(static_cast<mat::index_t>(x.size()) == host_.cols);
    const auto nrows = static_cast<std::size_t>(host_.rows);
    y.assign(nrows, T{0});
    csr_vector_rows<T>(vec_size_, vgpu::host_span(host_.row_off, 0, nrows),
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

    const int rows_per_warp = vgpu::kWarpSize / vec_size_;
    const long long warps_needed =
        (static_cast<long long>(host_.rows) + rows_per_warp - 1) /
        rows_per_warp;
    const int warps_per_block = 4;  // 128-thread blocks
    vgpu::LaunchConfig cfg;
    cfg.name = "csr_vector";
    cfg.block_dim = warps_per_block * vgpu::kWarpSize;
    cfg.grid_dim = std::max<long long>(
        1, (warps_needed + warps_per_block - 1) / warps_per_block);
    cfg.blocks_independent = true;  // one storing group head per row

    const auto nrows = static_cast<std::size_t>(host_.rows);
    auto rs = dev_csr_.row_off.cspan().subspan(0, nrows);
    auto re = dev_csr_.row_off.cspan().subspan(1, nrows);
    auto ci = dev_csr_.col_idx.cspan();
    auto va = dev_csr_.vals.cspan();
    auto xs = x_dev;
    auto ys = y_dev;
    const long long n = host_.rows;
    const int v = vec_size_;
    const vgpu::DeviceSpan<const mat::index_t> no_map;
    const vgpu::KernelRun run = this->dev_.launch_warps(
        cfg,
        [&](vgpu::Warp& w) {
          const long long first = w.global_warp() * rows_per_warp;
          if (first >= n) return;
          csr_vector_warp<T>(w, v, rs, re, ci, va, xs, ys, no_map, n, first);
        },
        nullptr,
        [&] {
          csr_vector_rows<T>(v, rs, re, ci, va, no_map, n, x_reader(xs), ys);
        });
    this->report_.last_run = run;
    y = this->staged_y();
    return run.duration_s;
  }

  /// Real column-blocked SpMM: the scalar kernel's slot grid, each warp
  /// looping over the column tiles with its matrix sectors kept hot in
  /// its sector cache.
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

    const int rows_per_warp = vgpu::kWarpSize / vec_size_;
    const long long warps_needed =
        (static_cast<long long>(host_.rows) + rows_per_warp - 1) /
        rows_per_warp;
    const int warps_per_block = 4;
    vgpu::LaunchConfig cfg;
    cfg.name = "csr_vector_spmm";
    cfg.block_dim = warps_per_block * vgpu::kWarpSize;
    cfg.grid_dim = std::max<long long>(
        1, (warps_needed + warps_per_block - 1) / warps_per_block);
    cfg.blocks_independent = true;  // one storing group head per row

    const auto nrows = static_cast<std::size_t>(host_.rows);
    auto rs = dev_csr_.row_off.cspan().subspan(0, nrows);
    auto re = dev_csr_.row_off.cspan().subspan(1, nrows);
    auto ci = dev_csr_.col_idx.cspan();
    auto va = dev_csr_.vals.cspan();
    const long long n = host_.rows;
    const int v = vec_size_;
    const vgpu::DeviceSpan<const mat::index_t> no_map;
    const vgpu::KernelRun run = this->dev_.launch_warps(
        cfg,
        [&](vgpu::Warp& w) {
          const long long first = w.global_warp() * rows_per_warp;
          if (first >= n) return;
          csr_vector_spmm_warp<T>(w, v, rs, re, ci, va, xp, yb, ldy, n, no_map,
                                  n, first, k);
        },
        nullptr,
        [&] {
          csr_vector_rows_batch<T>(v, rs, re, ci, va, no_map, n, xp, k, yb,
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
  int vec_size_ = 2;
};

/// Shape class of csr_vector_warp in its plain-CSR configuration (empty
/// row_map: slot == row id, map_size == n_rows). Slot ownership is
/// exclusive — exactly one vector group per row, and only the group head
/// (sub == 0) stores — so the y store is race-free by construction; the
/// verifier model declares the stored row indices pairwise-distinct on
/// that ground (docs/ANALYSIS.md).
inline analysis::ShapeClass csr_vector_shape_class() {
  namespace an = acsr::analysis;
  const an::Sym n_rows = an::Sym::param("n_rows");
  const an::Sym n_cols = an::Sym::param("n_cols");
  const an::Sym nnz = an::Sym::param("nnz");
  const an::Sym k = an::Sym::param("k");
  const an::Sym ldy_pad = an::Sym::param("ldy_pad");
  an::ShapeClass sc;
  sc.engine = "csr-vector";
  sc.params = {an::param("n_rows", 0, "matrix rows"),
               an::param("n_cols", 0, "matrix columns"),
               an::param("nnz", 0, "stored non-zeros"),
               an::param("grid", 1, "launch grid dim"),
               // Batched SpMM operands (k >= 1: simulate_batch never
               // launches on a 0-column block — the verified no-op).
               an::param("k", 1, "batch width (0-column blocks never launch)"),
               an::param("ldy_pad", 0, "y-block row padding (ldy - n_rows)")};
  sc.spans = {
      an::index_span("row_start", n_rows, {an::Sym(0), nnz},
                     "per-row begin offsets", true),
      an::index_span("row_end", n_rows, {an::Sym(0), nnz},
                     "per-row end offsets", true),
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
