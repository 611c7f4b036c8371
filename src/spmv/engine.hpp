// SpMV engine interface.
//
// An engine owns one matrix in one device-resident format. Construction
// performs the format's preprocessing (charged to the host cost model) and
// the H2D upload (charged to the PCIe model); `simulate` then executes one
// y = A x on the virtual GPU and returns the simulated kernel time, while
// `apply` is the fast host-side functional path used inside iterative
// applications: the engine's exact-order value kernels, which a memo
// replay also runs (unit tests pin simulate == apply bit for bit).
//
// The split mirrors the paper's measurement protocol: preprocessing and
// transfer are reported separately from SpMV time (Tables III/IV, Fig. 4),
// and iterative apps run many SpMVs against a resident matrix (Fig. 6).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "mat/csr.hpp"
#include "mat/dense_block.hpp"
#include "vgpu/device.hpp"

namespace acsr::spmv {

struct EngineReport {
  std::string format;
  double preprocess_s = 0.0;   // host-side transform / tuning time
  std::size_t h2d_bytes = 0;   // matrix bytes shipped to the device
  double h2d_s = 0.0;
  std::size_t device_bytes = 0;  // resident footprint of the format
  double padding_ratio = 0.0;    // fraction of stored slots that are padding
  // Breakdown of the last simulated SpMV.
  vgpu::KernelRun last_run;      // aggregate of the kernels in one SpMV
};

template <class T>
class SpmvEngine {
 public:
  virtual ~SpmvEngine() = default;

  virtual const std::string& name() const = 0;
  /// The device the engine's kernels run on (apps charge their auxiliary
  /// vector kernels against it).
  virtual vgpu::Device& device() = 0;
  virtual mat::index_t rows() const = 0;
  virtual mat::index_t cols() const = 0;
  virtual mat::offset_t nnz() const = 0;

  /// Host-side functional SpMV (y resized and overwritten).
  virtual void apply(const std::vector<T>& x, std::vector<T>& y) const = 0;

  /// Full simulated SpMV on the device; returns simulated seconds.
  /// x is assumed device-resident (no transfer charged), as in the paper's
  /// iterative measurement loop.
  virtual double simulate(const std::vector<T>& x, std::vector<T>& y) = 0;

  virtual const EngineReport& report() const = 0;

  /// Where the scratch a call of batch width `width` touches sits,
  /// relative to the arena's base (width 1: simulate()). The memo key
  /// folds it in (core/memo_engine.hpp): a call's metering depends on
  /// where its input and output vectors sit.
  virtual std::string scratch_layout(int width) const {
    (void)width;
    return {};
  }

  /// Batched host-side SpMM: Y = A X, one column per query vector. The
  /// default loops the scalar apply() column by column, so every engine is
  /// correct by construction and bit-identical to k scalar applies; the
  /// hot engines override simulate_batch with real column-blocked kernels
  /// (the host path stays the loop — exactness is the contract).
  virtual void apply_batch(const mat::DenseBlock<T>& x_block,
                           mat::DenseBlock<T>& y_block) const {
    apply_batch_loop(x_block, y_block);
  }

  /// Batched simulated SpMM on the device; returns simulated seconds for
  /// the whole block. Default: k sequential simulate() calls (no
  /// amortization — the baseline the real SpMM kernels are measured
  /// against). A 0-column block is a no-op: no kernel is launched.
  virtual double simulate_batch(const mat::DenseBlock<T>& x_block,
                                mat::DenseBlock<T>& y_block) {
    return simulate_batch_loop(x_block, y_block);
  }

  /// Memoized simulated time of one SpMV with a canonical input. The
  /// simulator is deterministic and the kernel time does not depend on the
  /// values of x, so iterative apps can use iterations * spmv_seconds().
  double spmv_seconds() {
    if (cached_spmv_s_ < 0.0) {
      std::vector<T> x(static_cast<std::size_t>(cols()), T{1});
      std::vector<T> y;
      cached_spmv_s_ = simulate(x, y);
    }
    return cached_spmv_s_;
  }

  /// GFLOPs at the paper's convention: 2 flops per stored non-zero.
  double gflops() {
    const double t = spmv_seconds();
    return t <= 0.0 ? 0.0
                    : 2.0 * static_cast<double>(nnz()) / t / 1e9;
  }

 protected:
  void invalidate_cache() { cached_spmv_s_ = -1.0; }

  /// The correct-by-construction batched paths: column loop over the
  /// scalar virtuals. Shared by the defaults above and by the real-SpMM
  /// engines' width<=1 fast paths (a width-1 batch must go through the
  /// scalar simulate() so its launch sequence — and with it the memo
  /// cache key material — is exactly the SpMV one).
  void apply_batch_loop(const mat::DenseBlock<T>& x_block,
                        mat::DenseBlock<T>& y_block) const {
    ACSR_CHECK(x_block.rows == cols());
    y_block.resize(rows(), x_block.width);
    std::vector<T> y;
    for (int c = 0; c < x_block.width; ++c) {
      const std::vector<T> x = x_block.column(c);
      apply(x, y);
      y_block.set_column(c, y);
    }
  }

  double simulate_batch_loop(const mat::DenseBlock<T>& x_block,
                             mat::DenseBlock<T>& y_block) {
    ACSR_CHECK(x_block.rows == cols());
    y_block.resize(rows(), x_block.width);
    double total_s = 0.0;
    std::vector<T> y;
    for (int c = 0; c < x_block.width; ++c) {
      const std::vector<T> x = x_block.column(c);
      total_s += simulate(x, y);
      y_block.set_column(c, y);
    }
    return total_s;
  }

 private:
  double cached_spmv_s_ = -1.0;
};

/// A matrix's dimensions and stored non-zeros: what rows(), cols() and
/// nnz() report for an engine whose device format does not keep them.
struct MatShape {
  mat::index_t rows = 0;
  mat::index_t cols = 0;
  mat::offset_t nnz = 0;

  template <class T>
  explicit MatShape(const mat::Csr<T>& a)
      : rows(a.rows), cols(a.cols), nnz(a.nnz()) {}
};

/// Shared plumbing: name/report storage and the device handle.
template <class T>
class EngineBase : public SpmvEngine<T> {
 public:
  EngineBase(vgpu::Device& dev, std::string name) : dev_(dev) {
    report_.format = std::move(name);
  }

  const std::string& name() const override { return report_.format; }
  vgpu::Device& device() override { return dev_; }
  const EngineReport& report() const override { return report_; }

  /// The staged buffers a call of `width` touches: the block scratch of
  /// that width once an SpMM kernel has staged it, else x and y (an SpMV,
  /// or the column loop). Other widths' buffers stay out, so staging a new
  /// width leaves every other width's key as it was.
  std::string scratch_layout(int width) const override {
    std::string s;
    const auto add = [&](const char* what, const vgpu::DeviceBuffer<T>& b) {
      if (!b.valid()) return;
      s += what;
      s += '@' + std::to_string(dev_.arena().relative(b.cspan().addr())) +
           ',';
    };
    const auto xp = xp_scratch_.find(width);
    const auto yb = yb_scratch_.find(width);
    if (width > 1 && xp != xp_scratch_.end() && yb != yb_scratch_.end()) {
      add("xp", xp->second);
      add("yb", yb->second);
    } else {
      add("x", x_scratch_);
      add("y", y_scratch_);
    }
    return s;
  }

 protected:
  /// Record a matrix upload: bytes over PCIe into the report.
  void charge_upload(std::size_t bytes) {
    report_.h2d_bytes += bytes;
    report_.h2d_s += dev_.note_transfer(bytes).duration_s;
  }

  /// Stage x into the engine's persistent input scratch buffer (allocated
  /// on first use, reused afterwards). Reuse keeps the device addresses of
  /// x and y fixed across simulate() calls, so sector-cache collision
  /// patterns against the resident matrix — and with them every Counters
  /// field — are iteration-stationary; the memo key records where the
  /// staged buffers sit (scratch_layout). Under the
  /// sanitizer or a byte-flipping fault plan (restage()) a fresh buffer is
  /// allocated per call, preserving precise shadow state and flip-target
  /// registration; memoization is bypassed on both.
  vgpu::DeviceSpan<const T> stage_x(const std::vector<T>& x) {
    if (!x_scratch_.valid() || x_scratch_.size() != x.size() || restage())
      x_scratch_ = dev_.template alloc<T>(x.size(), "x");
    x_scratch_.host() = x;
    return x_scratch_.cspan();
  }

  /// Output counterpart of stage_x: the returned span starts zero-filled
  /// host-side, exactly as a freshly allocated buffer would.
  vgpu::DeviceSpan<T> stage_y(std::size_t n) {
    if (!y_scratch_.valid() || y_scratch_.size() != n || restage()) {
      y_scratch_ = dev_.template alloc<T>(n, "y");
    } else {
      auto& h = y_scratch_.host();
      std::fill(h.begin(), h.end(), T{0});
    }
    return y_scratch_.span();
  }

  /// Host view of the staged output after the kernels ran.
  const std::vector<T>& staged_y() const { return y_scratch_.host(); }

  /// Block counterparts of stage_x/stage_y for the SpMM kernels. Scratch
  /// is kept per batch width so that interleaving widths (the scheduler
  /// mixes batch sizes; the memo key holds each width's own buffers) never
  /// relocates an already-staged width's buffers — the iteration
  /// stationarity stage_x documents, per width.
  ///
  /// The input block is staged *packed row-major*: xpack[col*width + c] =
  /// X(col, c). A warp gathering matrix column `col` for a tile of batch
  /// columns then touches kt contiguous elements, so the texture sector
  /// model shares segments across the tile — the x-side counterpart of
  /// the A arrays' once-per-batch charge. (Column-major gathers put every
  /// batch column a full vector apart: one sector per column per nnz, k
  /// times the scalar x traffic, which is exactly what made the naive
  /// widening memory-bound.) Packing happens host-side at staging time,
  /// where the serving layer writes request vectors anyway; like stage_x,
  /// no transfer is charged — x is device-resident by the paper's
  /// measurement convention.
  vgpu::DeviceSpan<const T> stage_x_pack(const mat::DenseBlock<T>& x_block) {
    const auto n = static_cast<std::size_t>(x_block.rows);
    const auto k = static_cast<std::size_t>(x_block.width);
    auto& buf = xp_scratch_[x_block.width];
    if (!buf.valid() || buf.size() != n * k || restage())
      buf = dev_.template alloc<T>(n * k, "xpack");
    auto& h = buf.host();
    for (std::size_t c = 0; c < k; ++c)
      for (std::size_t r = 0; r < n; ++r)
        h[r * k + c] = x_block.at(static_cast<mat::index_t>(r),
                                  static_cast<int>(c));
    return buf.cspan();
  }

  /// Zero-filled output block scratch of `elems` = ld * width elements.
  vgpu::DeviceSpan<T> stage_y_block(std::size_t elems, int width) {
    auto& buf = yb_scratch_[width];
    if (!buf.valid() || buf.size() != elems || restage()) {
      buf = dev_.template alloc<T>(elems, "yb");
    } else {
      auto& h = buf.host();
      std::fill(h.begin(), h.end(), T{0});
    }
    return buf.span();
  }

  const std::vector<T>& staged_y_block(int width) const {
    return yb_scratch_.at(width).host();
  }

  vgpu::Device& dev_;
  EngineReport report_;

 private:
  /// Whether staging allocates fresh scratch on every call (see stage_x).
  static bool restage() {
    return vgpu::sanitizer_enabled() || vgpu::fault_flips_bytes();
  }

  vgpu::DeviceBuffer<T> x_scratch_;
  vgpu::DeviceBuffer<T> y_scratch_;
  std::map<int, vgpu::DeviceBuffer<T>> xp_scratch_;
  std::map<int, vgpu::DeviceBuffer<T>> yb_scratch_;
};

/// Column-tile width of the batched SpMM kernels: each warp keeps one
/// accumulator per tile column, so 8 bounds the register pressure a real
/// kernel would spend (Yang/Buluç/Owens tile the dense operand the same
/// way). Tiles beyond the first re-walk the matrix arrays, but within one
/// launch the sector model (an L2-resident re-touch is not a new DRAM
/// transaction) charges the A-traffic once — which is exactly the
/// amortization column-blocked SpMM exists for. One tile is one
/// vgpu::LaneTile.
inline constexpr int kSpmmTile = vgpu::kTileCols;

/// The packed x tile of one SpMM walk step: lane l of m gets its slice
/// xp[col[l]*k + c_begin .. + kt-1] of the packed row-major x slab
/// (EngineBase::stage_x_pack) in its row of xt. The texture path issues
/// one short-vector fetch per lane, charged per contiguous sector; the
/// plain global path (the use_texture=false ablation) keeps one
/// per-element gather per column — it has no sector reuse to expose.
template <class T>
void load_x_tile(vgpu::Warp& w, vgpu::DeviceSpan<const T> xp,
                 const vgpu::LaneArray<mat::index_t>& col, int k, int c_begin,
                 int kt, vgpu::Mask m, bool use_tex, vgpu::LaneTile<T>& xt) {
  vgpu::LaneArray<long long> pidx{};
  for (vgpu::Mask rem = m; rem != 0; rem &= rem - 1) {
    const int l = std::countr_zero(rem);
    pidx[l] = static_cast<long long>(col[l]) * k + c_begin;
  }
  w.count_alu(1);  // packed-index math
  if (use_tex) {
    w.load_tex_vec(xp, pidx, kt, m, xt);
    return;
  }
  for (int c = 0; c < kt; ++c) {
    const vgpu::LaneArray<T> xc = w.load_gather_uncached(xp, pidx, m);
    for (vgpu::Mask rem = m; rem != 0; rem &= rem - 1) {
      const int l = std::countr_zero(rem);
      xt[l][static_cast<std::size_t>(c)] = xc[l];
      ++pidx[l];
    }
  }
}

/// x readers of the value kernels, each read bounds-checked: a vector, or
/// column c of the packed row-major block of the SpMM kernels
/// (xp[col*k + c], EngineBase::stage_x_pack).
template <class T>
auto x_reader(vgpu::DeviceSpan<const T> x) {
  return [x](mat::index_t col) { return x[static_cast<std::size_t>(col)]; };
}
template <class T>
auto x_reader(vgpu::DeviceSpan<const T> xp, int k, int c) {
  return [xp, k, c](mat::index_t col) {
    return xp[static_cast<std::size_t>(static_cast<long long>(col) * k + c)];
  };
}

// --- row-parallel value kernels (docs/PERF.md, "Replay on every core") ----
// A row-granular value kernel writes each output element from one item (a
// row, a slot, a block of rows) in a fixed order. Split into consecutive
// chunks that run on the block pool (vgpu::run_chunks), each element is
// still written by one chunk in that order, so the result is the in-order
// one bit for bit.

/// Runs body(begin, end) over items [0, n) cut into consecutive chunks of
/// about equal work: cum(i), 0 <= i <= n, is the work of items [0, i) (with
/// cum(0) == 0), read at O(chunks · log n) points. With w workers there are
/// 8w chunks (at most n), cut where cum crosses multiples of cum(n) / 8w;
/// a non-monotone cum (malformed extents) only unbalances them. In order
/// — body(0, n) — when cum(n) · cols is under the pool's floor (`cols`: a
/// batched kernel's column count).
template <class Cum, class Body>
void for_balanced_chunks(long long n, long long cols, const Cum& cum,
                         const Body& body) {
  const long long total = n < 2 ? 0 : cum(n);
  const int workers = vgpu::value_kernel_workers(total * cols);
  if (workers < 2) {
    body(0, n);
    return;
  }
  const long long n_chunks = std::min<long long>(n, 8LL * workers);
  std::array<long long, 8 * vgpu::ScopedBlockParallelism::kMaxBlockWorkers + 1>
      cut{};
  for (long long c = 1; c < n_chunks; ++c) {
    const long long target = total * c / n_chunks;
    long long lo = cut[static_cast<std::size_t>(c - 1)];
    long long hi = n;
    while (lo < hi) {
      const long long mid = lo + (hi - lo) / 2;
      if (cum(mid) < target)
        lo = mid + 1;
      else
        hi = mid;
    }
    cut[static_cast<std::size_t>(c)] = lo;
  }
  cut[static_cast<std::size_t>(n_chunks)] = n;
  vgpu::run_chunks(workers, n_chunks, [&](long long c) {
    const auto i = static_cast<std::size_t>(c);
    body(cut[i], cut[i + 1]);
  });
}

/// for_balanced_chunks over per-item work weight(i) >= 0, summed in one
/// pass into a per-thread buffer. The pass is taken only when the pool may
/// engage: n times the mean weight of 16 evenly spaced items must reach
/// the floor for two workers.
template <class Weight, class Body>
void for_weighted_chunks(long long n, long long cols, const Weight& weight,
                         const Body& body) {
  constexpr long long kSamples = 16;
  long long sampled = 0;
  for (long long j = 0; j < kSamples && n >= 2; ++j)
    sampled += weight(j * (n - 1) / (kSamples - 1));
  if (vgpu::value_kernel_workers(n * sampled / kSamples * cols) < 2) {
    body(0, n);
    return;
  }
  thread_local std::vector<long long> cum;
  cum.resize(static_cast<std::size_t>(n) + 1);
  cum[0] = 0;
  for (long long i = 0; i < n; ++i)
    cum[static_cast<std::size_t>(i) + 1] =
        cum[static_cast<std::size_t>(i)] + weight(i);
  for_balanced_chunks(
      n, cols, [](long long i) { return cum[static_cast<std::size_t>(i)]; },
      body);
}

/// The chunking of the CSR row kernels over slots [0, n_slots) (row =
/// row_map[slot], or the slot itself when row_map is empty): a slot's work
/// is its row's nnz plus one. Contiguous rows read it off row_start;
/// mapped rows (ACSR bins, ooc slab bins) sum it in one pass, where a slot
/// whose map entry or extents are out of range weighs 1 and is left to
/// its chunk to report.
template <class Body>
void for_row_chunks(vgpu::DeviceSpan<const mat::offset_t> row_start,
                    vgpu::DeviceSpan<const mat::offset_t> row_end,
                    vgpu::DeviceSpan<const mat::index_t> row_map,
                    long long n_slots, long long cols, const Body& body) {
  const auto n = static_cast<std::size_t>(std::max<long long>(0, n_slots));
  if (row_map.empty() && n > 0 && n <= row_start.size() &&
      n <= row_end.size()) {
    for_balanced_chunks(
        n_slots, cols,
        [&](long long i) {
          const auto u = static_cast<std::size_t>(i);
          return (u < n ? row_start[u] : row_end[n - 1]) - row_start[0] + i;
        },
        body);
    return;
  }
  for_weighted_chunks(
      n_slots, cols,
      [&](long long s) -> long long {
        const auto u = static_cast<std::size_t>(s);
        std::size_t row = u;
        if (!row_map.empty()) {
          if (u >= row_map.size() || row_map[u] < 0) return 1;
          row = static_cast<std::size_t>(row_map[u]);
        }
        if (row >= row_start.size() || row >= row_end.size()) return 1;
        return std::max<long long>(0, row_end[row] - row_start[row]) + 1;
      },
      body);
}

/// Column c of a column-major y block with leading dimension ldy.
template <class T>
vgpu::DeviceSpan<T> y_column(vgpu::DeviceSpan<T> yb, long long ldy,
                             long long n_rows, int c) {
  return yb.subspan(
      static_cast<std::size_t>(c) * static_cast<std::size_t>(ldy),
      static_cast<std::size_t>(n_rows));
}

/// Round up to the next power of two (thread-group sizing).
inline int pow2_ceil(long long v) {
  int p = 1;
  while (p < v && p < (1 << 30)) p <<= 1;
  return p;
}

/// Zero-fill kernel for the output vector. Engines that *accumulate* into
/// y (atomics in COO/HYB tails, merge-CSR carries, ACSR's
/// dynamic-parallelism children) must clear it first — cuSPARSE's beta = 0
/// path does the same — and the memset's bandwidth is part of their cost.
template <class T>
vgpu::KernelRun zero_fill(vgpu::Device& dev, vgpu::DeviceSpan<T> y) {
  const long long n = static_cast<long long>(y.size());
  vgpu::LaunchConfig cfg;
  cfg.name = "zero_y";
  cfg.block_dim = 256;
  cfg.grid_dim = std::max<long long>(1, (n + 255) / 256);
  return dev.launch_warps(
      cfg,
      [&](vgpu::Warp& w) {
        const auto idx = w.global_threads();
        const vgpu::Mask m = idx.where(
            [n](long long i) { return i < n; }, w.active_mask());
        if (m == 0) return;
        w.store_seq(y, idx[0], vgpu::LaneArray<T>::filled(T{0}), m);
      },
      nullptr, [&] {
        for (std::size_t i = 0; i < y.size(); ++i) y[i] = T{0};
      });
}

/// Warp body of the 32-row column-major slab kernels (brc, sic, sell):
/// warp b serves block b, whose base offset and width it loads as
/// broadcast scalars; lane l serves slot b*32 + l, and out_rows[slot] is
/// the row that receives its sum. Each step j loads every live lane's
/// slab entry base + j*32 + l (coalesced, padding included) and gathers
/// x through the texture path for the entries that are not padding (col
/// >= 0). With `skip_pad_slots` (SIC) a slot whose out row is negative is
/// a padding slot with no row, and its lane drops out before the walk.
template <class T>
void sliced_warp(vgpu::Warp& w, vgpu::DeviceSpan<const mat::offset_t> block_off,
                 vgpu::DeviceSpan<const mat::index_t> block_width,
                 vgpu::DeviceSpan<const mat::index_t> out_rows,
                 vgpu::DeviceSpan<const mat::index_t> slab_col,
                 vgpu::DeviceSpan<const T> slab_val,
                 vgpu::DeviceSpan<const T> x, vgpu::DeviceSpan<T> y,
                 bool skip_pad_slots) {
  using vgpu::LaneArray;
  using vgpu::Mask;
  const long long blk = w.global_warp();
  if (blk >= static_cast<long long>(block_width.size())) return;
  const mat::offset_t base =
      w.load_scalar(block_off, static_cast<std::size_t>(blk));
  const mat::index_t width =
      w.load_scalar(block_width, static_cast<std::size_t>(blk));

  const auto slot = LaneArray<long long>::iota(blk * vgpu::kWarpSize);
  const auto n_slots = static_cast<long long>(out_rows.size());
  Mask live = slot.where([n_slots](long long s) { return s < n_slots; },
                         w.active_mask());
  if (live == 0) return;
  const LaneArray<mat::index_t> out_row = w.load(out_rows, slot, live);
  if (skip_pad_slots) {
    for (int l = 0; l < vgpu::kWarpSize; ++l)
      if (vgpu::lane_active(live, l) && out_row[l] < 0)
        live &= ~vgpu::lane_bit(l);
    w.count_alu(2);
    if (live == 0) return;
  }

  LaneArray<T> sum{};
  for (mat::index_t j = 0; j < width; ++j) {
    const auto idx = LaneArray<long long>::iota(
        base + static_cast<long long>(j) * vgpu::kWarpSize);
    const LaneArray<mat::index_t> col = w.load(slab_col, idx, live);
    const LaneArray<T> val = w.load(slab_val, idx, live);
    Mask valid = 0;
    for (int l = 0; l < vgpu::kWarpSize; ++l)
      if (vgpu::lane_active(live, l) && col[l] >= 0) valid |= vgpu::lane_bit(l);
    w.count_alu(2);
    if (valid != 0) {
      const LaneArray<T> xv = w.load_tex(x, col, valid);
      vgpu::fma_into(sum, val, xv, valid);
      w.count_flops(valid, 2, sizeof(T) == 8);
    }
  }
  w.store(y, out_row, sum, live);  // scattered by the row map
}

/// Value kernel of the 32-row column-major slab kernels (brc, sic, sell):
/// slot s of block b = s / 32 sums its row's slab entries base[b] +
/// j*32 + s % 32, j < width[b], skipping padding (col < 0), into a +0
/// accumulator in j order, and stores the sum at y[out_rows[s]], as lane
/// s % 32 of warp b does. A slot whose out row is negative (SIC's
/// segment-end padding) stores nothing. Blocks run in chunks balanced by
/// their widths on the block pool: every engine's out rows are distinct
/// (a permutation, or SIC's rows once each). Every read is bounds-checked.
template <class T>
void sliced_rows(vgpu::DeviceSpan<const mat::offset_t> block_off,
                 vgpu::DeviceSpan<const mat::index_t> block_width,
                 vgpu::DeviceSpan<const mat::index_t> out_rows,
                 vgpu::DeviceSpan<const mat::index_t> slab_col,
                 vgpu::DeviceSpan<const T> slab_val,
                 vgpu::DeviceSpan<const T> x, vgpu::DeviceSpan<T> y) {
  constexpr auto kRows = static_cast<std::size_t>(vgpu::kWarpSize);
  for_weighted_chunks(
      static_cast<long long>(block_width.size()), 1,
      [&](long long b) {
        return static_cast<long long>(kRows) *
               (std::max<long long>(0, block_width[static_cast<std::size_t>(b)]) + 1);
      },
      [&](long long b0, long long b1) {
        for (auto b = static_cast<std::size_t>(b0);
             b < static_cast<std::size_t>(b1); ++b) {
          const mat::offset_t base = block_off[b];
          const mat::index_t width = block_width[b];
          for (std::size_t l = 0; l < kRows; ++l) {
            const std::size_t s = b * kRows + l;
            if (s >= out_rows.size()) break;
            const mat::index_t out = out_rows[s];
            if (out < 0) continue;
            T sum{};
            for (mat::index_t j = 0; j < width; ++j) {
              const auto slot = static_cast<std::size_t>(
                  base + static_cast<mat::offset_t>(j) * vgpu::kWarpSize) + l;
              const mat::index_t c = slab_col[slot];
              if (c >= 0)
                sum += slab_val[slot] * x[static_cast<std::size_t>(c)];
            }
            y[static_cast<std::size_t>(out)] = sum;
          }
        }
      });
}

}  // namespace acsr::spmv
