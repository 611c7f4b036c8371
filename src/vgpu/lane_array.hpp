// SIMT lane-lockstep primitives.
//
// The virtual GPU executes kernels one *warp* at a time; a LaneArray<T> is
// the value of one register across the 32 lanes of the current warp, and a
// Mask is the warp's activity mask. Writing kernels against these types
// makes divergence explicit (an iteration with a partial mask is an issued
// instruction with idle lanes), which is exactly what the timing model
// needs to observe.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <utility>

#include "common/check.hpp"

namespace acsr::vgpu {

inline constexpr int kWarpSize = 32;

using Mask = std::uint32_t;
inline constexpr Mask kFullMask = 0xffffffffu;

// Branchless SWAR popcount: without -mpopcnt, std::popcount lowers to a
// libgcc call, and this sits on the per-iteration metering path.
inline int active_lanes(Mask m) {
  m = m - ((m >> 1) & 0x55555555u);
  m = (m & 0x33333333u) + ((m >> 2) & 0x33333333u);
  return static_cast<int>((((m + (m >> 4)) & 0x0f0f0f0fu) * 0x01010101u) >>
                          24);
}
inline bool lane_active(Mask m, int lane) { return (m >> lane) & 1u; }
inline Mask lane_bit(int lane) { return Mask{1} << lane; }
/// Mask with the lowest n lanes active.
inline Mask first_lanes(int n) {
  return n >= kWarpSize ? kFullMask : ((Mask{1} << n) - 1u);
}
/// True when the active lanes of m are exactly lanes 0..popcount(m)-1
/// (the shape produced by first_lanes and by `tid < n` guards on iota
/// thread ids — every warp except a ragged grid edge).
inline bool is_prefix_mask(Mask m) { return (m & (m + 1u)) == 0; }

/// One register across the 32 lanes of a warp.
template <class T>
struct LaneArray {
  std::array<T, kWarpSize> v{};

  T& operator[](int lane) { return v[static_cast<std::size_t>(lane)]; }
  const T& operator[](int lane) const {
    return v[static_cast<std::size_t>(lane)];
  }

  static LaneArray filled(T x) {
    LaneArray r;
    r.v.fill(x);
    return r;
  }

  /// lane i gets start + i * step (thread-id style initialisation).
  static LaneArray iota(T start = T{0}, T step = T{1}) {
    LaneArray r;
    for (int i = 0; i < kWarpSize; ++i)
      r.v[static_cast<std::size_t>(i)] = static_cast<T>(start + step * static_cast<T>(i));
    return r;
  }

  template <class F>
  LaneArray<std::invoke_result_t<F, T>> map(F f) const {
    LaneArray<std::invoke_result_t<F, T>> r;
    for (int i = 0; i < kWarpSize; ++i) r[i] = f(v[static_cast<std::size_t>(i)]);
    return r;
  }

  /// Lanes where pred(value) holds, restricted to m.
  template <class P>
  Mask where(P pred, Mask m = kFullMask) const {
    Mask r = 0;
    for (int i = 0; i < kWarpSize; ++i)
      if (lane_active(m, i) && pred(v[static_cast<std::size_t>(i)])) r |= lane_bit(i);
    return r;
  }
};

/// Columns of a LaneTile: the batched SpMM column tile (spmv::kSpmmTile).
inline constexpr int kTileCols = 8;

/// A register tile of up to kTileCols columns, stored lane-major: lane l's
/// column values t[l][0..kTileCols) are contiguous. This is the layout a
/// per-lane short-vector fetch of a row-major dense operand produces
/// (Warp::load_tex_vec), and the one a per-lane FMA fan-out over the
/// tile's columns reads.
template <class T>
struct LaneTile {
  using Row = std::array<T, kTileCols>;
  std::array<Row, kWarpSize> v{};

  Row& operator[](int lane) { return v[static_cast<std::size_t>(lane)]; }
  const Row& operator[](int lane) const {
    return v[static_cast<std::size_t>(lane)];
  }

  /// Column c across the lanes.
  LaneArray<T> column(int c) const {
    LaneArray<T> r;
    for (int l = 0; l < kWarpSize; ++l)
      r[l] = v[static_cast<std::size_t>(l)][static_cast<std::size_t>(c)];
    return r;
  }
};

/// Inclusive element range [first, last] touched by an affine access
/// idx[l] = base + l * step over the n-lane active prefix (step >= 0,
/// n >= 1). Templated on the index value domain: instantiated with
/// `long long` by the executor's affine route (Warp::affine in warp.hpp)
/// and with `analysis::Sym` by the static verifier's abstract
/// interpreter, so the concrete and the abstract machines share one
/// definition of a gather's extent.
template <class V>
inline std::pair<V, V> affine_touch_range(const V& base, const V& step,
                                          int n) {
  return {base, base + step * V(n - 1)};
}

/// Detect an affine index pattern across the first n lanes:
/// idx[l] == base + l * step for l in [0, n). This is the shape of every
/// regular gather in the SpMV kernels — iota thread ids, the CSR
/// row-extent walk, ELL's column-major slots — and what Warp's analytic
/// fast path exploits (see docs/PERF.md). Lanes >= n are not inspected,
/// so inactive-lane garbage cannot affect the result.
template <class I>
inline bool affine_prefix(const LaneArray<I>& idx, int n, long long* base,
                          long long* step) {
  *base = static_cast<long long>(idx[0]);
  if (n <= 1) {
    *step = 0;
    return true;
  }
  const long long s =
      static_cast<long long>(idx[1]) - static_cast<long long>(idx[0]);
  for (int l = 2; l < n; ++l)
    if (static_cast<long long>(idx[l]) - static_cast<long long>(idx[l - 1]) !=
        s)
      return false;
  *step = s;
  return true;
}

/// {min, max} of idx over the active lanes of m. Requires m != 0. Feeds
/// the one-shot DeviceSpan::check_range validation of irregular gathers.
template <class I>
inline std::pair<long long, long long> lane_index_range(
    const LaneArray<I>& idx, Mask m) {
  if (m == kFullMask) {  // plain loop: unrolls/vectorizes, no scan chain
    long long lo = static_cast<long long>(idx[0]);
    long long hi = lo;
    for (int l = 1; l < kWarpSize; ++l) {
      const long long i = static_cast<long long>(idx[l]);
      lo = i < lo ? i : lo;
      hi = i > hi ? i : hi;
    }
    return {lo, hi};
  }
  long long lo = static_cast<long long>(idx[std::countr_zero(m)]);
  long long hi = lo;
  for (Mask rem = m & (m - 1); rem != 0; rem &= rem - 1) {
    const long long i = static_cast<long long>(idx[std::countr_zero(rem)]);
    lo = i < lo ? i : lo;
    hi = i > hi ? i : hi;
  }
  return {lo, hi};
}

/// Lanes of the V-lane groups set in `groups` (bit g = group g). A warp
/// cut into groups of `vec` consecutive lanes (vec a power of two <= 32)
/// has kWarpSize / vec of them; group g is lanes g*vec .. g*vec + vec - 1.
inline Mask group_lanes(Mask groups, int vec) {
  const Mask one = first_lanes(vec);
  Mask m = 0;
  for (Mask rem = groups; rem != 0; rem &= rem - 1)
    m |= one << (std::countr_zero(rem) * vec);
  return m;
}

/// Segmented-affine lane layout — one step of the csr-vector row walk:
/// group g's first len[g] lanes (0 <= len[g] <= vec) address the
/// consecutive elements base[g], base[g] + 1, ..., and its other lanes
/// are inactive. Groups are in lane order, so lanes() is the equivalent
/// per-lane index vector and mask() its active lanes.
struct LaneRuns {
  int vec = kWarpSize;
  std::array<long long, kWarpSize> base{};
  std::array<int, kWarpSize> len{};

  int groups() const {
    return kWarpSize >> std::countr_zero(static_cast<unsigned>(vec));
  }
  Mask mask() const {
    Mask m = 0;
    for (int g = 0, n = groups(); g < n; ++g)
      m |= first_lanes(checked_len(g)) << (g * vec);
    return m;
  }
  LaneArray<long long> lanes() const {
    LaneArray<long long> idx{};
    for (int g = 0, n = groups(); g < n; ++g)
      for (int j = 0, e = checked_len(g); j < e; ++j)
        idx[g * vec + j] = base[static_cast<std::size_t>(g)] + j;
    return idx;
  }
  /// len[g], checked to stay inside its group.
  int checked_len(int g) const {
    const int n = len[static_cast<std::size_t>(g)];
    ACSR_CHECK(n >= 0 && n <= vec);
    return n;
  }
};

// Elementwise arithmetic. These are *functional* helpers only; kernels must
// report the corresponding instruction cost through Warp::count_* calls
// (the Warp memory/shuffle/reduce APIs self-report).
template <class T>
LaneArray<T> operator+(const LaneArray<T>& a, const LaneArray<T>& b) {
  LaneArray<T> r;
  for (int i = 0; i < kWarpSize; ++i) r[i] = a[i] + b[i];
  return r;
}
template <class T>
LaneArray<T> operator-(const LaneArray<T>& a, const LaneArray<T>& b) {
  LaneArray<T> r;
  for (int i = 0; i < kWarpSize; ++i) r[i] = a[i] - b[i];
  return r;
}
template <class T>
LaneArray<T> operator*(const LaneArray<T>& a, const LaneArray<T>& b) {
  LaneArray<T> r;
  for (int i = 0; i < kWarpSize; ++i) r[i] = a[i] * b[i];
  return r;
}
template <class T>
LaneArray<T> operator+(const LaneArray<T>& a, T s) {
  LaneArray<T> r;
  for (int i = 0; i < kWarpSize; ++i) r[i] = a[i] + s;
  return r;
}
template <class T>
LaneArray<T> operator*(const LaneArray<T>& a, T s) {
  LaneArray<T> r;
  for (int i = 0; i < kWarpSize; ++i) r[i] = a[i] * s;
  return r;
}

/// Fused multiply-add across lanes: acc += a * b (the SpMV inner op).
template <class T>
void fma_into(LaneArray<T>& acc, const LaneArray<T>& a, const LaneArray<T>& b,
              Mask m) {
  if (m == kFullMask) {
    for (int i = 0; i < kWarpSize; ++i) acc[i] += a[i] * b[i];
    return;
  }
  for (Mask rem = m; rem != 0; rem &= rem - 1) {
    const int i = std::countr_zero(rem);
    acc[i] += a[i] * b[i];
  }
}

/// Tile FMA fan-out: acc[l][c] += a[l] * b[l][c] for the lanes of m and
/// the columns c < kt. Each element sees the same multiply-add as
/// fma_into on its column, so a column's result is bit-identical.
template <class T>
void fma_into(LaneTile<T>& acc, const LaneArray<T>& a, const LaneTile<T>& b,
              int kt, Mask m) {
  for (Mask rem = m; rem != 0; rem &= rem - 1) {
    const int i = std::countr_zero(rem);
    const T ai = a[i];
    auto& row = acc[i];
    const auto& x = b[i];
    for (int c = 0; c < kt; ++c)
      row[static_cast<std::size_t>(c)] += ai * x[static_cast<std::size_t>(c)];
  }
}

/// Inclusive segmented prefix sum over the warp's 32 lanes, in place:
/// lanes outside m are zeroed, `heads` marks the first lane of each
/// segment, and Hillis-Steele steps d = 1, 2, ..., 16 add lane l - d into
/// lane l while both sit in one segment. The value core of
/// Warp::segmented_scan_add, which the host value kernels call directly,
/// so simulated and host sums agree by construction.
template <class T>
void segmented_scan_lanes(LaneArray<T>& v, Mask heads, Mask m) {
  for (int lane = 0; lane < kWarpSize; ++lane)
    if (!lane_active(m, lane)) v[lane] = T{0};
  // seg_start[lane] = index of the lane's segment head.
  LaneArray<int> seg_start;
  int cur = 0;
  for (int lane = 0; lane < kWarpSize; ++lane) {
    if (lane_active(heads, lane)) cur = lane;
    seg_start[lane] = cur;
  }
  for (int d = 1; d < kWarpSize; d <<= 1) {
    const LaneArray<T> up = v;
    for (int lane = d; lane < kWarpSize; ++lane)
      if (lane - d >= seg_start[lane]) v[lane] = v[lane] + up[lane - d];
  }
}

}  // namespace acsr::vgpu
