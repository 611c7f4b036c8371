// Warp and Block execution contexts.
//
// A kernel is a callable `void(Block&)` invoked once per thread block.
// Inside, `block.each_warp(fn)` runs `fn` once per warp; code between two
// each_warp phases executes after all warps of the phase have completed,
// which gives __syncthreads semantics for free: a block's warps always run
// one after another on one host thread. Blocks run in order on the
// launching thread, unless the grid declares them independent
// (LaunchConfig::blocks_independent): then Device::launch may spread them
// over a host worker pool, each worker metering into its own KernelEnv
// shard, and merges the shards into exactly the sequential record
// (docs/PERF.md, "Block-parallel metering").
//
// Warp provides the CUDA-like primitives the paper's kernels need —
// coalesced-model global loads/stores, a texture read path for x,
// __shfl_down, atomics, and device-side (dynamic-parallelism) launches —
// and self-reports every event into the kernel's Counters.
//
// Executor fast path (docs/PERF.md): load, load_gather_uncached, load_tex,
// store and load_pair share one lane-access core (Warp::access) over three
// ports — global memory behind the concurrent group's L2, uncached global
// memory, texture. Accesses whose index vector is affine across the active
// lane prefix (iota thread ids, the CSR row-extent walk, ELL slots) are
// serviced analytically — one range bounds check, a memcpy-style lane
// fill, and one sector-cache probe per *distinct* 32 B sector instead of
// 32 per-lane probes; irregular ones keep the per-lane loop but skip a
// lane's probe when its sector repeats the one probed just before (a
// guaranteed hit). Gathers laid out in V-lane groups
// (load_broadcast, load_pair_runs) read and probe once per group or per
// sector of a group's run. SpMM column tiles are lane-major (LaneTile):
// load_tex_vec fills a lane's tile row, and reduce_heads computes only
// the sums the group heads publish. The fast path is metering-
// invariant: every Counters field and cache end-state is bit-identical to
// the reference per-lane loop (tests/test_metering_invariance.cpp pins
// this). It is disabled under the sanitizer (which needs per-access hooks)
// and under reference metering (ACSR_REFERENCE_METERING=1 or
// set_reference_metering), which forces the original loop everywhere.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <type_traits>
#include <vector>

#include "common/check.hpp"
#include "prof/lane_counters.hpp"
#include "vgpu/counters.hpp"
#include "vgpu/device_spec.hpp"
#include "vgpu/lane_array.hpp"
#include "vgpu/memory.hpp"

namespace acsr::vgpu {

class Block;

struct LaunchConfig {
  long long grid_dim = 1;
  int block_dim = 32;
  std::string name = "kernel";
  // The kernel's promise that its blocks need no order between them: no
  // block issues an atomic or a device-side launch (Warp enforces both),
  // and no block writes an address another block of the grid reads or
  // writes (racecheck flags a violation under the sanitizer). Such a grid
  // may run its blocks on the host worker pool (Device::launch).
  bool blocks_independent = false;
};

using KernelFn = std::function<void(Block&)>;

/// Non-owning callable reference taken by Device::launch: the overwhelming
/// majority of launches pass a stack lambda that outlives the (fully
/// synchronous) launch, so no std::function needs to be materialised.
/// Owning KernelFn storage is only kept where it is genuinely needed — the
/// dynamic-parallelism child work list.
class KernelRef {
 public:
  template <class F>
  KernelRef(F&& f)  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(&f))),
        call_([](void* o, Block& b) {
          (*static_cast<std::remove_reference_t<F>*>(o))(b);
        }) {}

  void operator()(Block& b) const { call_(obj_, b); }

 private:
  void* obj_;
  void (*call_)(void*, Block&);
};

/// Optional non-owning reference to a launch's host value kernel: a
/// `void()` callable that stores exactly what the grid stores, in the
/// grid's floating-point order, without walking the grid. A replayed
/// launch (vgpu/memo.hpp) calls it in place of the grid; a metered launch
/// never does. Device::launch rejects a launch without one inside a memo
/// session, so every memoized launch has its value kernel.
class ValueRef {
 public:
  ValueRef() = default;
  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, ValueRef>)
  ValueRef(F&& f)  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(&f))),
        call_([](void* o) {
          (*static_cast<std::remove_reference_t<F>*>(o))();
        }) {}

  explicit operator bool() const { return call_ != nullptr; }
  void operator()() const { call_(obj_); }

 private:
  void* obj_ = nullptr;
  void (*call_)(void*) = nullptr;
};

struct ChildLaunch {
  LaunchConfig cfg;
  KernelFn fn;
};

// --- reference-metering switch ---------------------------------------------
// When on, every Warp memory primitive takes the original per-lane
// bookkeeping loop instead of the analytic fast path. The two must be
// bit-identical in every counter; the invariance test runs both and
// asserts it. Env: ACSR_REFERENCE_METERING=1.
namespace detail {
inline bool reference_metering_from_env() {
  const char* v = std::getenv("ACSR_REFERENCE_METERING");
  return v != nullptr && v[0] == '1';
}
inline bool g_reference_metering = reference_metering_from_env();
}  // namespace detail

inline bool reference_metering() { return detail::g_reference_metering; }
inline void set_reference_metering(bool on) {
  detail::g_reference_metering = on;
}

/// Backing storage for one direct-mapped sector tag array, owned by a
/// KernelEnv and shared by every warp that runs on it. Tags are
/// epoch-stamped: a slot is live only while its stamp matches the current
/// warp's epoch, so giving each warp a fresh empty cache is one counter
/// bump instead of a 256-entry wipe per warp.
struct SectorCacheState {
  static constexpr std::size_t kMaxWays = 256;
  // Tag and stamp interleaved so a probe touches one cache line, not two
  // arrays 2 KiB apart (the probe is the single hottest load in the
  // executor — see docs/PERF.md).
  struct Slot {
    std::uint64_t tag;  // gated by stamp; no init needed
    std::uint64_t stamp;
  };
  Slot slots[kMaxWays] = {};
  std::uint64_t epoch = 0;  // first warp bumps to 1 > all stamps
};

/// A concurrent group's shared L2 (ConcurrentGroup): the set of DRAM
/// sectors any member launch already fetched. One flat open-addressing
/// table keyed by the 64-sector word (sector >> 6), each slot a
/// {word, presence bitmap} pair — power-of-two capacity, linear probing
/// from a Fibonacci-hashed home slot, all-ones as the empty key (sectors
/// are byte address / 32 < 2^59, so a word key never reaches it). A dense
/// slab sweep costs one bit test per sector, and a one-entry memo of the
/// last word's slot skips the hash probe while a sweep stays in one word.
/// Arena addresses are bump-allocated and never reused, so a bitmap over
/// the whole address space would be unbounded; the table grows with the
/// words actually touched, doubling at 3/4 load, and allocates nothing
/// until the first insert (a memo replay's group never inserts).
class SectorSet {
 public:
  /// True when `sector` was not in the set yet (a DRAM fetch).
  bool insert(std::uint64_t sector) {
    ACSR_CHECK(sector < kSectorLimit);
    const std::uint64_t word = sector >> 6;
    if (word != memo_word_) {
      memo_slot_ = find_or_add(word);
      memo_word_ = word;
    }
    std::uint64_t& bits = slots_[memo_slot_].bits;
    const std::uint64_t bit = std::uint64_t{1} << (sector & 63);
    if ((bits & bit) != 0) return false;
    bits |= bit;
    ++size_;
    return true;
  }

  /// Distinct sectors inserted so far.
  std::size_t size() const { return size_; }

  /// Inserts every sector of `o`; returns how many were not in the set
  /// yet. One word-level OR per occupied slot of `o`.
  std::size_t merge(const SectorSet& o) {
    const std::size_t before = size_;
    for (const Slot& s : o.slots_) {
      if (s.word == kEmpty) continue;
      std::uint64_t& bits = slots_[find_or_add(s.word)].bits;
      size_ += static_cast<std::size_t>(std::popcount(s.bits & ~bits));
      bits |= s.bits;
    }
    return size_ - before;
  }

  /// Empties the set, keeping its table for the next use.
  void clear() {
    if (words_ != 0) std::fill(slots_.begin(), slots_.end(), Slot{kEmpty, 0});
    size_ = 0;
    words_ = 0;
    memo_word_ = kEmpty;
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  static constexpr std::uint64_t kSectorLimit = std::uint64_t{1} << 59;
  static constexpr int kInitialLog2 = 8;  // 4 KiB

  struct Slot {
    std::uint64_t word;
    std::uint64_t bits;
  };

  std::size_t home(std::uint64_t word) const {
    return static_cast<std::size_t>((word * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  std::size_t find_or_add(std::uint64_t word) {
    if (words_ >= grow_at_) [[unlikely]] grow();
    for (std::size_t i = home(word);; i = (i + 1) & mask_) {
      if (slots_[i].word == word) return i;
      if (slots_[i].word == kEmpty) {
        slots_[i] = {word, 0};
        ++words_;
        return i;
      }
    }
  }

  void grow() {
    const int log2 = slots_.empty() ? kInitialLog2 : 65 - shift_;
    std::vector<Slot> old(std::size_t{1} << log2, Slot{kEmpty, 0});
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    shift_ = 64 - log2;
    grow_at_ = slots_.size() / 4 * 3;
    memo_word_ = kEmpty;  // the memoised slot index moved
    for (const Slot& s : old) {
      if (s.word == kEmpty) continue;
      std::size_t i = home(s.word);
      while (slots_[i].word != kEmpty) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  int shift_ = 64;
  std::size_t size_ = 0;   // sectors
  std::size_t words_ = 0;  // occupied slots
  std::size_t grow_at_ = 0;  // 0 until the first insert allocates
  std::uint64_t memo_word_ = kEmpty;
  std::size_t memo_slot_ = 0;
};

/// Per-launch bump allocator backing Block::shared. Chunks are stable in
/// memory (a chunk is never reallocated), so spans handed out earlier in a
/// block stay valid; reset() at block start recycles the whole pool
/// without returning memory — one allocation steady-state per launch
/// instead of one per shared() call.
class SharedMemArena {
 public:
  void reset() {
    chunk_ = 0;
    used_ = 0;
  }

  double* take(std::size_t n_doubles) {
    for (;;) {
      if (chunk_ == chunks_.size())
        chunks_.emplace_back(std::max(n_doubles, kMinChunkDoubles));
      auto& c = chunks_[chunk_];
      if (c.size() - used_ >= n_doubles) {
        double* p = c.data() + used_;
        used_ += n_doubles;
        return p;
      }
      ++chunk_;
      used_ = 0;
    }
  }

 private:
  static constexpr std::size_t kMinChunkDoubles = 6144;  // 48 KiB, one SMX
  std::vector<std::vector<double>> chunks_;
  std::size_t chunk_ = 0;
  std::size_t used_ = 0;
};

/// Shared mutable state for one kernel execution (parent + children), or
/// for one block-parallel worker's share of a launch (its shard, merged
/// into the launch's own env by Device::launch).
struct KernelEnv {
  const DeviceSpec* spec = nullptr;
  Counters counters;
  std::vector<double> sm_issue_cycles;       // indexed by SM
  double max_warp_latency_cycles = 0.0;
  std::uint64_t tex_footprint_bytes = 0;     // largest texture-bound span
  std::vector<ChildLaunch> pending_children;
  long long next_block_seq = 0;              // global round-robin SM cursor
  // Occupancy-dependent per-warp cache shares (powers of two), computed by
  // Device::launch: L2 / resident warps, texture cache / resident warps
  // per SM. A kernel whose per-warp working set exceeds its share loses
  // cross-iteration sector reuse (how CSR-scalar really loses on GPUs).
  std::size_t gmem_cache_ways = 256;
  std::size_t tex_cache_ways = 64;
  // When kernels run as a concurrent group (ACSR's per-bin grids, the
  // out-of-core slab bins), their row sweeps advance in step and L2 merges
  // their accesses: a sector any kernel of the group already pulled is not
  // fetched from DRAM again. Owned by the ConcurrentGroup, shared by its
  // launches; one SectorSet::insert per per-warp sector-cache miss.
  SectorSet* group_l2 = nullptr;
  // A block-parallel worker's shard (Device::launch) points group_l2 at
  // its own set and defers the charge: a miss inserts there and costs 0,
  // and the merge charges the sectors that are new to the group's set.
  bool group_deferred = false;
  // The launch's name when its grid declares blocks_independent: atomics
  // and device-side launches then throw an InvariantError naming it.
  const std::string* independent = nullptr;
  // Hoisted per-launch decisions (Device::launch re-captures them): whether
  // sanitizer instrumentation is live, and whether the analytic affine
  // fast path may run (never under the sanitizer or reference metering).
  bool sanitize = sanitizer_enabled();
  bool fast_path = !sanitize && !reference_metering();
  // Epoch-stamped tag arrays shared by all warps of this launch.
  SectorCacheState gmem_cache_state;
  SectorCacheState tex_cache_state;
  // Bump pool for Block::shared allocations.
  SharedMemArena smem_arena;
  // Profiler lane-utilisation tallies (src/prof/). Null unless the launch
  // runs under ACSR_PROF/ACSR_TRACE, so each accounting helper pays one
  // never-taken null test. Strictly observational: nothing here may feed
  // back into `counters` or the caches (metering parity, pinned by
  // tests/test_metering_invariance.cpp).
  prof::LaneCounters* lane_prof = nullptr;
};

class Warp {
 public:
  Warp(KernelEnv& env, long long block_idx, int block_dim, long long grid_dim,
       int warp_in_block, Mask initial_mask)
      : env_(env),
        block_idx_(block_idx),
        block_dim_(block_dim),
        grid_dim_(grid_dim),
        warp_in_block_(warp_in_block),
        initial_mask_(initial_mask),
        gmem_cache_(env.gmem_cache_state, env.gmem_cache_ways),
        tex_cache_(env.tex_cache_state, env.tex_cache_ways) {}

  // --- geometry -----------------------------------------------------------
  long long block_idx() const { return block_idx_; }
  int block_dim() const { return block_dim_; }
  long long grid_dim() const { return grid_dim_; }
  int warp_in_block() const { return warp_in_block_; }
  long long global_warp() const {
    return block_idx_ * ((block_dim_ + kWarpSize - 1) / kWarpSize) +
           warp_in_block_;
  }
  /// Lanes that correspond to live threads of this block.
  Mask active_mask() const { return initial_mask_; }
  LaneArray<int> lanes() const { return LaneArray<int>::iota(); }
  /// Global linear thread id per lane.
  LaneArray<long long> global_threads() const {
    const long long base =
        block_idx_ * block_dim_ + warp_in_block_ * kWarpSize;
    return LaneArray<long long>::iota(base);
  }

  // --- global memory. Kepler-style: global loads are serviced at 32-byte
  // L2 sector granularity — a fully coalesced 32x4B warp load is 4 sectors,
  // a fully scattered one is 32. A small per-warp direct-mapped sector
  // cache models L1/L2 reuse: a lane walking consecutive elements (the CSR
  // row walk) fetches each sector once, not once per iteration. ---
  template <class T, class I>
  LaneArray<T> load(DeviceSpan<const T> s, const LaneArray<I>& idx, Mask m) {
    LaneArray<T> r{};
    access<Port::kGlobal, /*Write=*/false>(s, idx, m, r);
    return r;
  }

  /// Unit-stride gather of the active lane prefix starting at element
  /// `first`: equivalent to load(s, iota(first), m) but states the affine
  /// pattern explicitly at the call site (the CSR row-extent walk, COO's
  /// consecutive-entry loads, ELL's column-major slots).
  template <class T>
  LaneArray<T> load_seq(DeviceSpan<const T> s, long long first, Mask m) {
    return load(s, LaneArray<long long>::iota(first), m);
  }

  /// Unit-stride scatter counterpart of load_seq.
  template <class T>
  void store_seq(DeviceSpan<T> s, long long first, const LaneArray<T>& v,
                 Mask m) {
    store(s, LaneArray<long long>::iota(first), v, m);
  }

  /// Scattered gather that bypasses the concurrent-group L2 filter: used
  /// for x gathers on the plain global path (the use_texture=false
  /// ablation). Random gathers lack the aligned-streaming property that
  /// justifies the group dedup, so they pay full sector cost per per-warp
  /// miss — which is exactly why the paper binds x to texture memory.
  template <class T, class I>
  LaneArray<T> load_gather_uncached(DeviceSpan<const T> s,
                                    const LaneArray<I>& idx, Mask m) {
    LaneArray<T> r{};
    access<Port::kUncached, /*Write=*/false>(s, idx, m, r);
    return r;
  }

  /// Load through a writable span (read-modify-write kernels).
  template <class T, class I>
    requires(!std::is_const_v<T>)
  LaneArray<T> load(DeviceSpan<T> s, const LaneArray<I>& idx, Mask m) {
    return load(DeviceSpan<const T>(s), idx, m);
  }

  /// Fused gather of two spans through the same index vector — the CSR
  /// inner loop's col_idx + vals pattern. Metering-identical to
  /// load(a, idx, m) followed by load(b, idx, m): all of a's lanes are
  /// probed and accounted first, then all of b's; only the mask decode and
  /// the index min/max scan are shared between the two gathers. Lanes
  /// outside m read zero, on every route.
  template <class A, class B, class I>
  void load_pair(DeviceSpan<const A> a, DeviceSpan<const B> b,
                 const LaneArray<I>& idx, Mask m, LaneArray<A>& ra,
                 LaneArray<B>& rb) {
    if (m != kFullMask) {  // a full mask leaves no lane to zero
      ra = {};
      rb = {};
    }
    long long base = 0, step = 0;
    if (m == 0 || env_.sanitize ||
        (affine_lanes(idx, m, &base, &step) &&
         (affine_stride_ok(step, sizeof(A)) ||
          affine_stride_ok(step, sizeof(B))))) {
      // Per-span routes: affine eligibility depends on the element size.
      access<Port::kGlobal, /*Write=*/false>(a, idx, m, ra);
      access<Port::kGlobal, /*Write=*/false>(b, idx, m, rb);
      return;
    }
    const auto [lo, hi] = lane_index_range(idx, m);
    per_lane<Port::kGlobal, false>(a, idx, m, ra, lo, hi);
    per_lane<Port::kGlobal, false>(b, idx, m, rb, lo, hi);
  }

  // --- V-lane groups (see group_lanes / LaneRuns). Each primitive below is
  // metering-identical to the per-lane call on the equivalent index vector
  // (docs/PERF.md). Under reference metering and the sanitizer it builds
  // that vector and makes the per-lane call, so the oracle stays
  // independent of the group path. ---

  /// Group-broadcast gather: the `vec` lanes of each group g set in
  /// `groups` all read s[gidx[g]], and out[g] receives it. Same metering
  /// as load(s, idx, group_lanes(groups, vec)) with idx[l] = gidx[l / vec];
  /// the fast path reads and probes once per group, skipping the probe
  /// when the sector repeats the one probed just before.
  template <class T>
  void load_broadcast(DeviceSpan<const T> s, int vec,
                      const std::array<long long, kWarpSize>& gidx,
                      Mask groups, std::array<T, kWarpSize>& out) {
    check_width(vec);
    if (!env_.fast_path) {
      LaneArray<long long> idx{};
      for (Mask rem = groups; rem != 0; rem &= rem - 1) {
        const int g = std::countr_zero(rem);
        for (int j = 0; j < vec; ++j)
          idx[g * vec + j] = gidx[static_cast<std::size_t>(g)];
      }
      const LaneArray<T> r = load(s, idx, group_lanes(groups, vec));
      for (Mask rem = groups; rem != 0; rem &= rem - 1) {
        const int g = std::countr_zero(rem);
        out[static_cast<std::size_t>(g)] = r[g * vec];
      }
      return;
    }
    long long lo = std::numeric_limits<long long>::max();
    long long hi = std::numeric_limits<long long>::min();
    for (Mask rem = groups; rem != 0; rem &= rem - 1) {
      const long long i = gidx[static_cast<std::size_t>(std::countr_zero(rem))];
      lo = std::min(lo, i);
      hi = std::max(hi, i);
    }
    if (groups != 0) s.check_range(lo, hi);
    const T* p = s.data();
    LaneProbe<Port::kGlobal> probe(*this, /*elide=*/true);
    for (Mask rem = groups; rem != 0; rem &= rem - 1) {
      const auto g = static_cast<std::size_t>(std::countr_zero(rem));
      const auto i = static_cast<std::size_t>(gidx[g]);
      out[g] = p[i];
      probe.touch(s.addr_of(i) / kGmemSegment);
    }
    const int active = active_lanes(groups) * vec;
    account_gmem(active, probe.nsegs(),
                 static_cast<std::size_t>(active) * sizeof(T));
  }

  /// Segmented-affine fused gather of two spans: group g's first
  /// runs.len[g] lanes read runs.base[g] + j. Same metering as
  /// load_pair(a, b, runs.lanes(), runs.mask(), ra, rb); the fast path
  /// copies each run and probes its contiguous sector range once per
  /// sector, in lane order (gather_runs). Lanes outside the runs read
  /// zero.
  template <class A, class B>
  void load_pair_runs(DeviceSpan<const A> a, DeviceSpan<const B> b,
                      const LaneRuns& runs, LaneArray<A>& ra,
                      LaneArray<B>& rb) {
    check_width(runs.vec);
    ra = {};
    rb = {};
    if (!env_.fast_path) {
      load_pair(a, b, runs.lanes(), runs.mask(), ra, rb);
      return;
    }
    const int n = runs.groups();
    long long lo = std::numeric_limits<long long>::max();
    long long hi = std::numeric_limits<long long>::min();
    int active = 0;
    for (int g = 0; g < n; ++g) {
      const int len = runs.checked_len(g);
      if (len == 0) continue;
      const long long first = runs.base[static_cast<std::size_t>(g)];
      lo = std::min(lo, first);
      hi = std::max(hi, first + len - 1);
      active += len;
    }
    if (active != 0) {
      a.check_range(lo, hi);
      b.check_range(lo, hi);
    }
    const int na = gather_runs(a, runs, ra);
    const int nb = gather_runs(b, runs, rb);
    account_gmem(active, na, static_cast<std::size_t>(active) * sizeof(A));
    account_gmem(active, nb, static_cast<std::size_t>(active) * sizeof(B));
  }

  template <class T, class I>
  void store(DeviceSpan<T> s, const LaneArray<I>& idx, const LaneArray<T>& v,
             Mask m) {
    access<Port::kGlobal, /*Write=*/true>(s, idx, m, v);
  }

  /// Uniform (warp-wide broadcast) load of a single element.
  template <class T>
  T load_scalar(DeviceSpan<const T> s, std::size_t i) {
    // One lane's worth of data serves the whole warp (broadcast), so the
    // profiler sees active=1 and sizeof(T) useful bytes.
    account_gmem(1, 1, sizeof(T));
    if (env_.sanitize)
      Sanitizer::instance().note_read(s.addr_of(i), sizeof(T), block_idx_,
                                      warp_in_block_, /*lane=*/-1);
    return s[i];
  }

  // --- texture read path (used for the x vector, 32 B segments) -----------
  template <class T, class I>
  LaneArray<T> load_tex(DeviceSpan<const T> s, const LaneArray<I>& idx,
                        Mask m) {
    LaneArray<T> r{};
    access<Port::kTexture, /*Write=*/false>(s, idx, m, r);
    return r;
  }

  /// Per-lane short-vector texture fetch: lane l reads the kt consecutive
  /// elements s[idx[l]] .. s[idx[l]+kt-1] into its tile row out[l][0..kt)
  /// — the double2/float4-style vectorized gather a kernel issues against
  /// a packed operand tile (spmv::stage_x_pack). Lanes outside m and
  /// columns >= kt keep their previous contents (predicated-off
  /// registers). A lane's payload spans a contiguous run of texture
  /// sectors, so each distinct sector is probed and charged at most once
  /// per lane. The scalar-load equivalent (kt separate load_tex calls)
  /// probes per element, and for packed-slab strides — where every lane's
  /// base address is congruent mod the direct-mapped cache's way count —
  /// the cross-lane aliasing evicts each sector before the next element's
  /// probe, re-fetching it up to kt times. Issue cost is one memory
  /// instruction per 16 bytes of per-lane payload (LDG.128 granularity),
  /// not one per element. The fast path probes each lane's sector range
  /// s0..s1; reference metering and the sanitizer walk the lane's
  /// elements and probe each element's sector when it differs from the
  /// element before — the same sectors in the same order, derived
  /// independently (docs/PERF.md).
  template <class T, class I>
  void load_tex_vec(DeviceSpan<const T> s, const LaneArray<I>& idx, int kt,
                    Mask m, LaneTile<T>& out) {
    static_assert(sizeof(T) <= kTexSegment);
    ACSR_CHECK(kt >= 1 && kt <= kTileCols);
    if (m == 0) return;
    const auto [lo, hi] = lane_index_range(idx, m);
    s.check_range(lo, hi + kt - 1);
    const T* p = s.data();
    const auto n = static_cast<std::size_t>(kt);
    int nsegs = 0;
    if (env_.fast_path) {
      for_lanes(m, [&](int lane) {
        const auto i = static_cast<std::size_t>(idx[lane]);
        // A fixed trip count with a masked tail unrolls into moves; a
        // runtime-length copy would be a memmove call per lane.
        auto& row = out[lane];
        for (int c = 0; c < kTileCols; ++c)
          if (c < kt) row[static_cast<std::size_t>(c)] = p[i + c];
        const std::uint64_t s0 = s.addr_of(i) / kTexSegment;
        const std::uint64_t s1 = s.addr_of(i + n - 1) / kTexSegment;
        for (std::uint64_t seg = s0; seg <= s1; ++seg)
          if (!tex_cache_.hit(seg)) ++nsegs;
      });
    } else {
      for_lanes(m, [&](int lane) {
        const auto i = static_cast<std::size_t>(idx[lane]);
        std::uint64_t last = ~std::uint64_t{0};  // never a sector (< 2^59)
        for (std::size_t c = 0; c < n; ++c) {
          out[lane][c] = p[i + c];
          const std::uint64_t seg = s.addr_of(i + c) / kTexSegment;
          if (seg == last) continue;
          last = seg;
          if (!tex_cache_.hit(seg)) ++nsegs;
        }
        if (env_.sanitize)
          Sanitizer::instance().note_read(s.addr_of(i), n * sizeof(T),
                                          block_idx_, warp_in_block_, lane);
      });
    }
    account_tex(s, active_lanes(m), nsegs, kt,
                static_cast<int>((n * sizeof(T) + 15) / 16));
  }

  // --- atomics -------------------------------------------------------------
  template <class T, class I>
  void atomic_add(DeviceSpan<T> s, const LaneArray<I>& idx,
                  const LaneArray<T>& v, Mask m) {
    check_orders_blocks("an atomic");
    std::uint64_t addrs[kWarpSize];
    int n = 0;
    std::uint64_t dups = 0;
    for (Mask rem = m; rem != 0; rem &= rem - 1) {
      const int lane = std::countr_zero(rem);
      const auto i = static_cast<std::size_t>(idx[lane]);
      if (env_.sanitize) {
        // An atomic RMW *reads* the previous value: uninitialized targets
        // are a defect (engines must zero-fill y before accumulating).
        Sanitizer::instance().note_read(s.addr_of(i), sizeof(T), block_idx_,
                                        warp_in_block_, lane);
        Sanitizer::instance().note_write(s.addr_of(i), sizeof(T), block_idx_,
                                         warp_in_block_, lane,
                                         /*atomic=*/true);
      }
      s[i] += v[lane];
      const std::uint64_t a = s.addr_of(i);
      bool seen = false;
      for (int k = 0; k < n; ++k)
        if (addrs[k] == a) {
          seen = true;
          break;
        }
      if (seen)
        ++dups;
      else
        addrs[n++] = a;
    }
    const int act = active_lanes(m);
    env_.counters.atomic_ops += static_cast<std::uint64_t>(act);
    env_.counters.atomic_conflicts += dups;
    // Conflicting lanes serialise: each replay is an extra issue slot.
    issue_ += dups;
    std::uint64_t segs[kWarpSize];
    int nsegs = 0;
    for (int k = 0; k < n; ++k) note_segment(segs, nsegs, addrs[k] / kGmemSegment);
    account_gmem(act, nsegs, static_cast<std::size_t>(act) * sizeof(T));
  }

  // --- intra-warp data exchange --------------------------------------------
  /// Inclusive *segmented* prefix sum: `heads` marks the first lane of
  /// each segment; sums do not propagate across segment boundaries. This
  /// is the warp kernel at the heart of COO segmented reduction. The
  /// values are segmented_scan_lanes' (the host value kernels call it
  /// too); the charges are the head-flag propagation and the scan's
  /// log2(32) shuffle-up steps, one flop per lane of m each.
  template <class T>
  LaneArray<T> segmented_scan_add(LaneArray<T> v, Mask heads, Mask m) {
    segmented_scan_lanes(v, heads, m);
    count_alu(2);  // head-flag propagation (min-index scan on hardware)
    charge_reduce(m, kWarpSize, 1, sizeof(T) == 8);
    return v;
  }

  /// CUDA __shfl_down within sub-groups of `width` lanes.
  template <class T>
  LaneArray<T> shfl_down(const LaneArray<T>& v, int delta,
                         int width = kWarpSize) {
    check_shuffle(delta, width);
    LaneArray<T> r = v;
    // Shifted copy plus a blend: lane i takes i + delta iff that stays
    // inside i's group, i.e. (i & (width-1)) + delta < width. Lanes past
    // kWarpSize - delta always fail the test, so the shifted copy's tail
    // (left as v) is never selected. Branch-free and vectorisable.
    if (delta > 0 && delta < width) {
      LaneArray<T> shifted = v;
      std::copy(v.v.begin() + delta, v.v.end(), shifted.v.begin());
      const int reach = width - delta;  // in-group offsets that move
      const int in_group = width - 1;
      for (int lane = 0; lane < kWarpSize; ++lane)
        r[lane] = (lane & in_group) < reach ? shifted[lane] : v[lane];
    }
    env_.counters.shuffle_ops += 1;
    issue_ += 1;
    alu_instr_ += 1;
    return r;
  }

  /// Butterfly sum of active lanes within sub-groups of `width`; the value
  /// lands in the first lane of each group (shuffle-based reduction).
  template <class T>
  LaneArray<T> reduce_add(LaneArray<T> v, Mask m, int width = kWarpSize) {
    for (int lane = 0; lane < kWarpSize; ++lane)
      if (!lane_active(m, lane)) v[lane] = T{0};
    for (int d = width / 2; d > 0; d /= 2) {
      const LaneArray<T> o = shfl_down(v, d, width);
      for (int lane = 0; lane < kWarpSize; ++lane) v[lane] = v[lane] + o[lane];
      count_flops(m, 1, sizeof(T) == 8);
    }
    return v;
  }

  /// reduce_add for callers that read only the group heads: lane g*width
  /// of the result holds group g's sum, every other lane zero. The same
  /// adds in the butterfly's order — a head's value at step d depends
  /// only on offsets j < 2d, and offset j < d gets part[j] + part[j + d]
  /// (docs/PERF.md) — and exactly reduce_add's shuffle and flop charges.
  /// Reference metering and the sanitizer run reduce_add itself, so the
  /// oracle stays independent.
  template <class T>
  LaneArray<T> reduce_heads(const LaneArray<T>& v, Mask m,
                            int width = kWarpSize) {
    check_width(width);
    LaneArray<T> r{};
    if (!env_.fast_path) {
      const LaneArray<T> full = reduce_add(v, m, width);
      for (int h = 0; h < kWarpSize; h += width) r[h] = full[h];
      return r;
    }
    LaneArray<T> part{};
    for_lanes(m, [&](int lane) { part[lane] = v[lane]; });
    for (int h = 0; h < kWarpSize; h += width) {
      for (int d = width / 2; d > 0; d /= 2)
        for (int j = h; j < h + d; ++j) part[j] = part[j] + part[j + d];
      r[h] = part[h];
    }
    charge_reduce(m, width, 1, sizeof(T) == 8);
    return r;
  }

  /// Tile form: reduce_heads of each column c < kt of a lane-major tile;
  /// out[c] holds column c's group sums on the head lanes. Charges kt
  /// reduce_add calls.
  template <class T>
  std::array<LaneArray<T>, kTileCols> reduce_heads(const LaneTile<T>& v,
                                                   int kt, Mask m,
                                                   int width = kWarpSize) {
    check_width(width);
    ACSR_CHECK(kt >= 1 && kt <= kTileCols);
    std::array<LaneArray<T>, kTileCols> r{};
    if (!env_.fast_path) {
      for (int c = 0; c < kt; ++c) {
        const LaneArray<T> full = reduce_add(v.column(c), m, width);
        for (int h = 0; h < kWarpSize; h += width)
          r[static_cast<std::size_t>(c)][h] = full[h];
      }
      return r;
    }
    LaneTile<T> part;
    for_lanes(m, [&](int lane) { part[lane] = v[lane]; });
    const auto n = static_cast<std::size_t>(kt);
    for (int h = 0; h < kWarpSize; h += width) {
      for (int d = width / 2; d > 0; d /= 2)
        for (int j = h; j < h + d; ++j)
          for (std::size_t c = 0; c < n; ++c)
            part[j][c] = part[j][c] + part[j + d][c];
      for (std::size_t c = 0; c < n; ++c) r[c][h] = part[h][c];
    }
    charge_reduce(m, width, kt, sizeof(T) == 8);
    return r;
  }

  // --- instruction accounting ----------------------------------------------
  /// n floating-point lane-ops per active lane (an FMA counts as 2 flops;
  /// pass flops_per_lane accordingly).
  void count_flops(Mask m, int flops_per_lane, bool dp) {
    const auto act = static_cast<std::uint64_t>(active_lanes(m)) *
                     static_cast<std::uint64_t>(flops_per_lane);
    if (dp)
      env_.counters.dp_flops += act;
    else
      env_.counters.sp_flops += act;
    issue_ += static_cast<std::uint64_t>(flops_per_lane);
    alu_instr_ += static_cast<std::uint64_t>(flops_per_lane);
    if (env_.lane_prof != nullptr) [[unlikely]] {
      env_.lane_prof->flop_lane_slots +=
          static_cast<std::uint64_t>(kWarpSize) *
          static_cast<std::uint64_t>(flops_per_lane);
      env_.lane_prof->flop_active_lanes += act;
    }
  }

  /// n integer/control warp-instructions (address math, compares, branches).
  void count_alu(int n) {
    issue_ += static_cast<std::uint64_t>(n);
    alu_instr_ += static_cast<std::uint64_t>(n);
  }

  /// Serialised single-lane global accesses (e.g. the dynamic-update
  /// kernel where only lane 0 of the warp mutates a row): each access is
  /// its own 32 B L2 sector transaction and its own issue slot.
  void count_serial_gmem(std::uint64_t accesses) {
    env_.counters.gmem_requests += accesses;
    env_.counters.gmem_transactions += accesses;
    env_.counters.gmem_bytes += accesses * 32;
    issue_ += accesses;
    mem_instr_ += accesses;
    if (env_.lane_prof != nullptr) [[unlikely]] {
      // Single-lane accesses: 1 active lane per 32-lane slot, modelled as
      // one 8-byte useful element per sector transaction.
      env_.lane_prof->mem_lane_slots += accesses * kWarpSize;
      env_.lane_prof->mem_active_lanes += accesses;
      env_.lane_prof->useful_gmem_bytes += accesses * 8;
    }
  }

  /// n shuffle instructions whose data movement is modelled analytically
  /// (e.g. the segmented-reduction network in the COO kernel).
  void count_shuffles(int n) {
    env_.counters.shuffle_ops += static_cast<std::uint64_t>(n);
    issue_ += static_cast<std::uint64_t>(n);
    alu_instr_ += static_cast<std::uint64_t>(n);
  }

  void count_smem(int accesses) {
    env_.counters.smem_accesses += static_cast<std::uint64_t>(accesses);
    issue_ += 1;
    alu_instr_ += 1;
  }

  // --- dynamic parallelism ---------------------------------------------------
  /// Device-side launch (Algorithm 3's per-row child grids). Only valid on
  /// CC >= 3.5 devices; the Device enforces this at kernel finalisation.
  void launch_child(LaunchConfig cfg, KernelFn fn) {
    check_orders_blocks("a device-side launch");
    env_.counters.child_launches += 1;
    issue_ += 4;  // parameter marshalling by the parent thread
    alu_instr_ += 4;
    env_.pending_children.push_back({std::move(cfg), std::move(fn)});
  }

  // Called by Block::each_warp after the warp body completes.
  void finish(int sm) {
    env_.counters.warps += 1;
    env_.counters.issue_cycles += issue_;
    env_.sm_issue_cycles[static_cast<std::size_t>(sm)] +=
        static_cast<double>(issue_);
    const double lat =
        (mem_instr_ > 0 ? env_.spec->gmem_latency_cycles : 0.0) +
        static_cast<double>(mem_instr_) * env_.spec->mem_pipeline_cycles +
        static_cast<double>(alu_instr_) * env_.spec->alu_latency_cycles;
    if (lat > env_.max_warp_latency_cycles)
      env_.max_warp_latency_cycles = lat;
  }

 private:
  static constexpr std::uint64_t kGmemSegment = 32;
  static constexpr std::uint64_t kTexSegment = 32;

  /// Direct-mapped tag array standing in for the warp's share of L2 (or of
  /// the texture cache). Collisions evict, which approximates capacity
  /// pressure: more resident warps -> fewer ways each -> less reuse. The
  /// tag storage lives in the KernelEnv and is reclaimed per warp by an
  /// epoch bump (SectorCacheState), keeping warp setup O(1).
  class SectorCache {
   public:
    SectorCache(SectorCacheState& st, std::size_t ways)
        : st_(&st), mask_(ways - 1) {
      ACSR_CHECK(ways >= 1 && ways <= SectorCacheState::kMaxWays &&
                 (ways & (ways - 1)) == 0);
      ++st_->epoch;
    }
    /// True if resident; inserts otherwise.
    bool hit(std::uint64_t seg) {
      auto& slot = st_->slots[static_cast<std::size_t>(seg & mask_)];
      if (slot.stamp == st_->epoch && slot.tag == seg) return true;
      slot.tag = seg;
      slot.stamp = st_->epoch;
      return false;
    }

   private:
    SectorCacheState* st_;
    std::uint64_t mask_;
  };

  /// The ports a warp memory access goes through. Each fixes at compile
  /// time the sector cache it probes, what a miss there costs and the
  /// Counters fields it charges (LaneProbe, charge):
  ///   kGlobal    global memory: gmem cache; a miss is a DRAM sector
  ///              unless the concurrent group's L2 already holds it
  ///   kUncached  global memory without the group-L2 filter (the plain-
  ///              global x gather): every gmem-cache miss is a DRAM sector
  ///   kTexture   the texture path: tex cache and tex_* counters
  enum class Port { kGlobal, kUncached, kTexture };

  /// One route's probe sequence on port P, summing the DRAM sectors its
  /// misses cost. With `elide` (the fast path) a sector equal to the one
  /// probed just before is skipped: that re-probe is a guaranteed hit
  /// with no state effect (docs/PERF.md). Only an *immediately* repeated
  /// sector is skipped — one seen earlier may have been evicted since.
  /// Reference metering and the sanitizer probe every lane, so they stay
  /// the independent oracle the elision is checked against.
  template <Port P>
  class LaneProbe {
   public:
    static constexpr std::uint64_t kSector =
        P == Port::kTexture ? kTexSegment : kGmemSegment;

    LaneProbe(Warp& w, bool elide)
        : w_(w),
          cache_(P == Port::kTexture ? w.tex_cache_ : w.gmem_cache_),
          elide_(elide) {}

    // The probe methods are forced inline: out of line, the probe's
    // state round-trips through memory on every lane or sector.
    [[gnu::always_inline]] void touch(std::uint64_t seg) {
      if (elide_ && seg == last_) return;
      last_ = seg;
      fetch(seg);
    }
    /// Sectors s0..s1, ascending: only s0 can repeat the sector before.
    [[gnu::always_inline]] void touch_range(std::uint64_t s0,
                                            std::uint64_t s1) {
      touch(s0);
      for (std::uint64_t seg = s0 + 1; seg <= s1; ++seg) fetch(seg);
      last_ = s1;
    }
    int nsegs() const { return nsegs_; }

   private:
    [[gnu::always_inline]] void fetch(std::uint64_t seg) {
      if (cache_.hit(seg)) return;
      if constexpr (P == Port::kGlobal)
        nsegs_ += w_.group_miss(seg);
      else
        ++nsegs_;
    }

    Warp& w_;
    SectorCache& cache_;
    bool elide_;
    std::uint64_t last_ = ~std::uint64_t{0};  // never a sector (< 2^59)
    int nsegs_ = 0;
  };

  /// Lane groups — shuffle sub-groups and V-lane groups — are
  /// power-of-two lane ranges (CUDA's rule), which is what lets the group
  /// arithmetic be `lane & (width - 1)`. Tested as `width & (width - 1)`:
  /// without -mpopcnt, std::has_single_bit is a libgcc call.
  static void check_width(int width) {
    ACSR_CHECK(width > 0 && width <= kWarpSize && (width & (width - 1)) == 0);
  }
  static void check_shuffle(int delta, int width) {
    check_width(width);
    ACSR_CHECK(delta >= 0);
  }

  /// Calls f(lane) for the lanes of m in ascending order; the full mask
  /// takes a plain loop (no serial bit-scan chain).
  template <class F>
  static void for_lanes(Mask m, F&& f) {
    if (m == kFullMask) {
      for (int lane = 0; lane < kWarpSize; ++lane) f(lane);
    } else {
      for (Mask rem = m; rem != 0; rem &= rem - 1) f(std::countr_zero(rem));
    }
  }

  /// The charges of `reps` reduce_add(_, m, width) calls (or, at width
  /// 32, segmented scans): log2(width) shuffle steps each, every step one
  /// shuffle and one flop per lane of m.
  void charge_reduce(Mask m, int width, int reps, bool dp) {
    const int steps = reps * std::countr_zero(static_cast<unsigned>(width));
    count_shuffles(steps);
    count_flops(m, steps, dp);
  }

  /// Copies each run of `runs` from span s (range-checked by the caller)
  /// into its lanes of r and probes the run's sectors
  /// in lane order: a run's elements are contiguous and at most one
  /// sector apart, so its lanes touch exactly the sector range s0..s1,
  /// each probed once. The probe elides a run's s0 when it equals the
  /// previous run's s1 (LaneProbe's lemma). Returns the DRAM sectors
  /// charged.
  template <class T>
  int gather_runs(DeviceSpan<const T> s, const LaneRuns& runs,
                  LaneArray<T>& r) {
    static_assert(sizeof(T) <= kGmemSegment);
    const T* p = s.data();
    LaneProbe<Port::kGlobal> probe(*this, /*elide=*/true);
    for (int g = 0, n = runs.groups(); g < n; ++g) {
      const auto len =
          static_cast<std::size_t>(runs.len[static_cast<std::size_t>(g)]);
      if (len == 0) continue;
      const auto first =
          static_cast<std::size_t>(runs.base[static_cast<std::size_t>(g)]);
      const auto lane = static_cast<std::size_t>(g * runs.vec);
      // A plain loop: runs are a few elements long, below the size at
      // which a memmove call pays for itself.
      for (std::size_t j = 0; j < len; ++j) r.v[lane + j] = p[first + j];
      probe.touch_range(s.addr_of(first) / kGmemSegment,
                        s.addr_of(first + len - 1) / kGmemSegment);
    }
    return probe.nsegs();
  }

  /// Affine fast path eligibility: byte addresses must advance by at most
  /// one sector per lane (then the touched sectors are exactly the
  /// contiguous range between the first and last lane's sector, with no
  /// holes) and must be non-decreasing (then distinct sectors appear in
  /// the same ascending order the per-lane reference loop probes them in,
  /// so cache end-state and group-L2 insertion order match exactly).
  static bool affine_stride_ok(long long step, std::size_t elem_size) {
    return step >= 0 && static_cast<std::uint64_t>(step) * elem_size <=
                            kGmemSegment;
  }

  /// Whether the fast path may serve idx over m analytically: the active
  /// lanes are a prefix and idx[l] = base + l*step across it. Inlined:
  /// out of line, the call spills base and step to memory.
  template <class I>
  [[gnu::always_inline]] bool affine_lanes(const LaneArray<I>& idx, Mask m,
                                           long long* base,
                                           long long* step) const {
    return env_.fast_path && m != 0 && is_prefix_mask(m) &&
           affine_prefix(idx, active_lanes(m), base, step);
  }

  /// Moves one element between memory and a lane: a store writes the
  /// lane's value to memory, a load reads the element into the lane.
  template <bool Write, class E, class L>
  static void move_lane(E& elem, L& lane) {
    if constexpr (Write)
      elem = lane;
    else
      lane = elem;
  }

  /// The core behind load, load_gather_uncached, load_tex, store and
  /// load_pair: moves the active lanes of m between s[idx[lane]] and
  /// v[lane] (Write: v to memory; else memory to v, whose other lanes the
  /// caller has zeroed) through port P, on one of three routes:
  ///   sanitizer  per-element checked moves, each noted to the sanitizer,
  ///              every lane probed (no elision)
  ///   affine     the fast path's affine lanes with an eligible stride:
  ///              one range check, a copy, one probe per distinct sector
  ///   per-lane   one range check, then per lane the index, the move and
  ///              a LaneProbe probe
  template <Port P, bool Write, class T, class I, class V>
  void access(DeviceSpan<T> s, const LaneArray<I>& idx, Mask m, V& v) {
    long long base = 0, step = 0;
    if (m == 0) {
      charge<P>(s, 0, 0);
    } else if (env_.sanitize) {
      sanitized<P, Write>(s, idx, m, v);
    } else if (affine_lanes(idx, m, &base, &step) &&
               affine_stride_ok(step, sizeof(T))) {
      affine<P, Write>(s, base, step, active_lanes(m), v);
    } else {
      const auto [lo, hi] = lane_index_range(idx, m);
      per_lane<P, Write>(s, idx, m, v, lo, hi);
    }
  }

  /// Sanitizer route: operator[]'s per-element check, a shadow-state note
  /// per lane (a store's is a non-atomic write), every lane's probe.
  template <Port P, bool Write, class T, class I, class V>
  void sanitized(DeviceSpan<T> s, const LaneArray<I>& idx, Mask m, V& v) {
    LaneProbe<P> probe(*this, /*elide=*/false);
    for_lanes(m, [&](int lane) {
      const auto i = static_cast<std::size_t>(idx[lane]);
      move_lane<Write>(s[i], v[lane]);
      if constexpr (Write)
        Sanitizer::instance().note_write(s.addr_of(i), sizeof(T), block_idx_,
                                         warp_in_block_, lane,
                                         /*atomic=*/false);
      else
        Sanitizer::instance().note_read(s.addr_of(i), sizeof(T), block_idx_,
                                        warp_in_block_, lane);
      probe.touch(s.addr_of(i) / probe.kSector);
    });
    charge<P>(s, active_lanes(m), probe.nsegs());
  }

  /// Affine route for idx[l] = base + l*step over the n-lane prefix. The
  /// per-lane loop would re-probe a sector shared by consecutive lanes
  /// and hit, with no counter or state effect, so probing each distinct
  /// sector once is bit-identical. Lanes move in ascending order, so a
  /// step-0 store leaves v[n-1] at the target, as the per-lane loop does.
  template <Port P, bool Write, class T, class V>
  void affine(DeviceSpan<T> s, long long base, long long step, int n,
              V& v) {
    const auto [first, last] = affine_touch_range<long long>(base, step, n);
    s.check_range(first, last);
    T* p = s.data() + base;
    if (step == 1) {
      if constexpr (Write)
        std::copy_n(v.v.begin(), n, p);
      else
        std::copy_n(p, n, v.v.begin());
    } else {
      for (int l = 0; l < n; ++l) move_lane<Write>(p[step * l], v[l]);
    }
    LaneProbe<P> probe(*this, /*elide=*/true);
    probe.touch_range(
        s.addr_of(static_cast<std::size_t>(base)) / probe.kSector,
        s.addr_of(static_cast<std::size_t>(last)) / probe.kSector);
    charge<P>(s, n, probe.nsegs());
  }

  /// Per-lane route over the lanes of m, whose indices span [lo, hi]:
  /// one range check, then raw moves with no per-element branch (same
  /// failure class as per-element checks). Set bits only, in ascending
  /// lane order: a sparse mask costs popcount(m) iterations, not 32.
  template <Port P, bool Write, class T, class I, class V>
  void per_lane(DeviceSpan<T> s, const LaneArray<I>& idx, Mask m, V& v,
                long long lo, long long hi) {
    s.check_range(lo, hi);
    T* p = s.data();
    LaneProbe<P> probe(*this, env_.fast_path);
    for_lanes(m, [&](int lane) {
      const auto i = static_cast<std::size_t>(idx[lane]);
      move_lane<Write>(p[i], v[lane]);
      probe.touch(s.addr_of(i) / probe.kSector);
    });
    charge<P>(s, active_lanes(m), probe.nsegs());
  }

  static void note_segment(std::uint64_t* segs, int& n, std::uint64_t seg) {
    for (int k = 0; k < n; ++k)
      if (segs[k] == seg) return;
    segs[n++] = seg;
  }

  /// 1 if the sector must come from DRAM, 0 if another kernel of the
  /// current concurrent group already pulled it into L2 — or if a
  /// block-parallel shard defers the charge to its merge.
  int group_miss(std::uint64_t seg) {
    if (env_.group_l2 == nullptr) return 1;
    return env_.group_l2->insert(seg) && !env_.group_deferred ? 1 : 0;
  }

  /// Atomics and device-side launches order blocks, which a grid that
  /// declares blocks_independent promised not to need.
  void check_orders_blocks(const char* op) const {
    if (env_.independent != nullptr) [[unlikely]]
      fail_orders_blocks(op);
  }
  [[noreturn]] [[gnu::cold]] [[gnu::noinline]] void fail_orders_blocks(
      const char* op) const {
    ::acsr::detail::throw_invariant(
        "!blocks_independent", __FILE__, __LINE__,
        "kernel '" + *env_.independent +
            "' declares blocks_independent but issues " + op);
  }

  /// `active` and `useful_bytes` feed only the profiler's lane tallies
  /// (occupancy / coalescing metrics); the Counters charges are identical
  /// for any value. Both executor paths pass the *true* active-lane count
  /// — the affine fast path passes its prefix length n, which equals
  /// active_lanes(m) of the mask the reference loop sees — so profiled
  /// numbers are path-invariant.
  void account_gmem(int active, int nsegs, std::size_t useful_bytes) {
    env_.counters.gmem_requests += 1;
    env_.counters.gmem_transactions += static_cast<std::uint64_t>(nsegs);
    env_.counters.gmem_bytes +=
        static_cast<std::uint64_t>(nsegs) * kGmemSegment;
    issue_ += 1;
    mem_instr_ += 1;
    if (env_.lane_prof != nullptr) [[unlikely]] {
      env_.lane_prof->mem_lane_slots += kWarpSize;
      env_.lane_prof->mem_active_lanes += static_cast<std::uint64_t>(active);
      env_.lane_prof->useful_gmem_bytes += useful_bytes;
    }
  }

  /// Texture counterpart of account_gmem for `requests` memory
  /// instructions, each active lane fetching `elems` elements of s.
  template <class T>
  void account_tex(DeviceSpan<const T> s, int active, int nsegs,
                   int elems = 1, int requests = 1) {
    const auto req = static_cast<std::uint64_t>(requests);
    env_.counters.tex_requests += req;
    env_.counters.tex_transactions += static_cast<std::uint64_t>(nsegs);
    env_.counters.tex_bytes += static_cast<std::uint64_t>(nsegs) * kTexSegment;
    if (s.size() * sizeof(T) > env_.tex_footprint_bytes)
      env_.tex_footprint_bytes = s.size() * sizeof(T);
    issue_ += req;
    mem_instr_ += req;
    if (env_.lane_prof != nullptr) [[unlikely]] {
      env_.lane_prof->mem_lane_slots += req * kWarpSize;
      env_.lane_prof->mem_active_lanes +=
          req * static_cast<std::uint64_t>(active);
      env_.lane_prof->useful_tex_bytes += static_cast<std::uint64_t>(active) *
                                          static_cast<std::uint64_t>(elems) *
                                          sizeof(T);
    }
  }

  /// One memory instruction's charges on port P.
  template <Port P, class T>
  void charge(DeviceSpan<T> s, int active, int nsegs) {
    if constexpr (P == Port::kTexture)
      account_tex(s, active, nsegs);
    else
      account_gmem(active, nsegs, static_cast<std::size_t>(active) * sizeof(T));
  }

  KernelEnv& env_;
  long long block_idx_;
  int block_dim_;
  long long grid_dim_;
  int warp_in_block_;
  Mask initial_mask_;

  std::uint64_t issue_ = 0;
  std::uint64_t mem_instr_ = 0;
  std::uint64_t alu_instr_ = 0;
  SectorCache gmem_cache_;
  SectorCache tex_cache_;
};

class Block {
 public:
  Block(KernelEnv& env, long long block_idx, int block_dim,
        long long grid_dim, int sm)
      : env_(env),
        block_idx_(block_idx),
        block_dim_(block_dim),
        grid_dim_(grid_dim),
        sm_(sm) {
    env_.counters.blocks += 1;
    // Shared memory from the previous block is dead; recycle the pool.
    env_.smem_arena.reset();
  }

  long long block_idx() const { return block_idx_; }
  int block_dim() const { return block_dim_; }
  long long grid_dim() const { return grid_dim_; }

  int warps_per_block() const {
    return (block_dim_ + kWarpSize - 1) / kWarpSize;
  }

  /// Run `fn` for each warp of the block. Returning from each_warp is a
  /// block-wide barrier (all warps completed), so a kernel structured as
  ///   phase 1: block.each_warp(...); phase 2: block.each_warp(...)
  /// has __syncthreads semantics between the phases.
  template <class F>
  void each_warp(F&& fn) {
    for (int w = 0; w < warps_per_block(); ++w) {
      const int live = std::min(kWarpSize, block_dim_ - w * kWarpSize);
      Warp warp(env_, block_idx_, block_dim_, grid_dim_, w,
                first_lanes(live));
      fn(warp);
      warp.finish(sm_);
    }
  }

  /// Block-scope shared memory. Each call returns a fresh zero-filled
  /// region that lives for the rest of the block (backed by the launch's
  /// bump arena, so no per-call heap allocation).
  template <class T>
  DeviceSpan<T> shared(std::size_t n) {
    double* storage = env_.smem_arena.take(
        (n * sizeof(T) + sizeof(double) - 1) / sizeof(double));
    T* p = reinterpret_cast<T*>(storage);
    std::fill(p, p + n, T{});
    ++shared_count_;
    // Shared memory is not part of the global address space; give it a
    // sentinel address range that cannot collide with arena addresses.
    const std::uint64_t addr =
        0xffff000000000000ULL + shared_count_ * 0x100000ULL;
    return DeviceSpan<T>(p, n, addr);
  }

  /// Explicit barrier marker: charges one issue per warp.
  void sync() {
    env_.counters.issue_cycles +=
        static_cast<std::uint64_t>(warps_per_block());
    env_.sm_issue_cycles[static_cast<std::size_t>(sm_)] +=
        static_cast<double>(warps_per_block());
  }

 private:
  KernelEnv& env_;
  long long block_idx_;
  int block_dim_;
  long long grid_dim_;
  int sm_;
  std::uint64_t shared_count_ = 0;
};

}  // namespace acsr::vgpu
