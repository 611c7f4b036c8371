// The simulated GPU device: memory arena + kernel executor + transfer model.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "vgpu/device_spec.hpp"
#include "vgpu/kernel.hpp"
#include "vgpu/memory.hpp"
#include "vgpu/warp.hpp"

namespace acsr::vgpu {

namespace memo {
struct Session;
}  // namespace memo

/// How the block pool is used: by Device::launch for a grid that declares
/// blocks_independent, and by run_chunks for a row-parallel host value
/// kernel (a memo replay's y, an engine's apply). Up to `threads` host
/// workers (the calling thread is one of them). A grid uses the pool from
/// `min_blocks_per_worker` blocks per worker; a value kernel gets one
/// worker per `min_nnz_per_worker` units of work (nnz, times the columns
/// of a batched kernel), at most `threads`. Defaults:
/// min(hardware_concurrency, 8) workers, 4 blocks or 16384 nnz each. A
/// sanitized, profiled or reference-metered grid and a sanitized value
/// kernel always run in order (docs/PERF.md, "Block-parallel metering"
/// and "Replay on every core").
struct BlockParallelism {
  static constexpr long long kMinNnzPerWorker = 16384;
  int threads = 1;
  long long min_blocks_per_worker = 4;
  long long min_nnz_per_worker = kMinNnzPerWorker;
};
/// Launches whose blocks ran on the host pool, process-wide.
std::uint64_t block_parallel_launches();
/// Value kernels whose chunks ran on the host pool, process-wide.
std::uint64_t pooled_value_kernels();

/// Test-only: overrides the BlockParallelism defaults for the scope's
/// lifetime (1..kMaxBlockWorkers threads; 1 runs every grid and value
/// kernel in order).
class ScopedBlockParallelism {
 public:
  static constexpr int kMaxBlockWorkers = 8;
  ScopedBlockParallelism(
      int threads, long long min_blocks_per_worker,
      long long min_nnz_per_worker = BlockParallelism::kMinNnzPerWorker);
  ~ScopedBlockParallelism();
  ScopedBlockParallelism(const ScopedBlockParallelism&) = delete;
  ScopedBlockParallelism& operator=(const ScopedBlockParallelism&) = delete;

 private:
  BlockParallelism saved_;
};

/// Non-owning reference to one chunk of a row-parallel value kernel:
/// chunk(c) runs chunk c. run_chunks is synchronous, so a stack lambda
/// binds with no std::function, as KernelRef does for grids.
class ChunkRef {
 public:
  template <class F>
  ChunkRef(F&& f)  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(&f))),
        call_([](void* o, long long c) {
          (*static_cast<std::remove_reference_t<F>*>(o))(c);
        }) {}

  void operator()(long long c) const { call_(obj_, c); }

 private:
  void* obj_;
  void (*call_)(void*, long long);
};

/// Pool workers a row-parallel value kernel doing `work` units may use:
/// min(threads, work / min_nnz_per_worker), and 1 — run in order — when
/// that is below 2 or the sanitizer is on.
int value_kernel_workers(long long work);

/// The chunk runner: calls chunk(c) for every c < n_chunks and returns
/// once all have returned. With `workers` >= 2 they run on the block pool,
/// each worker claiming the next unclaimed chunk; in order (c = 0, 1, ...)
/// on the calling thread when `workers` or `n_chunks` is below 2 or the
/// pool is held by another host thread. Chunks must write disjoint
/// outputs, each in the order the in-order run writes it: then the result
/// is the in-order one, bit for bit. A throwing chunk's exception is
/// rethrown — the lowest-numbered one's, the one an in-order run throws.
void run_chunks(int workers, long long n_chunks, ChunkRef chunk);

/// A host<->device transfer event.
struct TransferRun {
  std::size_t bytes = 0;
  double duration_s = 0.0;
};

class Device {
 public:
  explicit Device(DeviceSpec spec)
      : spec_(std::move(spec)), arena_(spec_.global_mem_bytes) {
    arena_.set_owner(spec_.name);
  }

  const DeviceSpec& spec() const { return spec_; }
  MemoryArena& arena() { return arena_; }
  const MemoryArena& arena() const { return arena_; }

  /// True once an injected whole-device-loss fault has struck: every
  /// further launch/alloc/transfer throws DeviceLost. Only the fault
  /// injector can set this, so the flag is dead weight (one never-taken
  /// branch behind fault_injection_enabled()) in normal runs.
  bool lost() const { return lost_; }
  void mark_lost() { lost_ = true; }

  /// Override the capacity (used by benches to scale the memory limit along
  /// with the 1/N corpus scaling so the paper's OOM entries reproduce).
  void set_memory_capacity(std::size_t bytes) { arena_.set_capacity(bytes); }

  /// Bytes still allocatable before the arena overflows. The out-of-core
  /// tier's tests and tools use this to assert a streamed solve's device
  /// working set really stays inside its slab budget.
  std::size_t memory_headroom() const {
    return arena_.capacity() - arena_.allocated();
  }

  template <class T>
  DeviceBuffer<T> alloc(std::size_t n, std::string name) {
    if (fault_injection_enabled() && lost_) [[unlikely]]
      fail_lost("alloc of '" + name + "'");
    return DeviceBuffer<T>(arena_, n, std::move(name));
  }

  /// Allocate and fill from host data, charging the H2D transfer.
  template <class T>
  DeviceBuffer<T> upload(const std::vector<T>& host_data, std::string name) {
    DeviceBuffer<T> b(arena_, host_data.size(), std::move(name));
    b.host() = host_data;
    note_transfer(host_data.size() * sizeof(T));
    return b;
  }

  /// Charge an H2D/D2H transfer of `bytes` (PCIe model: fixed setup cost
  /// plus bandwidth term).
  TransferRun note_transfer(std::size_t bytes) {
    TransferRun t;
    t.bytes = bytes;
    t.duration_s = spec_.transfer_setup_s +
                   static_cast<double>(bytes) / (spec_.pcie_bandwidth_gbs * 1e9);
    if (fault_injection_enabled()) [[unlikely]] {
      if (lost_) fail_lost(std::to_string(bytes) + " B transfer");
      const TransferFault f = FaultInjector::instance().on_transfer(
          spec_.name, bytes, &arena_);
      t.duration_s += f.stall_s;  // stall: timing-only, still completes
      if (f.lost) {
        lost_ = true;
        transfer_seconds_ += t.duration_s;
        transfer_bytes_ += bytes;
        fail_lost(std::to_string(bytes) + " B transfer");
      }
      if (f.corrupt) {
        transfer_seconds_ += t.duration_s;
        transfer_bytes_ += bytes;
        throw DataCorruption(spec_.name, f.buffer, f.detail);
      }
    }
    transfer_seconds_ += t.duration_s;
    transfer_bytes_ += bytes;
    return t;
  }

  /// Execute a kernel functionally and return its simulated run record.
  /// Dynamic-parallelism children enqueued by the kernel are executed as
  /// part of the same run (they share the device with the parent).
  /// `group_l2` links the launch into a concurrent group (see
  /// ConcurrentGroup below). The launch is fully synchronous, so the
  /// kernel is taken as a non-owning KernelRef: a stack lambda binds with
  /// no std::function materialisation (children the kernel enqueues are
  /// the only owned copies). `value` is the launch's host value kernel,
  /// called in place of the grid when the launch is replayed (ValueRef);
  /// a launch inside a memo session must pass one.
  KernelRun launch(const LaunchConfig& cfg, KernelRef fn,
                   SectorSet* group_l2 = nullptr, ValueRef value = {});

  /// Convenience wrapper for warp-granularity kernels: `fn(Warp&)` is run
  /// for every warp of the grid.
  template <class F>
  KernelRun launch_warps(const LaunchConfig& cfg, F&& fn,
                         SectorSet* group_l2 = nullptr, ValueRef value = {}) {
    auto body = [&fn](Block& blk) {
      blk.each_warp([&fn](Warp& w) { fn(w); });
    };
    return launch(cfg, KernelRef(body), group_l2, value);
  }

  /// Active memoization session (vgpu/memo.hpp), installed by
  /// memo::SessionScope for the duration of one memoized execution.
  /// Capture appends each launch's finalized KernelRun to the session's
  /// entry; replay computes y through the launch's value kernel and
  /// returns the cached run. A launch inside a session must pass its
  /// value kernel (launch throws InvariantError otherwise).
  memo::Session* memo_session() const { return memo_session_; }
  void set_memo_session(memo::Session* s) { memo_session_ = s; }

  // Cumulative transfer accounting (reset per experiment).
  double transfer_seconds() const { return transfer_seconds_; }
  std::uint64_t transfer_bytes() const { return transfer_bytes_; }
  void reset_transfer_stats() {
    transfer_seconds_ = 0.0;
    transfer_bytes_ = 0;
  }

 private:
  [[noreturn]] void fail_lost(const std::string& where) const {
    throw DeviceLost(spec_.name, where,
                     "device '" + spec_.name + "' lost (during " + where +
                         ")");
  }

  /// Consume the next captured record of the active replay session:
  /// validate it against `cfg`, compute y through `value`, and return
  /// the cached KernelRun (defined in device.cpp).
  KernelRun memo_replay(const LaunchConfig& cfg, const ValueRef& value);

  DeviceSpec spec_;
  MemoryArena arena_;
  double transfer_seconds_ = 0.0;
  std::uint64_t transfer_bytes_ = 0;
  bool lost_ = false;
  memo::Session* memo_session_ = nullptr;
};

/// Kernels issued on independent streams that execute concurrently on one
/// device (the ACSR driver's per-bin grids, the out-of-core slab bins).
/// Their aligned sweeps share L2, modelled as one SectorSet: a DRAM sector
/// any member already fetched is free for the others. Call
/// launch/launch_warps per grid, then seconds() for the group's combined
/// duration under the concurrent-kernel model.
class ConcurrentGroup {
 public:
  explicit ConcurrentGroup(Device& dev) : dev_(dev) {}

  KernelRun launch(const LaunchConfig& cfg, KernelRef fn,
                   ValueRef value = {}) {
    KernelRun r = dev_.launch(cfg, fn, &l2_, value);
    runs_.push_back(r);
    return r;
  }

  template <class F>
  KernelRun launch_warps(const LaunchConfig& cfg, F&& fn,
                         ValueRef value = {}) {
    KernelRun r = dev_.launch_warps(cfg, std::forward<F>(fn), &l2_, value);
    runs_.push_back(r);
    return r;
  }

  const std::vector<KernelRun>& runs() const { return runs_; }
  std::size_t unique_sectors() const { return l2_.size(); }

  double seconds() const { return combine_concurrent(runs_, dev_.spec()); }

 private:
  Device& dev_;
  SectorSet l2_;  // the group's shared L2 (see SectorSet)
  std::vector<KernelRun> runs_;
};

}  // namespace acsr::vgpu
