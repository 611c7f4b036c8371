// The simulated GPU device: memory arena + kernel executor + transfer model.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "vgpu/device_spec.hpp"
#include "vgpu/kernel.hpp"
#include "vgpu/memory.hpp"
#include "vgpu/warp.hpp"

namespace acsr::vgpu {

namespace memo {
struct Session;
}  // namespace memo

/// How Device::launch runs a grid that declares blocks_independent: on
/// `threads` host workers (the launching thread is one of them) once the
/// grid has at least `min_blocks_per_worker` blocks per worker. Defaults:
/// min(hardware_concurrency, 8) workers, 4 blocks each. A sanitized,
/// profiled or reference-metered launch always runs its blocks in order.
struct BlockParallelism {
  int threads = 1;
  long long min_blocks_per_worker = 4;
};
/// Launches whose blocks ran on the host pool, process-wide.
std::uint64_t block_parallel_launches();

/// Test-only: overrides the BlockParallelism defaults for the scope's
/// lifetime (1..kMaxBlockWorkers threads; 1 runs every grid in order).
class ScopedBlockParallelism {
 public:
  static constexpr int kMaxBlockWorkers = 8;
  ScopedBlockParallelism(int threads, long long min_blocks_per_worker);
  ~ScopedBlockParallelism();
  ScopedBlockParallelism(const ScopedBlockParallelism&) = delete;
  ScopedBlockParallelism& operator=(const ScopedBlockParallelism&) = delete;

 private:
  BlockParallelism saved_;
};

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
