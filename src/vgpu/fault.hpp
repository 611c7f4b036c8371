// Fault-injection framework for the virtual GPU.
//
// An opt-in, deterministic, seed-driven fault model — the failure-path
// counterpart of the compute sanitizer. The paper's evaluation already
// hits real failure modes (HYB/BCCOO report Ø on several matrices,
// dynamic parallelism degrades past the pending-launch limit); this layer
// makes *every* device-class failure injectable, typed, and therefore
// testable, so the resilient driver (src/core/resilient.hpp) and the
// checkpointed solvers can be exercised end-to-end.
//
// Injectable fault classes (hooked into MemoryArena::alloc, Device::launch
// and the PCIe transfer path):
//
//   oom        MemoryArena::alloc throws DeviceOom
//   transient  Device::launch throws TransientFault (recoverable by retry)
//   ecc        a deterministic bit flip in a live device allocation's
//              bytes; detected flips additionally throw DataCorruption
//              (an ECC machine-check), silent ones do not
//   corrupt    a bit flip fired from the transfer path (PCIe CRC failure);
//              detected unless `silent=1`
//   stall      the transfer takes `ms` extra milliseconds (timing-only)
//   lost       whole-device loss: the device is marked lost and every
//              subsequent launch/alloc/transfer throws DeviceLost
//
// The storage plane (src/storage/, docs/OOC.md) adds a `read` site for
// the out-of-core tier's drive reads:
//
//   io_transient  the read fails with IoTransientError (a re-issue may
//                 succeed; the tier retries with backoff on the clock)
//   io_timeout    the request hangs for `ms` (default 50) simulated
//                 milliseconds, then fails with IoTimeout
//   io_checksum   a deterministic bit flip in the *delivered* chunk
//                 bytes; the tier's arrival checksum detects it and
//                 re-reads (ChunkChecksumMismatch once retries run out)
//   io_degrade    a degraded-bandwidth drive: the read's service time is
//                 multiplied by `x` (default 4); timing-only
//
// Activation mirrors ACSR_SANITIZE: set ACSR_FAULTS to a plan string in
// the environment, or call FaultInjector::instance().configure(plan)
// programmatically (before building the engines whose buffers should be
// flip targets). With no plan configured every hook is a single
// never-taken branch on a plain global bool — zero cost on the metered
// fast path, same guard pattern as the sanitizer.
//
// Plan-string grammar (full reference in docs/RESILIENCE.md):
//
//   plan   := clause (';' clause)*
//   clause := kind '@' site '#' N ['*' K] (':' key '=' value)*
//   kind   := oom | transient | ecc | corrupt | stall | lost
//           | io_transient | io_timeout | io_checksum | io_degrade
//   site   := alloc | launch | transfer | read
//
// `#N` fires on the N-th matching operation (1-based, counted per site
// since configure()); `*K` keeps firing for K consecutive matching ops.
// Options: `seed=U` (flip-target choice), `ms=D` (stall / timeout
// duration in milliseconds), `x=F` (io_degrade service-time factor),
// `silent=1` (flip without a detection signal). Example:
//
//   ACSR_FAULTS="transient@launch#3*2;ecc@launch#9:seed=7;lost@launch#40"
//
// Every fired fault is recorded in events() with device / kernel / buffer
// attribution, and surfaces to the caller as a *typed* error from the
// taxonomy below — never as a bare InvariantError abort.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace acsr::vgpu {

/// Base of the recoverable device-error taxonomy. Carries the device name
/// and the operation (kernel / buffer / transfer) for attribution; the
/// what() string embeds both.
class DeviceFault : public std::runtime_error {
 public:
  DeviceFault(std::string device, std::string where, const std::string& msg)
      : std::runtime_error(msg),
        device_(std::move(device)),
        where_(std::move(where)) {}

  /// Name of the device the fault struck (DeviceSpec::name).
  const std::string& device() const noexcept { return device_; }
  /// The kernel, buffer, or transfer the fault was attributed to.
  const std::string& where() const noexcept { return where_; }

 private:
  std::string device_;
  std::string where_;
};

/// Transient launch failure: retrying the launch may succeed. The
/// resilient driver retries with backoff charged to the time model.
class TransientFault : public DeviceFault {
 public:
  using DeviceFault::DeviceFault;
};

/// Whole-device loss: every further operation on the device fails. Fatal
/// for the device; recoverable by failing over to a standby device
/// (resilient driver) or by repartitioning (MultiGpuAcsr).
class DeviceLost : public DeviceFault {
 public:
  using DeviceFault::DeviceFault;
};

/// Detected corruption of device-resident data (ECC machine-check, PCIe
/// CRC failure). Recoverable by a re-upload scrub: device copies are
/// rebuilt from host data.
class DataCorruption : public DeviceFault {
 public:
  using DeviceFault::DeviceFault;
};

/// Base of the storage-plane fault taxonomy (src/storage/, docs/OOC.md).
/// device() names the drive (or tier) the fault struck, where() the chunk
/// or request. Derives from DeviceFault so the checkpointed solvers'
/// restart net covers escaped storage faults with no extra catch sites.
class IoError : public DeviceFault {
 public:
  using DeviceFault::DeviceFault;
};

/// One read request failed; re-issuing it may succeed. The storage tier
/// retries with backoff charged to the simulated clock before letting
/// this escape.
class IoTransientError : public IoError {
 public:
  using IoError::IoError;
};

/// A read request exceeded its deadline. The hang itself is charged to
/// the clock; retryable like IoTransientError.
class IoTimeout : public IoError {
 public:
  using IoError::IoError;
};

/// A chunk arrived with a checksum mismatch and the per-chunk re-read
/// budget is exhausted (every retry re-delivered corrupt bytes).
class ChunkChecksumMismatch : public IoError {
 public:
  using IoError::IoError;
};

enum class FaultKind {
  kAllocOom,
  kLaunchTransient,
  kEccFlip,
  kTransferCorrupt,
  kTransferStall,
  kDeviceLost,
  kIoTransient,
  kIoTimeout,
  kIoChecksum,
  kIoDegrade,
};

const char* to_string(FaultKind k);

enum class FaultSite { kAlloc, kLaunch, kTransfer, kRead };

/// One parsed plan clause: fire `kind` at `site` on matching ops
/// [at, at + count). The site matters for kinds injectable at more than
/// one site: `lost@launch#1` must not fire on the first *alloc*.
struct FaultClause {
  FaultKind kind{};
  FaultSite site{};
  long long at = 1;           // 1-based op index at the clause's site
  long long count = 1;        // consecutive matching ops to fire on
  std::uint64_t seed = 2014;  // flip-target choice (ecc / corrupt)
  double stall_s = 0.05;      // transfer stall / io_timeout duration
  double factor = 4.0;        // io_degrade service-time multiplier
  bool silent = false;        // flip without a detection signal
};

/// One fired fault, for observability and test assertions.
struct FaultEvent {
  FaultKind kind{};
  long long op_index = 0;   // per-site op count at which the clause fired
  std::string device;       // DeviceSpec::name ("?" for bare-arena allocs)
  std::string site;         // "alloc" / "launch" / "transfer" / "read"
  std::string where;        // kernel name, buffer name, or transfer size
  std::string buffer;       // flip target ("" when not a flip)
  std::string detail;       // human-readable description
};

/// What Device::launch must do after consulting the injector.
struct LaunchFault {
  enum class Action { kNone, kTransient, kCorruption, kLost } action =
      Action::kNone;
  std::string buffer;  // flip target (corruption), for the error message
  std::string detail;
};

/// What Device::note_transfer must do.
struct TransferFault {
  double stall_s = 0.0;  // added to the transfer duration
  bool corrupt = false;  // a detected flip happened: throw DataCorruption
  bool lost = false;     // device loss observed on the transfer path
  std::string buffer;
  std::string detail;
};

/// What StorageTier::read_chunk must do after consulting the injector.
struct ReadFault {
  enum class Action { kNone, kTransient, kTimeout } action = Action::kNone;
  bool corrupt = false;   // flip one bit in the delivered chunk bytes
  std::uint64_t seed = 0; // flip-bit choice for the corrupt case
  double slow = 1.0;      // service-time multiplier (io_degrade)
  double timeout_s = 0.0; // hang charged to the clock before IoTimeout
  std::string detail;
};

/// Process-wide injector. Reads ACSR_FAULTS once on first use; configure()
/// replaces the plan (and resets op counters and events) at any time.
/// Single-threaded, like the rest of the simulator.
class FaultInjector {
 public:
  static FaultInjector& instance();

  bool enabled() const { return enabled_; }
  /// Parse `plan` (throws acsr::InputError on grammar errors), reset op
  /// counters and events, and enable injection iff the plan is non-empty.
  void configure(const std::string& plan);
  /// Drop the plan, counters, events, and disable injection. The flip-
  /// target registry is kept (buffers unregister through their own
  /// lifetime).
  void disable();

  const std::vector<FaultClause>& plan() const { return plan_; }
  /// True when the plan has an `ecc` or `corrupt` clause: a fault that
  /// flips device-resident bytes. A flip in an index buffer moves gather
  /// addresses and with them the metering, so the memo plane bypasses such
  /// plans and the engines re-stage their scratch per call (keeping it a
  /// registered flip target). Every other plan leaves device bytes alone.
  bool flips_bytes() const { return flips_bytes_; }
  const std::vector<FaultEvent>& events() const { return events_; }
  void clear_events() { events_.clear(); }
  /// Events of one kind (test convenience).
  std::size_t count(FaultKind k) const;

  // --- hooks (called only when fault_injection_enabled()) -----------------
  /// Returns true when this allocation must fail with DeviceOom.
  bool on_alloc(const std::string& device, const std::string& what,
                std::size_t bytes);
  /// Consult the plan for this host-side kernel launch. An ECC clause
  /// flips a bit in a live allocation of `arena_tag`'s device before
  /// returning (kCorruption when detected, kNone when silent).
  LaunchFault on_launch(const std::string& device, const std::string& kernel,
                        const void* arena_tag);
  /// Consult the plan for one PCIe transfer of `bytes`.
  TransferFault on_transfer(const std::string& device, std::size_t bytes,
                            const void* arena_tag);
  /// Consult the plan for one storage-tier read of `bytes` from `drive`.
  /// `what` names the chunk / request for attribution.
  ReadFault on_read(const std::string& drive, const std::string& what,
                    std::size_t bytes);

  // --- flip-target registry ------------------------------------------------
  /// Register a live device allocation's backing bytes as an ECC/corrupt
  /// flip target. Called by DeviceBuffer when injection is enabled.
  void register_buffer(std::uint64_t addr, void* data, std::size_t bytes,
                       const std::string& name, const void* arena_tag);
  void unregister_buffer(std::uint64_t addr);
  std::size_t registered_buffers() const { return targets_.size(); }

  // --- op counters (for plan authoring / debugging) ------------------------
  long long alloc_ops() const { return alloc_ops_; }
  long long launch_ops() const { return launch_ops_; }
  long long transfer_ops() const { return transfer_ops_; }
  long long read_ops() const { return read_ops_; }

 private:
  FaultInjector();

  struct Target {
    void* data = nullptr;
    std::size_t bytes = 0;
    std::string name;
    const void* arena_tag = nullptr;
  };

  /// First clause at `site` matching the site's current op count, or
  /// nullptr. Increments the counter.
  const FaultClause* match(long long& op_counter, FaultSite site,
                           FaultKind* matched);
  /// Deterministically flip one bit in a live allocation of `arena_tag`'s
  /// device; returns the buffer name ("" when the device has no targets).
  std::string flip_bit(const FaultClause& c, long long op_index,
                       const void* arena_tag, std::string* detail);
  void record(FaultKind kind, long long op_index, const std::string& device,
              const char* site, const std::string& where,
              const std::string& buffer, const std::string& detail);

  bool enabled_ = false;
  bool flips_bytes_ = false;
  std::vector<FaultClause> plan_;
  std::vector<FaultEvent> events_;
  std::map<std::uint64_t, Target> targets_;
  long long alloc_ops_ = 0;
  long long launch_ops_ = 0;
  long long transfer_ops_ = 0;
  long long read_ops_ = 0;
};

/// Fast-path guard, mirroring sanitizer_enabled(): one global load, no
/// function-local-static guard. The dynamic initializer forces the
/// singleton (and its ACSR_FAULTS env read) to exist before main.
namespace detail {
inline bool g_fault_injection_enabled = FaultInjector::instance().enabled();
}  // namespace detail

inline bool fault_injection_enabled() {
  return detail::g_fault_injection_enabled;
}

/// fault_injection_enabled() && the plan flips device bytes (flips_bytes).
inline bool fault_flips_bytes() {
  return fault_injection_enabled() && FaultInjector::instance().flips_bytes();
}

}  // namespace acsr::vgpu
