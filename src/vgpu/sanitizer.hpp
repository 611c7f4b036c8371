// Compute-sanitizer layer for the virtual GPU (memcheck + racecheck).
//
// An opt-in instrumentation mode — modelled on CUDA's compute-sanitizer —
// that checks every simulated device-memory access:
//
//   memcheck   per-byte shadow state (allocated / initialized / freed) for
//              every arena allocation. Catches out-of-bounds accesses,
//              reads of never-written memory, use-after-free through stale
//              spans, and double/invalid frees, each reported with the
//              buffer name and full lane/warp/block/grid provenance.
//   racecheck  per-address write sets within one Device::launch (parent
//              grid + its dynamic-parallelism children). Two writes to the
//              same address from different lanes/blocks/grids are flagged
//              unless both are atomics, or they are ordered by a
//              device-side launch (a parent-grid write happens-before all
//              child-grid accesses, which is exactly the guarantee CUDA
//              gives ACSR's Algorithm 3 when the parent zeroes y[row]
//              before launching the row child).
//
// Activation: set ACSR_SANITIZE=1 in the environment (any test binary then
// runs fully instrumented), or call Sanitizer::instance().set_enabled(true)
// programmatically. ACSR_SANITIZE_HALT=1 (or set_halt_on_error) turns every
// finding into a thrown SanitizerError; the default records findings in
// reports() so harnesses can assert on them in bulk.
//
// The allocation *registry* (address -> buffer name) is always maintained —
// it is O(log n) per alloc/free and lets DeviceSpan diagnostics name the
// buffer even outside sanitizer runs. The per-access shadow checks only run
// when enabled, so the fast path costs one predictable branch.
//
// Addresses are device virtual addresses from MemoryArena, reused only
// under a rewound arena (MemoryArena::Rewind), where the new buffer
// replaces the tombstones it overlaps; freed ranges keep a tombstone so
// use-after-free is attributable.
// Shared-memory spans live in a sentinel address range outside the arena
// and are ignored. A sanitized launch runs its blocks in order on the
// launching thread — Device::launch never hands it to the block pool, even
// when its grid declares blocks_independent — so no locking.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace acsr::vgpu {

/// Thrown for findings that make continuing unsafe (out-of-bounds) and,
/// in halt-on-error mode, for every finding.
class SanitizerError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class SanKind {
  kOutOfBounds,   // access past the end of a live allocation
  kUninitRead,    // device read of never-written bytes
  kUseAfterFree,  // access through a span into a freed allocation
  kDoubleFree,    // second free of the same allocation
  kBadFree,       // free of an address that was never allocated
  kWriteRace,     // same-address writes from unordered writers
  kBadSubspan,    // subspan escaping its (live) underlying allocation
};

const char* to_string(SanKind k);

/// One finding. `message` is the full human-readable diagnostic; the other
/// fields let tests assert on provenance precisely.
struct SanReport {
  SanKind kind{};
  std::string buffer;      // allocation name, or "?" if unattributable
  std::uint64_t addr = 0;  // first byte of the offending access
  std::string kernel;      // grid name ("" for host-side findings)
  int grid = -1;           // 0 = parent grid, >= 1 = DP child grids
  long long block = -1;
  int warp = -1;
  int lane = -1;           // -1 for warp-uniform accesses
  std::string message;
};

class Sanitizer {
 public:
  /// Process-wide instance. Reads ACSR_SANITIZE / ACSR_SANITIZE_HALT once
  /// on first use.
  static Sanitizer& instance();

  bool enabled() const { return enabled_; }
  void set_enabled(bool on);  // also updates the sanitizer_enabled() mirror
  bool halt_on_error() const { return halt_; }
  void set_halt_on_error(bool on) { halt_ = on; }

  // --- allocation lifecycle (MemoryArena / DeviceBuffer) -------------------
  void on_alloc(std::uint64_t addr, std::size_t bytes, const std::string& name);
  /// Returns true when this was a live allocation (the arena may then
  /// adjust its accounting); false on double/invalid free.
  bool on_free(std::uint64_t addr, std::size_t bytes, const std::string& name);
  /// Host-side write (DeviceBuffer::host(), uploads): the whole range
  /// becomes defined.
  void mark_initialized(std::uint64_t addr, std::size_t bytes);
  /// Name of the allocation containing `addr`, or "?".
  std::string buffer_name(std::uint64_t addr) const;

  // --- kernel lifecycle (Device::launch) -----------------------------------
  void begin_launch(const std::string& name);
  /// Called per work-list grid: 0 = the parent, >= 1 = DP children.
  void begin_grid(int grid_index, const std::string& name);
  /// Ends the racecheck epoch; returns the findings added since
  /// begin_launch.
  std::size_t end_launch();

  // --- device-side accesses (Warp) -----------------------------------------
  void note_read(std::uint64_t addr, std::size_t bytes, long long block,
                 int warp, int lane);
  void note_write(std::uint64_t addr, std::size_t bytes, long long block,
                  int warp, int lane, bool atomic);
  /// Validate that a subspan's byte range still lies inside a live
  /// allocation (DeviceSpan::subspan).
  void check_subspan(std::uint64_t addr, std::size_t bytes);

  // --- results -------------------------------------------------------------
  const std::vector<SanReport>& reports() const { return reports_; }
  std::size_t count(SanKind k) const;
  /// Drop findings and shadow init/race state; live allocations stay
  /// registered, freed tombstones are dropped.
  void clear();

 private:
  Sanitizer();

  struct Buffer {
    std::string name;
    std::uint64_t base = 0;
    std::size_t bytes = 0;
    bool freed = false;
    std::vector<bool> init;  // per byte; empty once freed
  };
  struct Writer {
    int grid;
    long long block;
    int warp;
    int lane;
    bool atomic;
    bool same_thread(const Writer& o) const {
      return grid == o.grid && block == o.block && warp == o.warp &&
             lane == o.lane;
    }
  };

  Buffer* find(std::uint64_t addr);
  const Buffer* find(std::uint64_t addr) const;
  /// Report a device access to an address no allocation (live or freed)
  /// contains — a wild span. Always fatal.
  void check_unmapped(std::uint64_t addr, std::size_t bytes, long long block,
                      int warp, int lane, const char* what);
  /// Record (and possibly throw) one finding. `always_throw` marks
  /// findings where continuing would be memory-unsafe.
  void report(SanKind kind, const Buffer* b, std::uint64_t addr,
              long long block, int warp, int lane, const std::string& detail,
              bool always_throw = false);

  bool enabled_ = false;
  bool halt_ = false;
  std::map<std::uint64_t, Buffer> buffers_;  // keyed by base address
  std::unordered_map<std::uint64_t, std::vector<Writer>> writes_;
  std::string kernel_;
  int grid_ = -1;
  std::vector<SanReport> reports_;
  std::size_t launch_report_base_ = 0;
};

/// Fast-path guard used by the per-lane hooks in Warp and DeviceSpan.
/// A plain global mirror of Sanitizer::enabled(): reading it is one load,
/// with no function-local-static initialization guard on the hot path.
/// The dynamic initializer forces the singleton (and its ACSR_SANITIZE env
/// read) to exist before main; set_enabled keeps the mirror in sync.
namespace detail {
inline bool g_sanitizer_enabled = Sanitizer::instance().enabled();
}  // namespace detail

inline bool sanitizer_enabled() { return detail::g_sanitizer_enabled; }

inline void Sanitizer::set_enabled(bool on) {
  enabled_ = on;
  detail::g_sanitizer_enabled = on;
}

}  // namespace acsr::vgpu
