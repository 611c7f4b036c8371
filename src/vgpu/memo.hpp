// Launch-metering memoization (ACSR_MEMO=1).
//
// Iterative solvers re-launch structurally identical kernels every
// iteration: the grid, the matrix operand and therefore every Counters
// field, roofline term and timeline charge are the same — only the vector
// *values* differ. The memo layer caches the per-launch KernelRun sequence
// of the first execution (capture) and replays it on later, key-identical
// executions. A replayed launch computes y through the value kernel the
// engine passes with it (ValueRef: the host kernel that reproduces the
// grid's floating-point order, which is also the engine's `apply`) and
// never walks the grid. Every launch inside a session must pass one:
// Device::launch rejects one without at capture, with an InvariantError
// naming the kernel, so a replay always has its value kernel.
//
// A memo entry is keyed by what metering depends on: the device spec,
// the kernels' inputs' structure, and where the buffers they touch sit.
// Addresses enter only relative to the arena's base: every arena takes its
// own 2^44-byte address slice, so two arenas with the same allocation
// history place corresponding buffers at addresses that differ by a
// multiple of 2^44, which keeps every 32 B sector offset, every cache set
// index and every sector equality — everything the metering reads of an
// address (proof in docs/PERF.md). The key is
//   - the owner's recipe: everything its build and its launches depend on
//     apart from addresses (spec_fingerprint, engine name and config,
//     element width, arena capacity, a digest of the operand —
//     core/factory.hpp's memo_recipe for engines), and
//   - a tail the owner supplies, read at the run's first launch (after
//     the run has staged its scratch): the base-relative layout of the
//     buffers the run touches (an engine's build offset, the scratch the
//     run stages, and the mark a per-call working set is allocated from)
//     and the run's subkey (launch geometry, batch width).
// So any owner with the same recipe and the same base-relative layout
// replays — an engine built on a fresh device from its first call — and
// one whose layout differs captures, by construction: a rebuild on the
// same device (scrub, fallback) starts at a later arena offset. Entries
// outlive their owners; the cache holds MemoCache::kMaxBytes and evicts
// the least recently used entry past it. Replay additionally validates
// each launch against the captured record (kernel name, grid_dim,
// block_dim) and that the launch count matches.
//
// Replay runs under the fault plane too: Device::launch consults the
// injector before it takes the replay branch, so a plan fires at the same
// launch ordinal, with the same typed fault, whether the launch is
// metered or replayed; alloc, transfer and read faults sit outside
// Device::launch and fire live either way. Memoization is bypassed only
// while another instrumentation plane owns the run — the sanitizer,
// reference metering or the profiler, which observe per-launch state a
// replay skips — or under a plan that flips device bytes (`ecc`,
// `corrupt`: FaultInjector::flips_bytes), since a flipped index moves
// gather addresses and with them the metering.
// tests/test_metering_invariance.cpp pins the memoized mode bit-identical
// to the metered ones, and tests/test_memo.cpp pins replay under every
// non-flip fault plan.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <list>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "vgpu/device_spec.hpp"
#include "vgpu/kernel.hpp"
#include "vgpu/warp.hpp"

namespace acsr::vgpu {

class Device;

namespace memo {

// --- zero-cost switch (same cached-bool shape as sanitize/prof) -----------
namespace detail {
inline bool memo_from_env() {
  const char* v = std::getenv("ACSR_MEMO");
  return v != nullptr && v[0] == '1';
}
inline bool g_memo_enabled = memo_from_env();
}  // namespace detail

inline bool memo_enabled() { return detail::g_memo_enabled; }
inline void set_memo_enabled(bool on) { detail::g_memo_enabled = on; }

/// True while another instrumentation plane owns kernel execution
/// (sanitizer, reference metering, profiler) or the fault plan flips
/// device bytes. The memo layer neither captures nor replays under any
/// of them.
bool plane_bypassed();

/// An ostringstream that prints doubles exactly (max_digits10), for
/// key material: two values that differ in the last ulp print differently.
std::ostringstream key_stream();

/// Every model-relevant DeviceSpec parameter folded into a string at full
/// precision, so two devices agree on a key only if their metering would
/// be bit-identical.
std::string spec_fingerprint(const DeviceSpec& spec);

/// One captured Device::launch (dynamic-parallelism children are part of
/// the parent's logical launch, exactly as Device::launch executes them).
struct LaunchRecord {
  std::string name;
  long long grid_dim = 0;
  int block_dim = 0;
  KernelRun run;
};

/// The launch sequence of one memoized execution (e.g. one SpMV).
struct MemoEntry {
  std::vector<LaunchRecord> launches;
};

struct MemoStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;  // least recently used entries past the bound
  std::uint64_t bypasses = 0;   // executions another plane owned
};

/// Process-wide key -> launch-sequence store, bounded by kMaxBytes with
/// least-recently-used eviction (entries outlive the owners that captured
/// them).
class MemoCache {
 public:
  /// What the cache holds at most, by entry_bytes. A launch record is
  /// ~300 B, so an in-core solver SpMV takes a few KB and an ooc-csr
  /// SpMV over 8 slabs (~40 grids) ~12 KB.
  static constexpr std::size_t kMaxBytes = std::size_t{16} << 20;

  static MemoCache& instance();

  /// nullptr on miss. Counts a hit or a miss; a hit becomes the most
  /// recently used entry. The returned handle keeps the entry alive
  /// through a replay even if a nested capture evicts it.
  std::shared_ptr<MemoEntry> find(const std::string& key);
  /// Whether `key` is cached, without counting a hit or a miss.
  bool contains(const std::string& key) const { return map_.count(key) != 0; }
  /// Insert-or-overwrite as the most recently used entry, then evict
  /// least recently used ones while the cache holds more than kMaxBytes
  /// (never the entry just put).
  void put(const std::string& key, MemoEntry entry);
  void clear();

  std::size_t size() const { return map_.size(); }
  std::size_t bytes() const { return bytes_; }
  const MemoStats& stats() const { return stats_; }
  void note_bypass() { ++stats_.bypasses; }
  void reset_stats() { stats_ = {}; }

 private:
  /// What an entry counts against kMaxBytes: its key and its records.
  static std::size_t entry_bytes(const std::string& key,
                                 const MemoEntry& entry);

  struct Slot {
    std::string key;
    std::shared_ptr<MemoEntry> entry;
    std::size_t bytes = 0;
  };
  using Lru = std::list<Slot>;  // front: most recently used

  void erase(Lru::iterator it);

  Lru lru_;
  std::unordered_map<std::string, Lru::iterator> map_;
  std::size_t bytes_ = 0;
  MemoStats stats_;
};

/// Capture-or-replay state installed on a Device for the duration of one
/// memoized execution. A session starts pending: the run's key depends on
/// the scratch its body stages, so Device::launch resolves it at the
/// body's first launch (Memoizer::run at the end, if the body launches
/// nothing), into kReplay — pop the next record, validate it against the
/// launch config, compute y through the launch's value kernel and return
/// the cached KernelRun — or kCapture, which appends a LaunchRecord per
/// Device::launch.
struct Session {
  enum class Kind { kPending, kCapture, kReplay };
  Kind kind = Kind::kPending;
  MemoEntry* entry = nullptr;
  std::size_t cursor = 0;  // replay: next record to consume
  ValueRef resolve;        // sets kind and entry (a non-owning callable)
};

/// RAII installation of a Session on a Device (restores the previous
/// session on scope exit, even when the body throws).
class SessionScope {
 public:
  SessionScope(Device& dev, Session& s);
  ~SessionScope();
  SessionScope(const SessionScope&) = delete;
  SessionScope& operator=(const SessionScope&) = delete;

 private:
  Device& dev_;
  Session* prev_;
};

/// Owner-side convenience: keys every run by the owner's recipe and a
/// caller-supplied tail (see the header). `run(dev, tail, fn)` replays
/// fn's launch sequence when that key is cached and captures it
/// otherwise; callers fold into the recipe and the tail everything
/// metering depends on — the operand, the layout of the buffers the run
/// touches, launch geometry.
class Memoizer {
 public:
  explicit Memoizer(std::string recipe) : recipe_(std::move(recipe)) {}

  /// Whether run(dev, ...) would capture or replay now, rather than run
  /// its body bypassed (another plane owns the run, or a session is
  /// already active on `dev`).
  static bool would_memoize(const Device& dev) {
    return !plane_bypassed() && !session_active(dev);
  }

  /// `tail()` returns the key's tail; it is called when the key is
  /// resolved (after the body has staged its scratch). `on_resolve(replay)`
  /// is told once whether the run replays or captures.
  template <class Tail, class Fn, class OnResolve = void (*)(bool)>
  double run(Device& dev, Tail&& tail, Fn&& fn,
             OnResolve&& on_resolve = [](bool) {}) {
    if (!memo_enabled()) return fn();
    if (!would_memoize(dev)) {
      MemoCache::instance().note_bypass();
      return fn();
    }
    MemoCache& cache = MemoCache::instance();
    std::string key;
    std::shared_ptr<MemoEntry> cached;  // keeps a replayed entry alive
    MemoEntry staged;
    Session s;
    const auto resolve = [&] {
      key = this->key(tail());
      cached = cache.find(key);
      s.kind = cached ? Session::Kind::kReplay : Session::Kind::kCapture;
      s.entry = cached ? cached.get() : &staged;
      on_resolve(cached != nullptr);
    };
    s.resolve = resolve;
    double t;
    {
      SessionScope scope(dev, s);
      t = fn();  // a throw discards `staged` (scope pops the session)
    }
    if (s.kind == Session::Kind::kPending) resolve();  // launched nothing
    if (cached) {
      ACSR_CHECK_MSG(s.cursor == cached->launches.size(),
                     "memo replay consumed " << s.cursor << " of "
                                             << cached->launches.size()
                                             << " launches for " << key);
      return t;
    }
    cache.put(key, std::move(staged));
    return t;
  }

 private:
  static bool session_active(const Device& dev);
  std::string key(const std::string& tail) const;

  std::string recipe_;
};

}  // namespace memo
}  // namespace acsr::vgpu
