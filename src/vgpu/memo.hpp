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
// never walks the grid. A launch passed without one — an engine that has
// no value kernel yet — re-runs its grid in a value-only mode
// (KernelEnv::value_only) that computes y but skips all cache probes and
// accounting.
//
// The cache key is composed of
//   - the device-spec fingerprint (every model-relevant parameter),
//   - the owner's identity (engine/launcher name, matrix dims + nnz,
//     element width, tuning configuration),
//   - a per-instance tag, so entries die with the engine that captured
//     them (a rebuilt engine — e.g. after fault recovery — never replays
//     a predecessor's metering), and
//   - the matrix structure version (bumped by incremental_csr updates).
// Replay additionally validates each launch against the captured record
// (kernel name, grid_dim, block_dim) and that the launch count matches.
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

/// Every model-relevant DeviceSpec parameter folded into a string, so two
/// devices agree on a key only if their metering would be bit-identical.
std::string spec_fingerprint(const DeviceSpec& spec);

/// Fresh process-unique id for per-instance key tags.
std::uint64_t next_instance_id();

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
  std::uint64_t invalidations = 0;  // entries erased by owner teardown
  std::uint64_t bypasses = 0;       // executions another plane owned
};

/// Process-wide key -> launch-sequence store.
class MemoCache {
 public:
  static MemoCache& instance();

  /// nullptr on miss. Counts a hit or a miss.
  MemoEntry* find(const std::string& key);
  /// Whether `key` is cached, without counting a hit or a miss.
  bool contains(const std::string& key) const { return map_.count(key) != 0; }
  /// Insert-or-overwrite; returns the stored entry.
  MemoEntry& put(const std::string& key, MemoEntry entry);
  /// Drop every entry whose key starts with `prefix` (owner teardown /
  /// structural invalidation); each dropped entry counts as one
  /// invalidation.
  void erase_prefix(const std::string& prefix);
  void clear();

  std::size_t size() const { return map_.size(); }
  const MemoStats& stats() const { return stats_; }
  void note_bypass() { ++stats_.bypasses; }
  void reset_stats() { stats_ = {}; }

 private:
  std::unordered_map<std::string, MemoEntry> map_;
  MemoStats stats_;
};

/// Capture-or-replay state installed on a Device for the duration of one
/// memoized execution. kCapture appends a LaunchRecord per Device::launch;
/// kReplay pops the next record, validates it against the launch config,
/// computes y (the launch's value kernel, else a value-only grid walk)
/// and returns the cached KernelRun.
struct Session {
  enum class Kind { kCapture, kReplay };
  Session(Kind k, MemoEntry* e) : kind(k), entry(e) {}
  Kind kind;
  MemoEntry* entry;
  std::size_t cursor = 0;  // replay: next record to consume
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

/// Owner-side convenience: keys every run under a per-instance tag and
/// erases the instance's entries on destruction. `run(dev, subkey, fn)`
/// replays fn's launch sequence when (tag|subkey) is cached, captures it
/// otherwise; callers fold everything metering depends on — structure
/// version, launch geometry — into `subkey`.
class Memoizer {
 public:
  explicit Memoizer(const std::string& tag)
      : tag_(tag + "#" + std::to_string(next_instance_id()) + "|") {}
  ~Memoizer() { MemoCache::instance().erase_prefix(tag_); }
  Memoizer(const Memoizer&) = delete;
  Memoizer& operator=(const Memoizer&) = delete;

  /// The cache key run() uses for `subkey`.
  std::string key(const std::string& subkey) const { return tag_ + subkey; }

  /// Whether run(dev, ...) would capture or replay now, rather than run
  /// its body bypassed (another plane owns the run, or a session is
  /// already active on `dev`).
  static bool would_memoize(const Device& dev) {
    return !plane_bypassed() && !session_active(dev);
  }

  template <class Fn>
  double run(Device& dev, const std::string& subkey, Fn&& fn) {
    if (!memo_enabled()) return fn();
    if (!would_memoize(dev)) {
      MemoCache::instance().note_bypass();
      return fn();
    }
    const std::string key = this->key(subkey);
    MemoCache& cache = MemoCache::instance();
    if (MemoEntry* e = cache.find(key)) {
      Session s(Session::Kind::kReplay, e);
      SessionScope scope(dev, s);
      const double t = fn();
      ACSR_CHECK_MSG(s.cursor == e->launches.size(),
                     "memo replay consumed " << s.cursor << " of "
                                             << e->launches.size()
                                             << " launches for " << key);
      return t;
    }
    MemoEntry staged;
    Session s(Session::Kind::kCapture, &staged);
    double t;
    {
      SessionScope scope(dev, s);
      t = fn();  // a throw discards `staged` (scope pops the session)
    }
    cache.put(key, std::move(staged));
    return t;
  }

 private:
  static bool session_active(const Device& dev);

  std::string tag_;
};

}  // namespace memo
}  // namespace acsr::vgpu
