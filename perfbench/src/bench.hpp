// Measurement building blocks of the repo benchmark: a host clock, an
// in-memory span recorder, order statistics, and the forwarding timing
// wrapper that sits between a caller and an SpmvEngine.
//
// Everything here lives outside the program under test: spans are taken
// around calls into the program's public functions, counts are read from
// its public accessors after each call.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "spmv/engine.hpp"
#include "vgpu/memo.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64: the benchmark's own generator, so the inputs it makes do
/// not change when the program's RNG does.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

/// FNV-1a over raw bytes, chainable: the digest of a run's inputs.
inline std::uint64_t fnv1a(const void* p, std::size_t n,
                           std::uint64_t h = 14695981039346656037ULL) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 1099511628211ULL;
  }
  return h;
}

template <class U>
std::uint64_t fnv1a_vec(const std::vector<U>& v, std::uint64_t h) {
  return fnv1a(v.data(), v.size() * sizeof(U), h);
}

// --- host speed ---------------------------------------------------------------

/// A fixed unit of host work owned by the benchmark, so it never changes
/// with the program. On a shared host the speed of one core drifts by up
/// to 1.7x over tens of seconds (neighbours contend for caches and
/// cores). Timing this probe next to the program measures that drift, so
/// wall times can be reported at the nominal speed of a quiet host.
///
/// It mixes the two access patterns the simulator's host code spends its
/// time in, because they slow down by different amounts under contention:
/// (A) random gathers over a 4 MiB table with a small hash map, then a
/// sort; (B) inserts into a hash set of 2^18 keys (pointer chasing, like
/// the sector caches) and a 32-lane arithmetic loop. The probe's time is
/// the geometric mean of the two parts.
class SpeedProbe {
 public:
  /// sqrt(time A * time B) on a quiet host; only scales the reported
  /// numbers, never their spread.
  static constexpr double kNominalS = 0.0106;

  SpeedProbe() : table_(std::size_t{1} << 19) {
    std::uint64_t s = 1;
    for (std::uint64_t& v : table_) {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      v = s;
    }
  }

  /// The host's current slowness: probe time over nominal (1 = nominal,
  /// 1.5 = everything takes half as long again).
  double slowness() { return std::sqrt(part_a() * part_b()) / kNominalS; }

 private:
  double part_a() {
    const std::int64_t t0 = now_ns();
    std::uint64_t acc = 0, s = 7;
    std::unordered_map<std::uint64_t, std::uint64_t> m;
    m.reserve(std::size_t{1} << 14);
    const std::uint64_t mask = table_.size() - 1;
    for (int i = 0; i < 400000; ++i) {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      acc += table_[(s >> 20) & mask];
      if ((i & 31) == 0) m[s & 0xffff] += acc;
    }
    std::vector<std::uint64_t> v(table_.begin(), table_.begin() + 65536);
    std::sort(v.begin(), v.end());
    sink_ = sink_ + acc + v[100] + m.size();
    return static_cast<double>(now_ns() - t0) * 1e-9;
  }

  double part_b() {
    const std::int64_t t0 = now_ns();
    std::unordered_set<std::uint64_t> set;
    set.reserve(std::size_t{1} << 17);
    std::uint64_t s = 11, dup = 0;
    for (int i = 0; i < 300000; ++i) {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      if (!set.insert((s >> 33) & ((1u << 18) - 1)).second) ++dup;
    }
    double lanes[32] = {};
    for (int r = 0; r < 20000; ++r)
      for (int l = 0; l < 32; ++l)
        lanes[l] = lanes[l] * 0.999 + static_cast<double>((r * 31 + l) & 7);
    sink_ = sink_ + dup + static_cast<std::uint64_t>(lanes[3]);
    return static_cast<double>(now_ns() - t0) * 1e-9;
  }

  std::vector<std::uint64_t> table_;
  volatile std::uint64_t sink_ = 0;
};

// --- spans ------------------------------------------------------------------

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index into the recorder's span list, -1 = root
};

/// In-memory span recorder. Disabled recorders cost one branch per span.
class Spans {
 public:
  bool enabled = false;

  void open(std::string name) {
    if (!enabled) return;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), now_ns(), 0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
  }
  void close() {
    if (!enabled) return;
    spans_[static_cast<std::size_t>(stack_.back())].end_ns = now_ns();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Spans& s, std::string name) : s_(s) { s_.open(std::move(name)); }
  ~ScopedSpan() { s_.close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Spans& s_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children may overlap each other; the
/// covered part is the union of their intervals, clipped to the parent).
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].push_back(
          {s.start_ns, s.end_ns});
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0, cur_hi = 0;
    bool have = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, p.start_ns);
      hi = std::min(hi, p.end_ns);
      if (hi <= lo) continue;
      if (have && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (have) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      have = true;
    }
    if (have) covered += cur_hi - cur_lo;
    self[i] = (p.end_ns - p.start_ns) - covered;
  }
  return self;
}

// --- order statistics -------------------------------------------------------

/// Nearest-rank percentile (q in (0, 1]) of unsorted samples; 0 when empty.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size()) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

inline double median(std::vector<double> v) { return percentile(v, 0.5); }

/// Samples strictly above the nearest-rank percentile's position.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return n - std::min(rank, n);
}

/// The highest percentile of the ladder that leaves at least
/// `min_beyond` samples above it out of n; the median when none does.
inline double tail_quantile(std::size_t n, std::size_t min_beyond = 10) {
  static constexpr double kLadder[] = {0.999, 0.995, 0.99, 0.98, 0.95,
                                       0.9,   0.8,   0.75, 0.5};
  for (double q : kLadder)
    if (samples_beyond(n, q) >= min_beyond) return q;
  return 0.5;
}

// --- the forwarding timing wrapper -----------------------------------------

/// What the wrapper saw, summed over every engine call it forwarded.
struct EngineStats {
  std::uint64_t calls = 0;
  std::uint64_t vectors = 0;   ///< Σ vectors (1 per simulate, k per batch)
  double nnz_vectors = 0.0;    ///< Σ nnz × vectors
  std::int64_t wall_ns = 0;
  double sim_s = 0.0;
  acsr::vgpu::Counters counters;  ///< Σ report().last_run.counters
  double dram_bytes = 0.0;        ///< Σ report().last_run.dram_bytes
  // Memo classification of each call, by the change in MemoCache::stats().
  std::uint64_t capture_calls = 0, replay_calls = 0;
  std::int64_t capture_ns = 0, replay_ns = 0;
};

/// A forwarding SpmvEngine<double> the benchmark owns. It overrides every
/// virtual of the interface, so a caller sees the wrapped engine's exact
/// behaviour: the batched entry points forward to the wrapped engine's
/// batched path (never the base class's column loop), and y, simulated
/// seconds and Counters are those of the wrapped engine.
class TimedEngine final : public acsr::spmv::SpmvEngine<double> {
 public:
  TimedEngine(acsr::spmv::SpmvEngine<double>& inner, Spans& spans)
      : inner_(inner), spans_(spans) {}

  const std::string& name() const override { return inner_.name(); }
  acsr::vgpu::Device& device() override { return inner_.device(); }
  acsr::mat::index_t rows() const override { return inner_.rows(); }
  acsr::mat::index_t cols() const override { return inner_.cols(); }
  acsr::mat::offset_t nnz() const override { return inner_.nnz(); }
  const acsr::spmv::EngineReport& report() const override {
    return inner_.report();
  }

  void apply(const std::vector<double>& x,
             std::vector<double>& y) const override {
    inner_.apply(x, y);
  }
  void apply_batch(const acsr::mat::DenseBlock<double>& x_block,
                   acsr::mat::DenseBlock<double>& y_block) const override {
    inner_.apply_batch(x_block, y_block);
  }

  double simulate(const std::vector<double>& x,
                  std::vector<double>& y) override {
    return timed("engine.simulate", 1,
                 [&] { return inner_.simulate(x, y); });
  }
  double simulate_batch(const acsr::mat::DenseBlock<double>& x_block,
                        acsr::mat::DenseBlock<double>& y_block) override {
    return timed("engine.simulate_batch",
                 static_cast<std::uint64_t>(x_block.width),
                 [&] { return inner_.simulate_batch(x_block, y_block); });
  }

  const EngineStats& stats() const { return stats_; }

 private:
  template <class Fn>
  double timed(const char* span, std::uint64_t vectors, Fn&& fn) {
    const acsr::vgpu::memo::MemoStats before =
        acsr::vgpu::memo::MemoCache::instance().stats();
    ScopedSpan s(spans_, span);
    const std::int64_t t0 = now_ns();
    const double sim = fn();
    const std::int64_t dt = now_ns() - t0;
    const acsr::vgpu::memo::MemoStats& after =
        acsr::vgpu::memo::MemoCache::instance().stats();
    stats_.calls += 1;
    stats_.vectors += vectors;
    stats_.nnz_vectors +=
        static_cast<double>(inner_.nnz()) * static_cast<double>(vectors);
    stats_.wall_ns += dt;
    stats_.sim_s += sim;
    stats_.counters += inner_.report().last_run.counters;
    stats_.dram_bytes += inner_.report().last_run.dram_bytes;
    if (after.hits > before.hits) {
      stats_.replay_calls += 1;
      stats_.replay_ns += dt;
    } else if (after.misses > before.misses) {
      stats_.capture_calls += 1;
      stats_.capture_ns += dt;
    }
    return sim;
  }

  acsr::spmv::SpmvEngine<double>& inner_;
  Spans& spans_;
  EngineStats stats_;
};

}  // namespace perfbench
