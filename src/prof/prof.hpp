// acsr-prof: the profiling & tracing layer for the virtual GPU.
//
// The cost model reports *totals* (Counters, KernelRun); every perf claim
// so far has been verified by those totals alone. This subsystem adds the
// attribution the paper's own analysis is built on — where the time goes,
// per kernel, per bin, per SM — without perturbing the model: profiling
// reads the executor's state, it never meters anything.
//
// Activation (both imply the other's collection):
//   ACSR_PROF=1          collect samples; tools/acsr_prof renders them
//   ACSR_TRACE=out.json  additionally write a Chrome trace-event file at
//                        process exit (load in chrome://tracing or
//                        https://ui.perfetto.dev)
//
// Zero-cost-when-off contract (the same cached-bool discipline as
// ACSR_VERIFY / ACSR_SANITIZE): the env decision is taken once before
// main() into detail::g_profiler_enabled; every hook in the executor is
// one never-taken `if (...) [[unlikely]]` branch on that bool (or on the
// null KernelEnv::lane_prof pointer it gates). Metering parity — profiled
// runs produce bit-identical Counters and roofline numbers — is pinned by
// the kProfiled mode of tests/test_metering_invariance.cpp.
//
// Timeline model: the profiler keeps one global *simulated* clock. Each
// Device::launch advances it by the launch's modelled duration; each
// retry backoff enqueued on ResilientEngine's "recovery" StreamTimeline
// stream advances it by that enqueue's width, reported through the one
// timeline span sink (src/slo/trace.cpp); apps mirror their analytic
// per-iteration charges through phase(). Concurrent-group launches
// (ACSR's per-bin grids) thus appear serialised, in issue order — the
// trace is an attribution view of the model, not a second timing model.
// docs/OBSERVABILITY.md documents the full schema.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "prof/lane_counters.hpp"
#include "vgpu/kernel.hpp"

namespace acsr::prof {

namespace detail {
bool profiler_enabled_from_env();
// Mirror of Profiler's enabled flag, initialised before main() so the hot
// path reads one global bool (same pattern as sanitizer_enabled()).
inline bool g_profiler_enabled = profiler_enabled_from_env();
// Called after every set_profiler_enabled: the slo plane, which owns the
// timeline span sink, re-derives it from both planes' flags.
inline void (*g_on_toggle)() = nullptr;
}  // namespace detail

/// The one branch every profiling hook sits behind.
inline bool profiler_enabled() { return detail::g_profiler_enabled; }
/// Programmatic switch (tests, tools). Flips the cached mirror too.
void set_profiler_enabled(bool on);

/// Monotonic host wall-clock, only sampled when profiling is on (host_ns
/// attribution of executor time is how the wall-clock regressions in
/// BENCH_wallclock.json get localised to a kernel).
std::uint64_t host_now_ns();

/// A dynamic-parallelism child grid recorded under its parent launch.
struct ChildGrid {
  std::string name;
  long long grid_dim = 1;
  int block_dim = 32;
};

/// One Device::launch (parent grid + all its DP children), as sampled by
/// the profiler: the full KernelRun breakdown plus the lane-utilisation
/// tallies and host wall time the cost model itself does not keep.
struct LaunchSample {
  std::string device;
  std::string kernel;
  std::string context;  // innermost ScopedContext label ("" if none)
  std::string note;     // per-launch annotation (bin geometry etc.)
  double start_s = 0.0;  // simulated clock at launch begin
  vgpu::KernelRun run;
  LaneCounters lanes;
  std::uint64_t host_ns = 0;         // wall time inside Device::launch
  std::vector<double> sm_issue_s;    // per-SM issue-bound seconds
  std::vector<ChildGrid> children;
};

/// A completed scoped region on a named host-side track (app iteration
/// phases, recovery backoff windows).
struct SpanSample {
  std::string track;
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
};

/// A point event (fault struck, recovery action taken).
struct InstantSample {
  std::string name;
  double ts_s = 0.0;
};

class Profiler {
 public:
  static Profiler& instance();

  // --- collection (callers gate on profiler_enabled()) --------------------
  /// Record a finished launch and advance the simulated clock by its
  /// duration. `sm_issue_s` is the per-SM issue time already converted to
  /// seconds by the caller (the profiler never recomputes model terms).
  void record_launch(std::string device, const vgpu::KernelRun& run,
                     const LaneCounters& lanes,
                     std::vector<ChildGrid> children, std::uint64_t host_ns,
                     std::vector<double> sm_issue_s);

  /// Attach a one-line annotation to the next record_launch (the ACSR
  /// driver labels each bin grid with its row count and vector size).
  void annotate_next_launch(std::string note);

  /// Context labels group launches in the summary (per-engine columns).
  void push_context(std::string label);
  void pop_context();
  const std::string& context() const;

  /// Begin/end a region on a named host track at the current simulated
  /// clock. Regions on one track must nest.
  void begin_span(const std::string& track, std::string name);
  void end_span(const std::string& track);
  /// A region of known width: records [clock, clock + duration_s] on
  /// `track` and advances the clock — how apps mirror their analytic
  /// per-iteration charges onto the timeline.
  void phase(const std::string& track, std::string name, double duration_s);

  void instant(std::string name);

  /// Record an already-completed span at absolute simulated times without
  /// touching the profiler clock — how the slo tracer (src/slo/) mirrors
  /// request/batch/io spans onto the Chrome trace eagerly at span close
  /// (the exit-time writer then needs no cross-singleton handshake).
  void add_completed_span(std::string track, std::string name,
                          double start_s, double end_s);

  /// A retry backoff enqueued on the "recovery" timeline stream (the span
  /// sink reports it): advances the clock, records a span on the
  /// "recovery" track, and accumulates the total that test_faults.cpp
  /// reconciles against the engine's StreamTimeline.
  void add_retry_backoff(double seconds, const std::string& what);

  // --- queries --------------------------------------------------------------
  double clock_s() const { return clock_s_; }
  double retry_backoff_s() const { return retry_backoff_s_; }
  const std::vector<LaunchSample>& launches() const { return launches_; }
  const std::vector<SpanSample>& spans() const { return spans_; }
  const std::vector<InstantSample>& instants() const { return instants_; }

  /// Drop all samples and reset the clock (tests and per-engine tool runs).
  void clear();

  // --- export ---------------------------------------------------------------
  /// Chrome trace-event document ("traceEvents" array of M/B/E/i events;
  /// schema in docs/OBSERVABILITY.md).
  json::Value chrome_trace() const;
  /// Serialise chrome_trace() to `path`; false on I/O failure.
  bool write_trace(const std::string& path) const;
  /// Path from ACSR_TRACE ("" when unset). The profiler writes the trace
  /// there automatically at process exit.
  const std::string& trace_path() const { return trace_path_; }

 private:
  Profiler();
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  struct OpenSpan {
    std::string track;
    std::string name;
    double start_s;
  };

  friend void set_profiler_enabled(bool);

  bool enabled_ = false;
  std::string trace_path_;
  double clock_s_ = 0.0;
  double retry_backoff_s_ = 0.0;
  std::string pending_note_;
  std::vector<std::string> context_;
  std::vector<OpenSpan> open_spans_;
  std::vector<LaunchSample> launches_;
  std::vector<SpanSample> spans_;
  std::vector<InstantSample> instants_;
};

// --- RAII helpers (each costs one branch when profiling is off) ------------

class ScopedContext {
 public:
  explicit ScopedContext(std::string label) : on_(profiler_enabled()) {
    if (on_) [[unlikely]]
      Profiler::instance().push_context(std::move(label));
  }
  ~ScopedContext() {
    if (on_) [[unlikely]]
      Profiler::instance().pop_context();
  }
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  bool on_;
};

class ScopedSpan {
 public:
  ScopedSpan(std::string track, std::string name) : on_(profiler_enabled()) {
    if (on_) [[unlikely]] {
      track_ = std::move(track);
      Profiler::instance().begin_span(track_, std::move(name));
    }
  }
  ~ScopedSpan() {
    if (on_) [[unlikely]]
      Profiler::instance().end_span(track_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool on_;
  std::string track_;
};

/// App-side iteration marker: one span of `duration_s` on `track`.
inline void phase_marker(const char* track, const char* name,
                         double duration_s) {
  if (profiler_enabled()) [[unlikely]]
    Profiler::instance().phase(track, name, duration_s);
}

}  // namespace acsr::prof
