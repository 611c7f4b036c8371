// Host-side stream/event timeline, mirroring the CUDA model the paper's
// driver uses: work items (kernels, transfers) enqueue on streams and run
// in issue order per stream; events let one stream wait on another.
//
// Its three accounting rules hold in the code, not in a model of it:
// every charge is non-negative (enqueue checks), a join waits only on an
// Event, which only an enqueue or a record makes (no event from a bare
// double, no default time-0 event), and Completions turns reading a
// completion before it is produced into an InvariantError. Charge parity
// (each unit of work enqueued once, on its stream) is checked over the
// out-of-core engine's real log in tests/test_ooc.cpp.
//
// A timeline is also the one source of execution spans (docs/SLO.md): a
// stream created with a track name reports every enqueue, placed on the
// trace clock, to the process-wide SpanSink. The sink is null unless a
// tracing plane is on (ACSR_SLO / ACSR_PROF), so an untraced enqueue pays
// one never-taken branch and vgpu never depends on the planes above it.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace acsr::vgpu {

/// Receives every enqueue on a named stream (src/slo/trace.cpp).
class SpanSink {
 public:
  /// Trace time a timeline built now maps its zero to.
  virtual double origin() const = 0;
  /// One enqueue of `tag` on stream `track`, in trace time.
  virtual void on_enqueue(const std::string& track, const std::string& tag,
                          double start_s, double end_s) = 0;

 protected:
  ~SpanSink() = default;
};

namespace detail {
inline SpanSink* g_span_sink = nullptr;
}  // namespace detail

inline SpanSink* span_sink() { return detail::g_span_sink; }
inline void set_span_sink(SpanSink* sink) { detail::g_span_sink = sink; }

class StreamTimeline {
 public:
  using StreamId = int;

  /// A point in simulated time that some stream has reached: the
  /// completion of an enqueue, or a stream's position at a record().
  class Event {
   public:
    double at_s() const { return at_s_; }
    /// Orders completions: the later of two is where both have finished.
    friend bool operator<(const Event& a, const Event& b) {
      return a.at_s_ < b.at_s_;
    }

   private:
    friend class StreamTimeline;
    explicit Event(double at_s) : at_s_(at_s) {}
    double at_s_;
  };

  /// Completion events in the order they were produced, read back by
  /// index (slab i's upload, slab i's compute). Reading one that has not
  /// been produced yet is an InvariantError, where a vector of doubles
  /// would read 0.0 and silently erase the fence.
  class Completions {
   public:
    explicit Completions(std::size_t n) { events_.reserve(n); }
    void push_back(const Event& e) { events_.push_back(e); }
    const Event& operator[](std::size_t i) const {
      ACSR_CHECK_MSG(i < events_.size(), "completion " << i
                                             << " read before it was "
                                                "produced ("
                                             << events_.size() << " so far)");
      return events_[i];
    }

   private:
    std::vector<Event> events_;
  };

  /// `track` names the stream's span track ("h2d", "compute", a drive,
  /// "recovery"); an unnamed stream records no spans.
  StreamId create_stream(std::string track = {}) {
    cursors_.push_back(0.0);
    tracks_.push_back(std::move(track));
    return static_cast<StreamId>(cursors_.size() - 1);
  }

  /// Trace time this timeline's zero maps to (read once, at construction).
  double origin() const { return origin_; }

  std::size_t num_streams() const { return cursors_.size(); }

  /// Enqueue `duration_s` of work; returns its completion. Work on one
  /// stream serialises; different streams are independent until joined
  /// by events.
  Event enqueue(StreamId s, double duration_s, std::string tag = {}) {
    ACSR_CHECK(duration_s >= 0.0);
    auto& cur = cursor(s);
    const double start = cur;
    cur += duration_s;
    if (SpanSink* sink = span_sink()) [[unlikely]] {
      const std::string& track = tracks_[static_cast<std::size_t>(s)];
      if (!track.empty())
        sink->on_enqueue(track, tag, origin_ + start, origin_ + cur);
    }
    log_.push_back({s, start, cur, std::move(tag)});
    return Event(cur);
  }

  /// cudaEventRecord: capture the stream's current completion time.
  Event record(StreamId s) { return Event(cursor(s)); }

  /// cudaStreamWaitEvent: the stream cannot issue further work until the
  /// event has completed.
  void wait(StreamId s, const Event& e) {
    auto& cur = cursor(s);
    cur = std::max(cur, e.at_s_);
  }

  /// Join every stream (device-wide synchronise); returns the makespan.
  double synchronize() {
    double t = 0.0;
    for (double c : cursors_) t = std::max(t, c);
    for (double& c : cursors_) c = t;
    return t;
  }

  double now(StreamId s) const {
    ACSR_CHECK(static_cast<std::size_t>(s) < cursors_.size());
    return cursors_[static_cast<std::size_t>(s)];
  }

  struct LogEntry {
    StreamId stream;
    double start_s;
    double end_s;
    std::string tag;
  };
  const std::vector<LogEntry>& log() const { return log_; }

  /// Total busy time across streams (for utilisation reports).
  double busy_seconds() const {
    double t = 0.0;
    for (const auto& e : log_) t += e.end_s - e.start_s;
    return t;
  }

 private:
  double& cursor(StreamId s) {
    ACSR_CHECK_MSG(s >= 0 && static_cast<std::size_t>(s) < cursors_.size(),
                   "unknown stream " << s);
    return cursors_[static_cast<std::size_t>(s)];
  }

  double origin_ = span_sink() != nullptr ? span_sink()->origin() : 0.0;
  std::vector<double> cursors_;
  std::vector<std::string> tracks_;
  std::vector<LogEntry> log_;
};

}  // namespace acsr::vgpu
