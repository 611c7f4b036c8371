// Request-scoped distributed tracing on the simulated clock (docs/SLO.md).
//
// acsr-prof (src/prof/) observes *launches*; this layer observes
// *requests*: where one tenant query's simulated time went across the
// serving stack — admission queue, batch coalescing, the engine's
// upload/compute streams, the storage tier's drive reads and retry
// backoff. Each serve::BatchScheduler batch opens a span; everything the
// planes below record while that span is open becomes its children, so a
// span tree crosses serve -> engine -> storage without any plane knowing
// about the others (the propagation is the execution context itself,
// carried by the Tracer's open-span stack — the in-process analogue of a
// distributed trace context).
//
// The timeline is the span source: the Tracer is the process-wide
// vgpu::SpanSink, so every enqueue on a named StreamTimeline stream
// becomes exactly one execution span with the enqueue's own interval.
// Per-track span charges equal per-stream timeline charges by
// construction (pinned by tests/test_slo.cpp). Spans are a VIEW of the
// timeline, never a second cost model.
//
// Activation (the cached-bool discipline of ACSR_PROF/ACSR_MEMO):
//   ACSR_SLO=1           collect spans + SLO histograms
//   ACSR_TRACE=out.json  implies ACSR_SLO; spans are mirrored onto
//                        "slo:*" tracks of the prof Chrome trace
// With both unset every hook is one never-taken branch on a namespace-
// scope bool and the span sink is null; metering stays bit-identical
// (the kTraced mode of tests/test_metering_invariance.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "slo/histogram.hpp"
#include "vgpu/timeline.hpp"

namespace acsr::slo {

namespace detail {
bool slo_enabled_from_env();
// Initialised before main() so every hook reads one global bool (the
// same pattern as prof::g_profiler_enabled; acsr_audit gate discipline).
inline bool g_slo_enabled = slo_enabled_from_env();
}  // namespace detail

/// The one branch every tracing/SLO hook sits behind.
inline bool slo_enabled() { return detail::g_slo_enabled; }
/// Programmatic switch (tests, tools, benches); re-derives the span sink.
void set_slo_enabled(bool on);

/// Span taxonomy (docs/SLO.md). Latency spans (kRequest/kQueueWait/
/// kServe) describe one request's lifecycle; execution spans (the rest)
/// are timeline enqueues, one per enqueue, under the batch that ran it —
/// a batch serves k requests, but its device work must appear once, not
/// k times.
enum class SpanKind {
  kRequest,       ///< admission to result, one per request (root)
  kQueueWait,     ///< admission to batch launch
  kServe,         ///< batch launch to completion, names the batch
  kBatch,         ///< one coalesced width-k SpMM (execution root)
  kUpload,        ///< h2d slab/bin-metadata transfer (ooc streaming)
  kCompute,       ///< slab kernel time on the compute stream
  kIo,            ///< storage-tier drive service (read / timeout hang)
  kRetryBackoff,  ///< recovery/storage retry backoff charged to the clock
};
constexpr int kNumSpanKinds = 8;
const char* span_kind_name(SpanKind k);

/// The request identity carried from serve::Request through the
/// scheduler into the span tree (Request<T>::trace() mints one).
struct TraceContext {
  std::uint64_t request_id = 0;
  std::string tenant;
  double enqueue_s = 0.0;  ///< simulated admission time
};

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root (no enclosing span)
  SpanKind kind{};
  std::string name;
  std::string track;    ///< timeline resource ("h2d", "compute", "ssd0", ...)
  std::string tenant;   ///< latency spans only
  std::uint64_t request = 0;  ///< latency spans only
  double start_s = 0.0;
  double end_s = 0.0;
  double duration() const { return end_s - start_s; }
};

/// The span sink (vgpu::SpanSink): installed while ACSR_SLO or ACSR_PROF
/// is on. Track and tag map to a SpanKind ("h2d" -> kUpload, "compute" ->
/// kCompute, drive "backoff:*" and "recovery" backoff -> kRetryBackoff,
/// other drive work -> kIo); the profiler learns of recovery backoff here.
class Tracer final : public vgpu::SpanSink {
 public:
  static Tracer& instance();

  // --- execution spans (callers gate on slo_enabled()) --------------------
  /// Open a span at an absolute simulated time; it becomes the parent of
  /// everything recorded until the matching close(). Returns the span id.
  std::uint64_t open(SpanKind kind, std::string name, std::string track,
                     double start_s);
  /// Close the innermost open span.
  void close(double end_s);
  /// Innermost open span id (0 when none).
  std::uint64_t current() const;
  /// Append " [key=value]" to the innermost open span's name (the memo
  /// plane marks capture/replay this way). No-op when nothing is open.
  void annotate_open(const std::string& key, const std::string& value);

  // --- vgpu::SpanSink ------------------------------------------------------
  /// Where the current parent's timeline work ends: its start, pushed
  /// past every span a timeline has placed under it, so consecutive
  /// private timelines (the columns of a batch, the sweeps of a solve, a
  /// retry after an aborted attempt) concatenate instead of overlapping.
  double origin() const override;
  void on_enqueue(const std::string& track, const std::string& tag,
                  double start_s, double end_s) override;

  // --- latency spans -------------------------------------------------------
  /// Record one request's completed tree: a kRequest root spanning
  /// admission..completion with kQueueWait (admission..launch) and
  /// kServe (launch..completion, named after the carrying batch)
  /// children, all on the request's own "req:<tenant>#<id>" track.
  void record_request(const TraceContext& ctx, double launch_s,
                      double end_s, const std::string& batch_label);

  // --- queries --------------------------------------------------------------
  const std::vector<Span>& spans() const { return spans_; }
  /// Per-span-kind duration histogram (deterministic percentiles).
  const LatencyHistogram& kind_histogram(SpanKind k) const {
    return hists_[static_cast<std::size_t>(k)];
  }
  /// Sum of completed span durations on one track — the quantity that
  /// must equal the matching StreamTimeline stream's charges.
  double track_charge(const std::string& track) const;

  /// Drop all spans, cursors and histograms (tests, per-run tool use).
  void clear();

 private:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Per-parent placement state (parent 0 = root): where its timeline
  /// work ends (origin()) and where its next recovery backoff starts.
  /// Both begin at the parent's start; entries go when the parent closes.
  struct Cursors {
    double frontier = 0.0;
    double recovery = 0.0;
  };
  double parent_start() const {
    return open_.empty() ? 0.0 : open_.back().start_s;
  }
  Cursors& parent_cursors();
  /// Finish a span: histogram its duration, mirror it onto the prof
  /// trace when the profiler is on, store it.
  void finish(Span s);

  std::uint64_t next_id_ = 1;
  std::vector<Span> open_;
  std::vector<Span> spans_;
  std::map<std::uint64_t, Cursors> cursors_;
  std::array<LatencyHistogram, kNumSpanKinds> hists_{};
};

}  // namespace acsr::slo
