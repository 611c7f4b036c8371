#include "slo/trace.hpp"

#include <algorithm>
#include <cstdlib>
#include <string_view>

#include "common/check.hpp"
#include "prof/prof.hpp"

namespace acsr::slo {

namespace detail {
bool slo_enabled_from_env() {
  const char* s = std::getenv("ACSR_SLO");
  if (s != nullptr && s[0] == '1') return true;
  // ACSR_TRACE implies the slo plane: a trace without request spans
  // answers none of the questions docs/SLO.md poses.
  const char* t = std::getenv("ACSR_TRACE");
  return t != nullptr && t[0] != '\0';
}
}  // namespace detail

namespace {

constexpr const char* kRecovery = "recovery";
constexpr std::string_view kRecoveryBackoff = "recovery:retry backoff ";

/// The tracer is the span sink while either plane reading timeline spans
/// is on; null otherwise (docs/SLO.md).
void sync_span_sink() {
  vgpu::set_span_sink(slo_enabled() || prof::profiler_enabled()
                          ? &Tracer::instance()
                          : nullptr);
}

// Runs after both cached flags (defined above it in this TU): installs the
// sink for the env decision and re-derives it on every profiler toggle.
const bool g_span_sink_synced = [] {
  prof::detail::g_on_toggle = &sync_span_sink;
  sync_span_sink();
  return true;
}();

}  // namespace

void set_slo_enabled(bool on) {
  detail::g_slo_enabled = on;
  sync_span_sink();
}

const char* span_kind_name(SpanKind k) {
  switch (k) {
    case SpanKind::kRequest:
      return "request";
    case SpanKind::kQueueWait:
      return "queue-wait";
    case SpanKind::kServe:
      return "serve";
    case SpanKind::kBatch:
      return "batch";
    case SpanKind::kUpload:
      return "upload";
    case SpanKind::kCompute:
      return "compute";
    case SpanKind::kIo:
      return "io";
    case SpanKind::kRetryBackoff:
      return "retry-backoff";
  }
  return "?";
}

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

void Tracer::finish(Span s) {
  ACSR_CHECK_MSG(s.end_s >= s.start_s,
                 "slo: span '" << s.name << "' ends before it starts");
  hists_[static_cast<std::size_t>(s.kind)].add(s.duration());
  if (prof::profiler_enabled()) [[unlikely]]
    prof::Profiler::instance().add_completed_span("slo:" + s.track, s.name,
                                                  s.start_s, s.end_s);
  spans_.push_back(std::move(s));
}

std::uint64_t Tracer::open(SpanKind kind, std::string name,
                           std::string track, double start_s) {
  Span o;
  o.id = next_id_++;
  o.parent = current();
  o.kind = kind;
  o.name = std::move(name);
  o.track = std::move(track);
  o.start_s = start_s;
  open_.push_back(std::move(o));
  return open_.back().id;
}

void Tracer::close(double end_s) {
  ACSR_CHECK_MSG(!open_.empty(), "slo: close with no open span");
  Span s = std::move(open_.back());
  open_.pop_back();
  s.end_s = end_s;
  cursors_.erase(s.id);
  finish(std::move(s));
}

std::uint64_t Tracer::current() const {
  return open_.empty() ? 0 : open_.back().id;
}

void Tracer::annotate_open(const std::string& key,
                           const std::string& value) {
  if (open_.empty()) return;
  open_.back().name += " [" + key + "=" + value + "]";
}

double Tracer::origin() const {
  const auto it = cursors_.find(current());
  return it == cursors_.end() ? parent_start() : it->second.frontier;
}

void Tracer::on_enqueue(const std::string& track, const std::string& tag,
                        double start_s, double end_s) {
  Span s;
  if (track == kRecovery) {
    // Only backoff on the long-lived recovery timeline is execution time
    // (not its fault marks or solver checkpoints). That timeline has no
    // trace-time origin, so each backoff is appended at the parent's own
    // recovery cursor instead, which never moves origin().
    if (tag.rfind(kRecoveryBackoff, 0) != 0) return;
    const double d = end_s - start_s;
    if (prof::profiler_enabled()) [[unlikely]]
      prof::Profiler::instance().add_retry_backoff(
          d, tag.substr(kRecoveryBackoff.size()));
    if (!slo_enabled()) return;
    double& cursor = parent_cursors().recovery;
    s.kind = SpanKind::kRetryBackoff;
    s.start_s = cursor;
    cursor += d;
    s.end_s = cursor;
  } else {
    if (!slo_enabled()) return;
    s.kind = track == "h2d"                   ? SpanKind::kUpload
             : track == "compute"             ? SpanKind::kCompute
             : tag.rfind("backoff:", 0) == 0 ? SpanKind::kRetryBackoff
                                              : SpanKind::kIo;
    s.start_s = start_s;
    s.end_s = end_s;
    double& frontier = parent_cursors().frontier;
    frontier = std::max(frontier, end_s);
  }
  s.id = next_id_++;
  s.parent = current();
  s.name = tag;
  s.track = track;
  finish(std::move(s));
}

Tracer::Cursors& Tracer::parent_cursors() {
  return cursors_
      .try_emplace(current(), Cursors{parent_start(), parent_start()})
      .first->second;
}

void Tracer::record_request(const TraceContext& ctx, double launch_s,
                            double end_s, const std::string& batch_label) {
  ACSR_CHECK(ctx.enqueue_s <= launch_s && launch_s <= end_s);
  const std::string track =
      "req:" + ctx.tenant + "#" + std::to_string(ctx.request_id);
  Span root;
  root.id = next_id_++;
  root.parent = 0;
  root.kind = SpanKind::kRequest;
  root.name = "request " + ctx.tenant + "#" + std::to_string(ctx.request_id);
  root.track = track;
  root.tenant = ctx.tenant;
  root.request = ctx.request_id;
  root.start_s = ctx.enqueue_s;
  root.end_s = end_s;

  Span wait;
  wait.id = next_id_++;
  wait.parent = root.id;
  wait.kind = SpanKind::kQueueWait;
  wait.name = "queue-wait";
  wait.track = track;
  wait.tenant = ctx.tenant;
  wait.request = ctx.request_id;
  wait.start_s = ctx.enqueue_s;
  wait.end_s = launch_s;

  Span serve;
  serve.id = next_id_++;
  serve.parent = root.id;
  serve.kind = SpanKind::kServe;
  serve.name = "serve:" + batch_label;
  serve.track = track;
  serve.tenant = ctx.tenant;
  serve.request = ctx.request_id;
  serve.start_s = launch_s;
  serve.end_s = end_s;

  finish(std::move(root));
  finish(std::move(wait));
  finish(std::move(serve));
}

double Tracer::track_charge(const std::string& track) const {
  double t = 0.0;
  for (const Span& s : spans_)
    if (s.track == track) t += s.duration();
  return t;
}

void Tracer::clear() {
  next_id_ = 1;
  open_.clear();
  spans_.clear();
  cursors_.clear();
  hists_ = {};
}

}  // namespace acsr::slo
