#include "prof/prof.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <cstdlib>
#include <map>

#include "common/check.hpp"
#include "prof/metrics.hpp"

namespace acsr::prof {

namespace detail {
bool profiler_enabled_from_env() {
  const char* p = std::getenv("ACSR_PROF");
  if (p != nullptr && p[0] == '1') return true;
  const char* t = std::getenv("ACSR_TRACE");
  return t != nullptr && t[0] != '\0';
}
}  // namespace detail

void set_profiler_enabled(bool on) {
  detail::g_profiler_enabled = on;
  Profiler::instance().enabled_ = on;
  if (detail::g_on_toggle != nullptr) detail::g_on_toggle();
}

std::uint64_t host_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Profiler::Profiler() : enabled_(detail::profiler_enabled_from_env()) {
  const char* t = std::getenv("ACSR_TRACE");
  if (t != nullptr) trace_path_ = t;
}

Profiler::~Profiler() {
  // ACSR_TRACE contract: the trace lands on disk at process exit, however
  // the process ends (the tool path also writes explicitly). Exit-time
  // failures must stay silent-but-harmless.
  if (enabled_ && !trace_path_.empty()) {
    try {
      write_trace(trace_path_);
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
  }
}

Profiler& Profiler::instance() {
  static Profiler p;
  return p;
}

void Profiler::record_launch(std::string device, const vgpu::KernelRun& run,
                             const LaneCounters& lanes,
                             std::vector<ChildGrid> children,
                             std::uint64_t host_ns,
                             std::vector<double> sm_issue_s) {
  LaunchSample s;
  s.device = std::move(device);
  s.kernel = run.name;
  s.context = context();
  s.note = std::move(pending_note_);
  pending_note_.clear();
  s.start_s = clock_s_;
  s.run = run;
  s.lanes = lanes;
  s.host_ns = host_ns;
  s.sm_issue_s = std::move(sm_issue_s);
  s.children = std::move(children);
  clock_s_ += run.duration_s;
  launches_.push_back(std::move(s));
}

void Profiler::annotate_next_launch(std::string note) {
  pending_note_ = std::move(note);
}

void Profiler::push_context(std::string label) {
  context_.push_back(std::move(label));
}

void Profiler::pop_context() {
  ACSR_CHECK_MSG(!context_.empty(), "prof: pop_context with no context");
  context_.pop_back();
}

const std::string& Profiler::context() const {
  static const std::string kEmpty;
  return context_.empty() ? kEmpty : context_.back();
}

void Profiler::begin_span(const std::string& track, std::string name) {
  open_spans_.push_back({track, std::move(name), clock_s_});
}

void Profiler::end_span(const std::string& track) {
  // Spans on one track nest, so the matching open is the innermost one
  // with this track name.
  for (std::size_t i = open_spans_.size(); i-- > 0;) {
    if (open_spans_[i].track != track) continue;
    spans_.push_back({open_spans_[i].track, std::move(open_spans_[i].name),
                      open_spans_[i].start_s, clock_s_});
    open_spans_.erase(open_spans_.begin() + static_cast<std::ptrdiff_t>(i));
    return;
  }
  ACSR_CHECK_MSG(false, "prof: end_span on track '" << track
                                                    << "' with no open span");
}

void Profiler::phase(const std::string& track, std::string name,
                     double duration_s) {
  ACSR_CHECK(duration_s >= 0.0);
  const double start = clock_s_;
  clock_s_ += duration_s;
  spans_.push_back({track, std::move(name), start, clock_s_});
}

void Profiler::add_completed_span(std::string track, std::string name,
                                  double start_s, double end_s) {
  ACSR_CHECK(end_s >= start_s);
  spans_.push_back({std::move(track), std::move(name), start_s, end_s});
}

void Profiler::instant(std::string name) {
  instants_.push_back({std::move(name), clock_s_});
}

void Profiler::add_retry_backoff(double seconds, const std::string& what) {
  retry_backoff_s_ += seconds;
  instant("fault:retry " + what);
  phase("recovery", "recovery:retry backoff " + what, seconds);
}

void Profiler::clear() {
  clock_s_ = 0.0;
  retry_backoff_s_ = 0.0;
  pending_note_.clear();
  context_.clear();
  open_spans_.clear();
  launches_.clear();
  spans_.clear();
  instants_.clear();
}

namespace {

constexpr double kUsPerS = 1e6;

json::Value meta_event(const char* name, int pid, int tid,
                       const std::string& label) {
  json::Object o;
  o.emplace("name", name);
  o.emplace("ph", "M");
  o.emplace("ts", 0.0);
  o.emplace("pid", pid);
  o.emplace("tid", tid);
  json::Object args;
  args.emplace("name", label);
  o.emplace("args", std::move(args));
  return json::Value(std::move(o));
}

json::Value event(char ph, const std::string& name, double ts_s, int pid,
                  int tid, json::Object args = {}) {
  json::Object o;
  o.emplace("name", name);
  o.emplace("ph", std::string(1, ph));
  o.emplace("ts", ts_s * kUsPerS);
  o.emplace("pid", pid);
  o.emplace("tid", tid);
  if (ph == 'i') o.emplace("s", "g");  // global-scope instant
  if (!args.empty()) o.emplace("args", std::move(args));
  return json::Value(std::move(o));
}

json::Object launch_args(const LaunchSample& s) {
  json::Object a;
  if (!s.context.empty()) a.emplace("context", s.context);
  if (!s.note.empty()) a.emplace("note", s.note);
  const vgpu::Counters& c = s.run.counters;
  a.emplace("blocks", c.blocks);
  a.emplace("warps", c.warps);
  a.emplace("issue_cycles", c.issue_cycles);
  a.emplace("gmem_bytes", c.gmem_bytes);
  a.emplace("tex_bytes", c.tex_bytes);
  a.emplace("child_launches", c.child_launches);
  a.emplace("lane_occupancy_pct", lane_occupancy_pct(s.lanes));
  a.emplace("coalescing_efficiency", coalescing_efficiency(s.lanes, c));
  a.emplace("dp_ms", s.run.dp_s * 1e3);
  a.emplace("host_us", static_cast<double>(s.host_ns) / 1e3);
  return a;
}

}  // namespace

json::Value Profiler::chrome_trace() const {
  json::Array events;

  // pid 1 is the host process; devices get pids 2.. in first-seen order.
  constexpr int kHostPid = 1;
  std::map<std::string, int> device_pid;
  for (const auto& l : launches_)
    device_pid.emplace(l.device, 0);
  {
    int next = kHostPid + 1;
    for (auto& [name, pid] : device_pid) pid = next++;
  }

  // Host tids: named tracks in first-use order; instants get track 0.
  std::map<std::string, int> host_tid;
  host_tid.emplace("events", 0);
  for (const auto& sp : spans_) host_tid.emplace(sp.track, 0);
  {
    int next = 0;
    for (auto& [name, tid] : host_tid) tid = next++;
  }

  events.push_back(meta_event("process_name", kHostPid, 0, "host"));
  for (const auto& [track, tid] : host_tid)
    events.push_back(meta_event("thread_name", kHostPid, tid, track));
  for (const auto& [dev, pid] : device_pid) {
    events.push_back(meta_event("process_name", pid, 0, "device:" + dev));
    events.push_back(meta_event("thread_name", pid, 0, "stream"));
  }
  // SM thread names, only for SMs that ever carried issue work.
  for (const auto& [dev, pid] : device_pid) {
    std::size_t max_sm = 0;
    for (const auto& l : launches_) {
      if (l.device != dev) continue;
      for (std::size_t i = 0; i < l.sm_issue_s.size(); ++i)
        if (l.sm_issue_s[i] > 0.0) max_sm = std::max(max_sm, i + 1);
    }
    for (std::size_t i = 0; i < max_sm; ++i)
      events.push_back(meta_event("thread_name", pid,
                                  1 + static_cast<int>(i),
                                  "SM " + std::to_string(i)));
  }

  // Kernel launches: B/E on the device stream track, children nested in
  // the dynamic-parallelism window, per-SM issue spans on the SM tracks.
  for (const auto& l : launches_) {
    const int pid = device_pid.at(l.device);
    const double end_s = l.start_s + l.run.duration_s;
    events.push_back(event('B', l.kernel, l.start_s, pid, 0,
                           launch_args(l)));
    if (!l.children.empty()) {
      // The device runtime's handling window is the dp_s tail of the
      // launch; child slices split it proportionally to their thread
      // counts. This is *attribution* of the modelled dp cost, not an
      // independently timed quantity (docs/OBSERVABILITY.md).
      const double window = std::max(l.run.dp_s, 0.0);
      double total_threads = 0.0;
      for (const auto& ch : l.children)
        total_threads += static_cast<double>(ch.grid_dim) *
                         static_cast<double>(ch.block_dim);
      double t = end_s - window;
      for (const auto& ch : l.children) {
        const double share =
            total_threads > 0.0
                ? static_cast<double>(ch.grid_dim) *
                      static_cast<double>(ch.block_dim) / total_threads
                : 1.0 / static_cast<double>(l.children.size());
        const double w = window * share;
        json::Object a;
        a.emplace("grid_dim", ch.grid_dim);
        a.emplace("block_dim", ch.block_dim);
        events.push_back(event('B', ch.name, t, pid, 0, std::move(a)));
        t += w;
        events.push_back(event('E', ch.name, t, pid, 0));
      }
    }
    events.push_back(event('E', l.kernel, end_s, pid, 0));
    for (std::size_t i = 0; i < l.sm_issue_s.size(); ++i) {
      if (l.sm_issue_s[i] <= 0.0) continue;
      const int tid = 1 + static_cast<int>(i);
      events.push_back(event('B', l.kernel, l.start_s, pid, tid));
      events.push_back(event('E', l.kernel, l.start_s + l.sm_issue_s[i],
                             pid, tid));
    }
  }

  // Host spans. Completed spans are stored in *end* order; per-track B/E
  // streams must come out in timeline order with nesting, so rebuild the
  // event sequence per track and merge-sort by (ts, B-open-before-close
  // ties resolved by span extent).
  for (const auto& [track, tid] : host_tid) {
    struct Ev {
      double ts;
      char ph;
      double extent;  // sort key for simultaneous events
      const SpanSample* sp;
    };
    std::vector<Ev> evs;
    for (const auto& sp : spans_) {
      if (sp.track != track) continue;
      evs.push_back({sp.start_s, 'B', -(sp.end_s - sp.start_s), &sp});
      evs.push_back({sp.end_s, 'E', (sp.end_s - sp.start_s), &sp});
    }
    // Timeline order with correct nesting at shared timestamps:
    // non-zero-width E's first (spans ending here opened earlier), then
    // B's longest-extent-first (outer opens before inner; a zero-width
    // B sorts after wider ones), then zero-width E's (closing the pair
    // just opened). The (ts, rank, extent) key is lexicographic, hence a
    // strict weak order.
    auto rank = [](const Ev& e) {
      return e.ph == 'E' ? (e.extent > 0.0 ? 0 : 2) : 1;
    };
    std::stable_sort(evs.begin(), evs.end(),
                     [&rank](const Ev& a, const Ev& b) {
                       if (a.ts != b.ts) return a.ts < b.ts;
                       if (rank(a) != rank(b)) return rank(a) < rank(b);
                       return a.extent < b.extent;
                     });
    for (const auto& e : evs)
      events.push_back(event(e.ph, e.sp->name, e.ts, kHostPid, tid));
  }

  for (const auto& in : instants_)
    events.push_back(
        event('i', in.name, in.ts_s, kHostPid, host_tid.at("events")));

  json::Object doc;
  doc.emplace("traceEvents", std::move(events));
  doc.emplace("displayTimeUnit", "ms");
  json::Object other;
  other.emplace("tool", "acsr-prof");
  other.emplace("clock", "simulated (us = 1e6 * model seconds)");
  doc.emplace("otherData", std::move(other));
  return json::Value(std::move(doc));
}

bool Profiler::write_trace(const std::string& path) const {
  std::ofstream f(path);
  if (!f.good()) return false;
  f << json::dump(chrome_trace(), 1) << '\n';
  f.close();
  return f.good();
}

}  // namespace acsr::prof
