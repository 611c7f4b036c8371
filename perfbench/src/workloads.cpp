// The benchmark workloads. Each run:
//   1. sets up kSetupReps times (matrix generation, operand, engine build,
//      warm-up) and reports the median as setup_s;
//   2. measures whole rounds until opt.seconds have passed. A round is a
//      fixed, seeded sequence of ops, so every round repeats the same
//      simulated work: simulated metrics and per-layer counts come from
//      round 0 and every later round must reproduce round 0's simulated
//      times exactly (the determinism part of the correctness gate);
//   3. checks every output against a host reference.
// With --trace 1 the rounds alternate traced/untraced: spans come from the
// traced rounds, and the difference in op wall time between the two kinds
// is the tracing overhead.
//
// Wall time counts only time spent inside calls into the program (engine
// builds, submit/step, solves, streamed SpMVs). Input generation and
// output checking run between those calls and are excluded. End-to-end
// wall metrics are reported at the nominal host speed: the run is cut
// into windows of program time, a SpeedProbe before and after each
// window measures how slow the shared host was, and the window's times
// are divided by that slowness (bench.hpp). The raw numbers are printed
// alongside.
#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <sstream>

#include "apps/dynamic_pagerank.hpp"
#include "apps/pagerank.hpp"
#include "core/factory.hpp"
#include "core/memo_engine.hpp"
#include "core/ooc_engine.hpp"
#include "core/resilient.hpp"
#include "graph/corpus.hpp"
#include "prof/metrics.hpp"
#include "serve/scheduler.hpp"
#include "vgpu/fault.hpp"
#include "vgpu/memo.hpp"

namespace perfbench {
namespace {

using acsr::mat::Csr;
using acsr::vgpu::Device;
using acsr::vgpu::DeviceSpec;
using Engine = acsr::spmv::SpmvEngine<double>;
using Resilient = acsr::core::ResilientEngine<double>;

constexpr int kSetupReps = 7;
// Throughput is the median over windows of this much program time, so a
// few seconds of interference from other processes on the host move the
// reported rate less than a whole-run mean would.
constexpr std::int64_t kWindowNs = 1'000'000'000;
constexpr std::int64_t kMinWindowNs = kWindowNs / 2;  ///< shortest rated window

DeviceSpec device_spec(long long scale) {
  return DeviceSpec::by_name("titan").scaled_for_corpus(scale);
}

double ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// The SpMM contract the program's own tests pin (column-blocked kernels
/// reduce in a different order than the host CSR loop): every element
/// within 1e-9 of the reference, relative once it exceeds 1.
bool near_equal(const std::vector<double>& y, const std::vector<double>& ref) {
  if (y.size() != ref.size()) return false;
  for (std::size_t i = 0; i < y.size(); ++i)
    if (!(std::abs(y[i] - ref[i]) <= 1e-9 * std::max(1.0, std::abs(ref[i]))))
      return false;
  return true;
}

std::vector<double> random_vector(std::size_t n, SplitMix& rng) {
  std::vector<double> x(n);
  for (double& v : x) v = rng.unit();
  return x;
}

std::uint64_t digest_matrix(const Csr<double>& a, std::uint64_t h) {
  h = fnv1a_vec(a.row_off, h);
  h = fnv1a_vec(a.col_idx, h);
  return fnv1a_vec(a.vals, h);
}

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(6);
  os << v;
  return os.str();
}

// --- per-round records --------------------------------------------------------

struct Round {
  bool traced = false;
  std::uint64_t ops = 0;
  std::vector<double> op_wall_ms;   ///< per-op wall latency
  std::vector<double> op_sim_s;     ///< per-op simulated time, in op order
  double charged_sim_s = 0.0;       ///< simulated seconds charged to ops
  EngineStats eng;                  ///< the timing wrapper's totals
  std::map<std::string, double> n;  ///< workload counters, round totals
  std::vector<double> sim_wait_s;   ///< serve: per-request queue wait
  std::size_t span_begin = 0, span_end = 0;
};

/// Shared state of one run: setup timings, rounds, spans, verdict.
struct Run {
  const Options& opt;
  double tail_q;  ///< fixed per workload, see README.md
  Spans spans;
  std::vector<double> setup_s, raw_setup_s, graph_ms, operand_ms, build_ms;
  std::vector<Round> rounds;
  Outcome out;
  // Untraced program time, cut into windows rated at nominal host speed.
  SpeedProbe probe;
  double slow_before = 1.0;  ///< host slowness at the current window's start
  std::vector<double> ops_rate, nnz_rate;  ///< per window, nominal speed
  std::vector<double> lat_ms, raw_lat_ms;  ///< op latencies, nominal / raw
  std::vector<double> slowness;            ///< per window
  std::int64_t win_ns = 0, raw_ns = 0;
  double win_ops = 0.0, win_nnz = 0.0, raw_ops = 0.0;
  std::vector<double> win_lat;
  // What round 0 contributed: it allocates lazily built state (the serve
  // engine's per-width batch scratch, first-touch pages), so its wall
  // times are dropped when later rounds measured anything.
  std::size_t warm_windows = 0, warm_lat = 0;
  std::int64_t warm_raw_ns = 0;
  double warm_raw_ops = 0.0;

  /// `min_samples`: the fewest wall samples a run of the benchmark's
  /// run_seconds collects; the tail is the highest percentile that keeps
  /// 10 of them beyond it.
  Run(const Options& o, std::size_t min_samples)
      : opt(o), tail_q(tail_quantile(min_samples)) {}

  void fail(const std::string& why) {
    out.failed += 1;
    if (out.correct) out.notes.push_back("FAILED: " + why);
    out.correct = false;
  }

  /// Account one stretch of program time in which `ops` ops completed
  /// and `nnz` nonzeros were multiplied. Untraced stretches also fill the
  /// throughput windows.
  void account(Round& r, std::int64_t ns, std::uint64_t ops, double nnz) {
    r.ops += ops;
    if (r.traced) return;
    win_ns += ns;
    win_ops += static_cast<double>(ops);
    win_nnz += nnz;
    if (win_ns >= kWindowNs) close_window();
  }
  /// Record one op's wall latency (program time, ms).
  void latency(Round& r, double ms) {
    r.op_wall_ms.push_back(ms);
    if (!r.traced) win_lat.push_back(ms);
  }
  void close_window() {
    if (win_ns == 0 && win_lat.empty()) return;
    const double slow_after = probe.slowness();
    const double slow = std::sqrt(slow_before * slow_after);
    slow_before = slow_after;
    const double s = static_cast<double>(win_ns) * 1e-9 / slow;
    if (win_ns >= kMinWindowNs || ops_rate.empty()) {
      ops_rate.push_back(win_ops / s);
      nnz_rate.push_back(win_nnz / s);
      slowness.push_back(slow);
    }
    for (double l : win_lat) {
      lat_ms.push_back(l / slow);
      raw_lat_ms.push_back(l);
    }
    raw_ns += win_ns;
    raw_ops += win_ops;
    win_lat.clear();
    win_ns = 0;
    win_ops = win_nnz = 0.0;
  }

  /// Set up kSetupReps times; `once` returns {graph_ms, operand_ms,
  /// build_ms} and leaves the built state in place for the last rep.
  /// A probe runs between reps; each rep is rated at nominal host speed.
  void setup(const std::function<std::array<double, 3>()>& once) {
    slow_before = probe.slowness();
    for (int rep = 0; rep < kSetupReps; ++rep) {
      spans.enabled = opt.trace;
      const std::int64_t t0 = now_ns();
      std::array<double, 3> parts{};
      {
        ScopedSpan s(spans, "setup");
        parts = once();
      }
      const std::int64_t dt = now_ns() - t0;
      spans.enabled = false;
      const double slow_after = probe.slowness();
      const double slow = std::sqrt(slow_before * slow_after);
      slow_before = slow_after;
      setup_s.push_back(static_cast<double>(dt) * 1e-9 / slow);
      raw_setup_s.push_back(static_cast<double>(dt) * 1e-9);
      graph_ms.push_back(parts[0]);
      operand_ms.push_back(parts[1]);
      build_ms.push_back(parts[2]);
    }
  }

  /// Measure rounds until opt.seconds have passed (at least one round, and
  /// one traced plus one untraced round under --trace 1).
  void measure(const std::function<void(Round&)>& round) {
    const auto budget = static_cast<std::int64_t>(opt.seconds * 1e9);
    const std::int64_t t0 = now_ns();
    const std::size_t min_rounds = opt.trace ? 2 : 1;
    for (std::size_t i = 0;
         i < min_rounds || now_ns() - t0 < budget; ++i) {
      Round r;
      r.traced = opt.trace && i % 2 == 0;
      spans.enabled = r.traced;
      r.span_begin = spans.spans().size();
      round(r);
      r.span_end = spans.spans().size();
      spans.enabled = false;
      if (!rounds.empty() && r.op_sim_s != rounds.front().op_sim_s)
        fail("round " + std::to_string(i) +
             " did not reproduce round 0's simulated times");
      rounds.push_back(std::move(r));
      if (i == 0) {
        close_window();
        warm_windows = ops_rate.size();
        warm_lat = lat_ms.size();
        warm_raw_ns = raw_ns;
        warm_raw_ops = raw_ops;
      }
    }
    close_window();
    if (ops_rate.size() > warm_windows && lat_ms.size() > warm_lat) {
      const auto w = static_cast<std::ptrdiff_t>(warm_windows);
      const auto l = static_cast<std::ptrdiff_t>(warm_lat);
      ops_rate.erase(ops_rate.begin(), ops_rate.begin() + w);
      nnz_rate.erase(nnz_rate.begin(), nnz_rate.begin() + w);
      slowness.erase(slowness.begin(), slowness.begin() + w);
      lat_ms.erase(lat_ms.begin(), lat_ms.begin() + l);
      raw_lat_ms.erase(raw_lat_ms.begin(), raw_lat_ms.begin() + l);
      raw_ns -= warm_raw_ns;
      raw_ops -= warm_raw_ops;
    }
  }
};

/// The plane counters a round diffs: the memo cache's stats and, when the
/// workload runs one, the resilient engine's recovery counts.
std::map<std::string, double> plane_counts(const Resilient* e) {
  const acsr::vgpu::memo::MemoStats& m =
      acsr::vgpu::memo::MemoCache::instance().stats();
  std::map<std::string, double> c = {
      {"memo.hits", static_cast<double>(m.hits)},
      {"memo.misses", static_cast<double>(m.misses)},
      {"memo.bypasses", static_cast<double>(m.bypasses)}};
  if (e != nullptr) {
    c["resilient.retries"] = e->retries();
    c["resilient.scrubs"] = e->scrubs();
    c["resilient.fallbacks"] = e->fallbacks();
    c["resilient.failovers"] = e->failovers();
  }
  return c;
}

/// Add the change in plane_counts(e) since `before` to the round's counts.
void count_planes(Round& r, const std::map<std::string, double>& before,
                  const Resilient* e) {
  for (const auto& [name, now] : plane_counts(e))
    r.n[name] += now - before.at(name);
}

// --- metric assembly ------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
  bool deterministic;
};

// Every per-layer metric, in report order; a workload leaves the ones of
// layers it does not exercise at 0.
constexpr MetricDef kLayerMetrics[] = {
    {"graph.build_ms", "ms", false},
    {"mat.operand_ms", "ms", false},
    {"engine.build_ms", "ms", false},
    {"engine.sim_preprocess_ms", "ms", true},
    {"engine.sim_h2d_ms", "ms", true},
    {"serve.submit_us", "us", false},
    {"serve.step_self_ms", "ms", false},
    {"serve.batches", "count/op", true},
    {"serve.width_avg", "vec/batch", true},
    {"serve.shed", "count/op", true},
    {"serve.sim_wait_p50_ms", "ms", true},
    {"serve.sim_wait_tail_ms", "ms", true},
    {"serve.deadline_miss_ratio", "ratio", true},
    {"resilient.retries", "count/op", true},
    {"resilient.scrubs", "count/op", true},
    {"resilient.fallbacks", "count/op", true},
    {"resilient.failovers", "count/op", true},
    {"engine.calls", "count/op", true},
    {"engine.wall_ms", "ms/call", false},
    {"engine.wall_ns_per_nnz", "ns", false},
    {"engine.sim_us_per_vec", "us", true},
    {"vgpu.warps", "count/op", true},
    {"vgpu.issue_cycles", "count/op", true},
    {"vgpu.gmem_transactions", "count/op", true},
    {"vgpu.tex_transactions", "count/op", true},
    {"vgpu.child_launches", "count/op", true},
    {"vgpu.bytes_computed", "B/op", true},
    {"vgpu.dram_bytes", "B/op", true},
    {"vgpu.wall_ns_per_transaction", "ns", false},
    {"memo.hits", "count/op", true},
    {"memo.misses", "count/op", true},
    {"memo.hit_ratio", "ratio", true},
    {"memo.bypasses", "count/op", true},
    {"memo.capture_ms", "ms/call", false},
    {"memo.replay_ms", "ms/call", false},
    {"apps.iterations", "count/op", true},
    {"apps.host_self_ms", "ms/op", false},
    {"ooc.slabs", "count", true},
    {"ooc.wall_ms", "ms/op", false},
    {"ooc.sim_makespan_ms", "ms/op", true},
    {"io.reads", "count/op", true},
    {"io.read_amplification", "ratio", true},
    {"io.overlap_efficiency", "ratio", true},
    {"io.retries", "count/op", true},
    {"io.stall_ms", "ms/op", true},
    {"io.penalty_ms", "ms/op", true},
    {"faults.injected", "count/op", true},
    {"trace.unattributed_ms", "ms/op", false},
    {"trace.overhead_pct", "%", false},
};

/// Turn the rounds into the end-to-end and per-layer metrics. `layer`
/// holds the workload's own per-layer values; the shared ones (engine,
/// vgpu, memo wall, spans) are derived here.
void finish(Run& run, std::map<std::string, double> layer) {
  Outcome& out = run.out;
  const Round& r0 = run.rounds.front();

  // End to end: wall from the untraced rounds' windows, simulated from
  // round 0.
  std::vector<double> sim_ms;
  for (double s : r0.op_sim_s) sim_ms.push_back(s * 1e3);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double q = run.tail_q;
  out.end_to_end = {
      {"setup_s", median(run.setup_s), "s", false},
      {"ops_per_s", median(run.ops_rate), "op/s", false},
      {"nnz_per_s", median(run.nnz_rate), "nnz/s", false},
      {"op_p50_ms", median(run.lat_ms), "ms", false},
      {"op_tail_ms", percentile(run.lat_ms, q), "ms", false},
      {"sim_op_p50_ms", median(sim_ms), "ms", true},
      {"sim_op_tail_ms", percentile(sim_ms, q), "ms", true},
      {"sim_gflops",
       ratio(2.0 * r0.eng.nnz_vectors, r0.charged_sim_s) * 1e-9, "GFLOP/s",
       true},
      {"rss_peak_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB",
       false},
  };
  const auto pct = [](double x) { return fmt(x * 100.0); };
  out.notes.push_back(
      "error_rate " +
      fmt(ratio(static_cast<double>(out.failed),
                static_cast<double>(out.attempted))) +
      " ratio (" + std::to_string(out.failed) + " failed of " +
      std::to_string(out.attempted) + " attempted)");
  const std::size_t n_lat = run.lat_ms.size();
  out.notes.push_back("tail percentile p" + pct(q) + ": " +
                      std::to_string(n_lat) + " wall samples (" +
                      std::to_string(samples_beyond(n_lat, q)) +
                      " beyond), " + std::to_string(sim_ms.size()) +
                      " simulated samples per round, " +
                      std::to_string(run.rounds.size()) + " rounds");
  const double raw_s = static_cast<double>(run.raw_ns) * 1e-9;
  out.notes.push_back(
      "host slowness over " + std::to_string(run.slowness.size()) +
      " windows: min " + fmt(percentile(run.slowness, 0.0)) + ", median " +
      fmt(median(run.slowness)) + ", max " +
      fmt(percentile(run.slowness, 1.0)));
  out.notes.push_back("raw wall: setup_s " + fmt(median(run.raw_setup_s)) +
                      ", ops_per_s " + fmt(ratio(run.raw_ops, raw_s)) +
                      " (" + fmt(run.raw_ops) + " ops in " + fmt(raw_s) +
                      " s), op_p50_ms " + fmt(median(run.raw_lat_ms)) +
                      ", op_tail_ms " + fmt(percentile(run.raw_lat_ms, q)));
  if (samples_beyond(n_lat, q) < 10)
    out.notes.push_back("WARNING: fewer than 10 wall samples beyond p" +
                        pct(q) + "; raise --seconds");

  // Per layer: counts from round 0, normalised per op.
  const double n0 = static_cast<double>(std::max<std::uint64_t>(1, r0.ops));
  const EngineStats& e0 = r0.eng;
  const acsr::vgpu::Counters& c = e0.counters;
  layer["graph.build_ms"] = median(run.graph_ms);
  layer["mat.operand_ms"] = median(run.operand_ms);
  if (!layer.count("engine.build_ms"))
    layer["engine.build_ms"] = median(run.build_ms);
  layer["engine.calls"] = static_cast<double>(e0.calls) / n0;
  layer["engine.sim_us_per_vec"] =
      ratio(e0.sim_s, static_cast<double>(e0.vectors)) * 1e6;
  layer["vgpu.warps"] = static_cast<double>(c.warps) / n0;
  layer["vgpu.issue_cycles"] = static_cast<double>(c.issue_cycles) / n0;
  layer["vgpu.gmem_transactions"] =
      static_cast<double>(c.gmem_transactions) / n0;
  layer["vgpu.tex_transactions"] =
      static_cast<double>(c.tex_transactions) / n0;
  layer["vgpu.child_launches"] = static_cast<double>(c.child_launches) / n0;
  layer["vgpu.bytes_computed"] =
      static_cast<double>(c.gmem_bytes + c.tex_bytes) / n0;
  layer["vgpu.dram_bytes"] = e0.dram_bytes / n0;
  for (const char* k : {"memo.hits", "memo.misses", "memo.bypasses",
                        "resilient.retries", "resilient.scrubs",
                        "resilient.fallbacks", "resilient.failovers"})
    layer[k] = r0.n.count(k) ? r0.n.at(k) / n0 : 0.0;
  layer["memo.hit_ratio"] =
      ratio(layer["memo.hits"], layer["memo.hits"] + layer["memo.misses"]);

  // Per layer, wall: from the traced rounds (all rounds without --trace).
  EngineStats et;
  std::uint64_t traced_ops = 0;
  std::int64_t traced_wall = 0;
  for (const Round& r : run.rounds) {
    if (run.opt.trace && !r.traced) continue;
    traced_ops += r.ops;
    traced_wall += r.eng.wall_ns;
    et.calls += r.eng.calls;
    et.nnz_vectors += r.eng.nnz_vectors;
    et.counters += r.eng.counters;
    et.capture_calls += r.eng.capture_calls;
    et.capture_ns += r.eng.capture_ns;
    et.replay_calls += r.eng.replay_calls;
    et.replay_ns += r.eng.replay_ns;
  }
  const double ecalls = static_cast<double>(et.calls);
  layer["engine.wall_ms"] = ratio(ms(traced_wall), ecalls);
  layer["engine.wall_ns_per_nnz"] =
      ratio(static_cast<double>(traced_wall), et.nnz_vectors);
  layer["vgpu.wall_ns_per_transaction"] =
      ratio(static_cast<double>(traced_wall),
            static_cast<double>(et.counters.gmem_transactions +
                                et.counters.tex_transactions));
  layer["memo.capture_ms"] =
      ratio(ms(et.capture_ns), static_cast<double>(et.capture_calls));
  layer["memo.replay_ms"] =
      ratio(ms(et.replay_ns), static_cast<double>(et.replay_calls));

  // Spans: self time per span name over the traced rounds.
  if (run.opt.trace) {
    const std::vector<Span>& all = run.spans.spans();
    const std::vector<std::int64_t> self = self_times(all);
    struct Agg {
      std::uint64_t count = 0;
      std::int64_t dur = 0, self = 0;
      bool root = false;
    };
    std::map<std::string, Agg> by_name;
    for (const Round& r : run.rounds) {
      for (std::size_t i = r.span_begin; i < r.span_end; ++i) {
        Agg& a = by_name[all[i].name];
        a.count += 1;
        a.dur += all[i].end_ns - all[i].start_ns;
        a.self += self[i];
        a.root = all[i].parent < 0;
      }
    }
    const double tops = static_cast<double>(std::max<std::uint64_t>(1, traced_ops));
    std::int64_t unattributed = 0;
    for (const auto& [name, a] : by_name) {
      if (a.root) unattributed += a.self;
      out.notes.push_back("span " + name + ": " + std::to_string(a.count) +
                          " spans, " + fmt(ms(a.dur) / tops) +
                          " ms/op total, " + fmt(ms(a.self) / tops) +
                          " ms/op self" + (a.root ? " (root)" : ""));
    }
    const auto self_of = [&](const char* name) {
      return by_name.count(name) ? by_name.at(name) : Agg{};
    };
    if (self_of("serve.submit").count > 0)
      layer["serve.submit_us"] =
          ms(self_of("serve.submit").dur) * 1e3 /
          static_cast<double>(self_of("serve.submit").count);
    if (self_of("serve.step").count > 0)
      layer["serve.step_self_ms"] =
          ms(self_of("serve.step").self) /
          static_cast<double>(self_of("serve.step").count);
    if (self_of("apps.pagerank").count > 0)
      layer["apps.host_self_ms"] = ms(self_of("apps.pagerank").self) / tops;
    if (self_of("stream.op").count > 0)
      layer["ooc.wall_ms"] = ms(traced_wall) / tops;
    layer["trace.unattributed_ms"] = ms(unattributed) / tops;
    std::vector<double> traced_ms;
    for (const Round& r : run.rounds)
      if (r.traced)
        traced_ms.insert(traced_ms.end(), r.op_wall_ms.begin(),
                         r.op_wall_ms.end());
    const double traced_p50 = median(traced_ms);
    const double untraced_p50 = median(run.raw_lat_ms);
    layer["trace.overhead_pct"] =
        ratio(traced_p50 - untraced_p50, untraced_p50) * 100.0;
    out.notes.push_back("op wall p50: traced " + fmt(traced_p50) +
                        " ms, untraced " + fmt(untraced_p50) + " ms");
    out.spans = all;
  }

  for (const MetricDef& d : kLayerMetrics)
    out.per_layer.push_back({d.name, layer.count(d.name) ? layer[d.name] : 0.0,
                             d.unit, d.deterministic});
}

// --- serve ----------------------------------------------------------------------

// Three tenants as in apps::run_tenant_scenario: alpha latency-sensitive,
// beta mid priority, gamma bulk backfill without a deadline. Deadlines
// are relative to admission on the scheduler's simulated clock.
struct TenantSpec {
  const char* name;
  int priority;
  double deadline_s;
  double share;  ///< fraction of arrivals
};
constexpr TenantSpec kTenants[] = {
    {"alpha", 2, 0.04e-3, 0.25},
    {"beta", 1, 0.08e-3, 0.25},
    {"gamma", 0, std::numeric_limits<double>::infinity(), 0.5},
};

struct Arrival {
  int tenant = 0;
  int x = 0;  ///< index into the request-vector pool
};

constexpr long long kServeScale = 256;
constexpr int kServeSteps = 56;     ///< arrival steps per round
constexpr int kServeWidth = 32;     ///< max_batch_width
constexpr std::size_t kServeQueue = 256;
constexpr int kServePool = 16;
// The engines keep batch scratch per width and never free it; for all 32
// widths on WIK that outgrows the scaled Titan's memory, and
// ResilientEngine would degrade the engine mid-run. The serve device gets 4x the
// scaled capacity so every width fits and the SpMM path stays measured.
constexpr std::size_t kServeMemoryFactor = 4;
// Arrivals per step cycle through this burst pattern (mean 19.75, below
// the batch width; variance ~257, above it) plus seeded jitter of ±2.
constexpr int kServePattern[] = {6, 14, 22, 30, 2, 10, 18, 56};

/// The seeded open-loop arrival schedule: arrivals before each step,
/// independent of completions. Bursts are trimmed so the predicted
/// backlog (each step serves min(pending, width)) never exceeds the queue
/// bound, so no request is shed.
std::vector<std::vector<Arrival>> serve_arrivals(SplitMix& rng) {
  std::vector<std::vector<Arrival>> steps(kServeSteps);
  std::size_t pending = 0;
  for (int s = 0; s < kServeSteps; ++s) {
    const int base = kServePattern[s % std::size(kServePattern)];
    int a = std::max(0, base + static_cast<int>(rng.below(5)) - 2);
    a = std::min<int>(a, static_cast<int>(kServeQueue - pending));
    for (int i = 0; i < a; ++i) {
      const double u = rng.unit();
      int t = 0;
      double acc = kTenants[0].share;
      while (u >= acc && t + 1 < static_cast<int>(std::size(kTenants)))
        acc += kTenants[++t].share;
      steps[static_cast<std::size_t>(s)].push_back(
          {t, static_cast<int>(rng.below(kServePool))});
    }
    pending += static_cast<std::size_t>(a);
    pending -= std::min<std::size_t>(pending, kServeWidth);
  }
  return steps;
}

Outcome run_serve(const Options& opt) {
  Run run(opt, 1000);
  const auto& entry = acsr::graph::corpus_entry("WIK");
  acsr::vgpu::memo::set_memo_enabled(false);

  Csr<double> a;
  std::unique_ptr<Device> dev;
  std::unique_ptr<Resilient> eng;
  run.setup([&] {
    eng.reset();
    dev.reset();
    std::int64_t t = now_ns();
    {
      ScopedSpan s(run.spans, "graph.build_matrix");
      a = acsr::graph::build_matrix(entry, kServeScale, opt.seed);
    }
    const double g = ms(now_ns() - t);
    t = now_ns();
    {
      ScopedSpan s(run.spans, "engine.build");
      dev = std::make_unique<Device>(device_spec(kServeScale));
      dev->set_memory_capacity(dev->spec().global_mem_bytes *
                               kServeMemoryFactor);
      eng = std::make_unique<Resilient>(std::vector<Device*>{dev.get()}, a,
                                        "acsr");
    }
    const double b = ms(now_ns() - t);
    ScopedSpan s(run.spans, "warmup");
    std::vector<double> x(static_cast<std::size_t>(a.cols), 1.0), y;
    eng->simulate(x, y);
    return std::array<double, 3>{g, 0.0, b};
  });

  // Inputs: the request-vector pool and the arrival schedule.
  SplitMix rng(opt.seed * 0x9e3779b97f4a7c15ULL + 0x5e7e);
  std::vector<std::vector<double>> pool, ref(kServePool);
  for (int i = 0; i < kServePool; ++i)
    pool.push_back(random_vector(static_cast<std::size_t>(a.cols), rng));
  for (int i = 0; i < kServePool; ++i)
    eng->apply(pool[static_cast<std::size_t>(i)],
               ref[static_cast<std::size_t>(i)]);
  const auto arrivals = serve_arrivals(rng);
  std::uint64_t h = digest_matrix(a, fnv1a(&opt.seed, 0));
  for (const auto& x : pool) h = fnv1a_vec(x, h);
  for (const auto& step : arrivals) h = fnv1a_vec(step, h);
  run.out.inputs_digest = h;

  struct Pending {
    std::uint64_t id;
    int priority;
    double deadline_s;
    int x;
    std::int64_t submit_ns;  ///< program clock at submit()
    double admit_s;          ///< simulated admission time
  };
  // The scheduler's pinned pop order: priority, then deadline, then id.
  const auto better = [](const Pending& p, const Pending& q) {
    if (p.priority != q.priority) return p.priority > q.priority;
    if (p.deadline_s != q.deadline_s) return p.deadline_s < q.deadline_s;
    return p.id < q.id;
  };

  const double sim_pre = eng->report().preprocess_s;
  const double sim_h2d = eng->report().h2d_s;
  run.measure([&](Round& r) {
    TimedEngine te(*eng, run.spans);
    acsr::serve::ServeOptions so;
    so.max_batch_width = kServeWidth;
    so.queue_capacity = kServeQueue;
    so.observe_slo = true;
    acsr::serve::BatchScheduler<double> sched(te, so);
    const auto planes0 = plane_counts(eng.get());

    std::vector<Pending> queue;
    std::int64_t clock_ns = 0;  // program time: Σ wall inside submit/step
    double misses = 0, with_deadline = 0;
    for (std::size_t s = 0; s < arrivals.size() || !queue.empty(); ++s) {
      int width = 0;
      const double launch_s = sched.clock_s();
      {
        ScopedSpan tick(run.spans, "serve.tick");
        if (s < arrivals.size()) {
          for (const Arrival& av : arrivals[s]) {
            const TenantSpec& t = kTenants[av.tenant];
            const double admit_s = sched.clock_s();
            const double deadline = admit_s + t.deadline_s;
            run.out.attempted += 1;
            const std::int64_t t0 = now_ns();
            try {
              ScopedSpan sp(run.spans, "serve.submit");
              const std::uint64_t id = sched.submit(
                  std::vector<double>(pool[static_cast<std::size_t>(av.x)]),
                  t.name, t.priority, deadline);
              queue.push_back({id, t.priority, deadline, av.x, clock_ns,
                               admit_s});
            } catch (const acsr::serve::OverloadError&) {
              r.n["serve.shed"] += 1;
              run.fail("request shed by admission control");
            }
            const std::int64_t dt = now_ns() - t0;
            clock_ns += dt;
            run.account(r, dt, 0, 0.0);
          }
        }
        const double nnz0 = te.stats().nnz_vectors;
        const std::int64_t t0 = now_ns();
        {
          ScopedSpan sp(run.spans, "serve.step");
          width = sched.step();
        }
        const std::int64_t dt = now_ns() - t0;
        clock_ns += dt;
        run.account(r, dt, static_cast<std::uint64_t>(width),
                    te.stats().nnz_vectors - nnz0);
      }
      const double end_s = sched.clock_s();
      for (int c = 0; c < width; ++c) {
        const auto best = std::min_element(queue.begin(), queue.end(), better);
        const Pending p = *best;
        queue.erase(best);
        if (!near_equal(sched.take_result(p.id),
                        ref[static_cast<std::size_t>(p.x)]))
          run.fail("served result differs from engine.apply()");
        run.latency(r, ms(clock_ns - p.submit_ns));
        r.op_sim_s.push_back(end_s - p.admit_s);
        r.sim_wait_s.push_back(launch_s - p.admit_s);
        if (p.deadline_s != std::numeric_limits<double>::infinity()) {
          with_deadline += 1;
          if (end_s > p.deadline_s) misses += 1;
        }
      }
    }
    r.charged_sim_s = sched.clock_s();
    r.eng = te.stats();
    r.n["serve.batches"] = static_cast<double>(sched.batches());
    r.n["serve.deadline_miss_ratio"] = ratio(misses, with_deadline);
    count_planes(r, planes0, eng.get());
    r.n["slo.p50_ms"] = sched.slo().snapshot("*").latency_p50_s * 1e3;
  });

  const Round& r0 = run.rounds.front();
  const double n0 = static_cast<double>(r0.ops);
  std::map<std::string, double> layer;
  layer["engine.sim_preprocess_ms"] = sim_pre * 1e3;
  layer["engine.sim_h2d_ms"] = sim_h2d * 1e3;
  layer["serve.batches"] = r0.n.at("serve.batches") / n0;
  layer["serve.width_avg"] = ratio(n0, r0.n.at("serve.batches"));
  layer["serve.shed"] =
      (r0.n.count("serve.shed") ? r0.n.at("serve.shed") : 0.0) / n0;
  std::vector<double> wait_ms;
  for (double w : r0.sim_wait_s) wait_ms.push_back(w * 1e3);
  layer["serve.sim_wait_p50_ms"] = median(wait_ms);
  layer["serve.sim_wait_tail_ms"] = percentile(wait_ms, run.tail_q);
  layer["serve.deadline_miss_ratio"] = r0.n.at("serve.deadline_miss_ratio");
  std::vector<double> sim_ms;
  for (double t : r0.op_sim_s) sim_ms.push_back(t * 1e3);
  run.out.notes.push_back("SloMonitor latency p50 (histogram) " +
                          fmt(r0.n.at("slo.p50_ms")) + " ms; exact " +
                          fmt(median(sim_ms)) + " ms");
  finish(run, layer);
  return run.out;
}

// --- solve ----------------------------------------------------------------------

constexpr long long kSolveScale = 64;

Outcome run_solve(const Options& opt) {
  Run run(opt, 100);
  const auto& entry = acsr::graph::corpus_entry("WIK");
  acsr::vgpu::memo::set_memo_enabled(true);

  Csr<double> operand;
  acsr::apps::PageRankConfig cfg;
  cfg.iter.epsilon = 1e-6;
  cfg.iter.device_loop = true;
  run.setup([&] {
    std::int64_t t = now_ns();
    Csr<double> adj;
    {
      ScopedSpan s(run.spans, "graph.build_matrix");
      adj = acsr::graph::build_matrix(entry, kSolveScale, opt.seed);
    }
    const double g = ms(now_ns() - t);
    t = now_ns();
    {
      ScopedSpan s(run.spans, "mat.operand");
      operand = acsr::apps::pagerank_matrix(adj);
    }
    const double o = ms(now_ns() - t);
    t = now_ns();
    Device dev(device_spec(kSolveScale));
    std::unique_ptr<Engine> e;
    {
      ScopedSpan s(run.spans, "engine.build");
      e = acsr::core::make_engine<double>("acsr", dev, operand);
    }
    const double b = ms(now_ns() - t);
    ScopedSpan s(run.spans, "warmup");
    std::vector<double> x(static_cast<std::size_t>(operand.cols), 1.0), y;
    e->simulate(x, y);
    return std::array<double, 3>{g, o, b};
  });

  const auto [ref_iters, ref_scores] =
      acsr::apps::pagerank_functional<double>(operand, cfg, nullptr);
  run.out.inputs_digest = digest_matrix(operand, fnv1a(&opt.seed, 0));

  double sim_pre = 0.0, sim_h2d = 0.0;
  std::vector<double> build_ms;
  run.measure([&](Round& r) {
    const auto planes0 = plane_counts(nullptr);
    run.out.attempted += 1;
    std::unique_ptr<Device> dev;
    std::unique_ptr<Engine> e;
    acsr::apps::AppResult<double> res;
    double sim_s = 0.0;
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan op(run.spans, "solve.op");
      const std::int64_t b0 = now_ns();
      {
        ScopedSpan s(run.spans, "engine.build");
        dev = std::make_unique<Device>(device_spec(kSolveScale));
        e = acsr::core::make_engine<double>("acsr", *dev, operand);
      }
      build_ms.push_back(ms(now_ns() - b0));
      TimedEngine te(*e, run.spans);
      {
        ScopedSpan s(run.spans, "apps.pagerank");
        res = acsr::apps::pagerank(te, cfg);
      }
      sim_pre = e->report().preprocess_s;
      sim_h2d = e->report().h2d_s;
      sim_s = sim_pre + sim_h2d + res.total_s;
      r.eng = te.stats();
      ScopedSpan s(run.spans, "engine.teardown");
      e.reset();
      dev.reset();
    }
    const std::int64_t dt = now_ns() - t0;
    run.account(r, dt, 1, r.eng.nnz_vectors);
    run.latency(r, ms(dt));
    r.op_sim_s.push_back(sim_s);
    r.charged_sim_s = sim_s;
    count_planes(r, planes0, nullptr);
    r.n["apps.iterations"] = res.iterations;
    double err = 0.0;
    for (std::size_t i = 0; i < ref_scores.size() && i < res.scores.size(); ++i)
      err = std::max(err, std::abs(res.scores[i] - ref_scores[i]));
    if (res.iterations != ref_iters || res.scores.size() != ref_scores.size() ||
        !(err <= 1e-9))
      run.fail("pagerank differs from pagerank_functional (iterations " +
               std::to_string(res.iterations) + " vs " +
               std::to_string(ref_iters) + ", max error " + fmt(err) + ")");
  });

  std::map<std::string, double> layer;
  layer["engine.build_ms"] = median(build_ms);
  layer["engine.sim_preprocess_ms"] = sim_pre * 1e3;
  layer["engine.sim_h2d_ms"] = sim_h2d * 1e3;
  layer["apps.iterations"] = run.rounds.front().n.at("apps.iterations");
  finish(run, layer);
  acsr::vgpu::memo::set_memo_enabled(false);
  return run.out;
}

// --- stream ---------------------------------------------------------------------

constexpr long long kStreamScale = 128;
constexpr int kStreamOps = 20;  ///< streamed SpMVs per round
// Budget = footprint * 4 / 15: slabs are capped at half the budget, so the
// matrix fills 7.5 slab caps and the greedy partition lands on 8 slabs with
// room to spare, whatever the seed (a budget whose cap divides the
// footprint exactly would flip between two slab counts across seeds).
constexpr std::size_t kStreamBudgetNum = 4, kStreamBudgetDen = 15;

/// The out-of-core engine under the resilient and memo decorators (the
/// reference is re-resolved per use: recovery rebuilds invalidate it).
acsr::core::OocCsrEngine<double>* ooc_of(Resilient& eng) {
  Engine* e = &eng.active_engine();
  if (auto* m = dynamic_cast<acsr::core::MemoEngine<double>*>(e))
    e = &m->inner();
  return dynamic_cast<acsr::core::OocCsrEngine<double>*>(e);
}

/// The seeded fault plan of one round, from the per-op read and launch
/// counts of a clean op: four io_transient faults and one io_checksum
/// fault on seeded distinct ops among the first kStreamOps - 2, then one
/// launch transient (ResilientEngine's retry ladder) on one of the
/// last two ops, so its re-issued reads cannot shift the read faults'
/// targets. Each read fault strikes its op's first slab read: the
/// recovery cost depends on which drive queue absorbs the backoff, and
/// slab 0 always starts the stripe at drive 0, so every faulted op costs
/// the same simulated time for a given matrix. Every fault is absorbed by
/// a retry.
std::string stream_fault_plan(SplitMix& rng, long long reads_per_op,
                              long long launches_per_op) {
  std::vector<int> ops;
  while (ops.size() < 5) {
    const int j = static_cast<int>(rng.below(kStreamOps - 2));
    if (std::find(ops.begin(), ops.end(), j) == ops.end()) ops.push_back(j);
  }
  const int checksum_op = ops.back();
  std::sort(ops.begin(), ops.end());
  std::ostringstream plan;
  long long extra = 0;  // each read fault adds one re-issued read
  for (const int op : ops) {
    const long long at = op * reads_per_op + 1 + extra++;
    if (op == checksum_op)
      plan << "io_checksum@read#" << at << ":seed=" << rng.below(1u << 30);
    else
      plan << "io_transient@read#" << at;
    plan << ';';
  }
  const long long op = kStreamOps - 2 + static_cast<long long>(rng.below(2));
  plan << "transient@launch#" << op * launches_per_op + 1;
  return plan.str();
}

Outcome run_stream(const Options& opt) {
  Run run(opt, 100);
  const auto& entry = acsr::graph::corpus_entry("LIV");
  // Memo is on, as in an iterative caller; the fault plane makes it
  // bypass every streamed SpMV.
  acsr::vgpu::memo::set_memo_enabled(true);
  auto& faults = acsr::vgpu::FaultInjector::instance();

  Csr<double> a;
  std::unique_ptr<Device> dev;
  std::unique_ptr<Resilient> eng;
  run.setup([&] {
    eng.reset();
    dev.reset();
    std::int64_t t = now_ns();
    {
      ScopedSpan s(run.spans, "graph.build_matrix");
      a = acsr::graph::build_matrix(entry, kStreamScale, opt.seed);
    }
    const double g = ms(now_ns() - t);
    t = now_ns();
    {
      ScopedSpan s(run.spans, "engine.build");
      const std::size_t footprint =
          (static_cast<std::size_t>(a.rows) + 1) *
              sizeof(acsr::mat::offset_t) +
          a.nnz() * (sizeof(acsr::mat::index_t) + sizeof(double));
      acsr::core::EngineConfig cfg;
      cfg.ooc.budget_bytes = footprint * kStreamBudgetNum / kStreamBudgetDen;
      dev = std::make_unique<Device>(device_spec(kStreamScale));
      eng = std::make_unique<Resilient>(std::vector<Device*>{dev.get()}, a,
                                        "ooc-csr", cfg);
    }
    const double b = ms(now_ns() - t);
    ScopedSpan s(run.spans, "warmup");
    std::vector<double> x(static_cast<std::size_t>(a.cols), 1.0), y;
    eng->simulate(x, y);
    return std::array<double, 3>{g, 0.0, b};
  });
  const double sim_pre = eng->report().preprocess_s;
  const double sim_h2d = eng->report().h2d_s;

  // Calibrate the fault plan on one clean op: a plan whose only clause is
  // never reached enables the injector's op counters without firing.
  faults.configure("io_degrade@read#1000000000");
  {
    std::vector<double> x(static_cast<std::size_t>(a.cols), 1.0), y;
    eng->simulate(x, y);
  }
  const long long reads_per_op = faults.read_ops();
  const long long launches_per_op = faults.launch_ops();
  faults.disable();

  SplitMix rng(opt.seed * 0x9e3779b97f4a7c15ULL + 0x57ea);
  std::vector<std::vector<double>> xs, ref(kStreamOps);
  for (int i = 0; i < kStreamOps; ++i)
    xs.push_back(random_vector(static_cast<std::size_t>(a.cols), rng));
  for (int i = 0; i < kStreamOps; ++i)
    eng->apply(xs[static_cast<std::size_t>(i)], ref[static_cast<std::size_t>(i)]);
  const std::string plan =
      stream_fault_plan(rng, reads_per_op, launches_per_op);
  std::uint64_t h = digest_matrix(a, fnv1a(&opt.seed, 0));
  for (const auto& x : xs) h = fnv1a_vec(x, h);
  run.out.inputs_digest = fnv1a(plan.data(), plan.size(), h);
  run.out.notes.push_back("fault plan: " + plan);

  acsr::prof::IoAgg io0;
  double makespan0 = 0.0;
  run.measure([&](Round& r) {
    faults.configure(plan);
    const auto planes0 = plane_counts(eng.get());
    TimedEngine te(*eng, run.spans);
    acsr::prof::IoAgg io;
    double makespan = 0.0;
    std::vector<double> y;
    for (int j = 0; j < kStreamOps; ++j) {
      run.out.attempted += 1;
      double sim_s = 0.0;
      const std::int64_t t0 = now_ns();
      try {
        ScopedSpan op(run.spans, "stream.op");
        sim_s = te.simulate(xs[static_cast<std::size_t>(j)], y);
      } catch (const acsr::vgpu::DeviceFault& e) {
        run.fail(std::string("typed error escaped the engine: ") + e.what());
      }
      const std::int64_t dt = now_ns() - t0;
      run.account(r, dt, 1, static_cast<double>(a.nnz()));
      run.latency(r, ms(dt));
      r.op_sim_s.push_back(sim_s);
      r.charged_sim_s += sim_s;
      if (!bitwise_equal(y, ref[static_cast<std::size_t>(j)]))
        run.fail("streamed SpMV differs from OocCsrEngine::apply()");
      if (const auto* ooc = ooc_of(*eng)) {
        const acsr::prof::IoAgg& s = ooc->io_stats();
        io.reads += s.reads;
        io.read_bytes += s.read_bytes;
        io.demand_bytes += s.demand_bytes;
        io.retries += s.retries;
        io.read_s += s.read_s;
        io.penalty_s += s.penalty_s;
        io.stall_s += s.stall_s;
        io.overlap_s += s.overlap_s;
        makespan += ooc->last_makespan();
      }
    }
    if (faults.events().size() != 6)
      run.fail("fault plan fired " + std::to_string(faults.events().size()) +
               " of 6 faults");
    r.n["faults.injected"] = static_cast<double>(faults.events().size());
    faults.disable();
    r.eng = te.stats();
    count_planes(r, planes0, eng.get());
    if (run.rounds.empty()) {
      io0 = io;
      makespan0 = makespan;
    }
  });

  const Round& r0 = run.rounds.front();
  const double n0 = static_cast<double>(r0.ops);
  std::string per_op = "simulated op times of a round (ms):";
  for (double t : r0.op_sim_s) per_op += " " + fmt(t * 1e3);
  run.out.notes.push_back(per_op);
  std::map<std::string, double> layer;
  layer["engine.sim_preprocess_ms"] = sim_pre * 1e3;
  layer["engine.sim_h2d_ms"] = sim_h2d * 1e3;
  const auto* ooc = ooc_of(*eng);
  layer["ooc.slabs"] = ooc ? static_cast<double>(ooc->num_slabs()) : 0.0;
  layer["ooc.sim_makespan_ms"] = makespan0 * 1e3 / n0;
  layer["io.reads"] = static_cast<double>(io0.reads) / n0;
  layer["io.read_amplification"] =
      acsr::prof::find_io_metric("io.read_amplification")->compute(io0);
  layer["io.overlap_efficiency"] =
      acsr::prof::find_io_metric("io.overlap_efficiency")->compute(io0);
  layer["io.retries"] = static_cast<double>(io0.retries) / n0;
  layer["io.stall_ms"] = io0.stall_s * 1e3 / n0;
  layer["io.penalty_ms"] = io0.penalty_s * 1e3 / n0;
  layer["faults.injected"] = r0.n.at("faults.injected") / n0;
  finish(run, layer);
  acsr::vgpu::memo::set_memo_enabled(false);
  return run.out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"serve", "solve", "stream"};
  return names;
}

Outcome run_workload(const Options& opt) {
  // Start from clean planes: no memo entries or stats, no fault plan.
  acsr::vgpu::memo::MemoCache::instance().clear();
  acsr::vgpu::memo::MemoCache::instance().reset_stats();
  acsr::vgpu::FaultInjector::instance().disable();
  if (opt.workload == "serve") return run_serve(opt);
  if (opt.workload == "solve") return run_solve(opt);
  if (opt.workload == "stream") return run_stream(opt);
  ACSR_REQUIRE(false, "unknown workload '" << opt.workload << "'");
}

}  // namespace perfbench
