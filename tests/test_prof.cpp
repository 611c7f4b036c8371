// acsr-prof subsystem tests (docs/OBSERVABILITY.md).
//
// Pins the four contracts the profiling layer makes:
//   1. Off by default, and *recording nothing* when off — the only cost is
//      the cached-bool/null-pointer gate (metering parity itself is pinned
//      by test_metering_invariance.cpp's profiled mode).
//   2. Every metric registry (Counters, TenantAgg, IoAgg, SloAgg) has one
//      passthrough metric per field, each reading the right field, and the
//      derived metric formulas hold on hand-built aggregates.
//   3. Lane tallies are executor-path invariant: the affine fast path and
//      the reference loop report bit-identical occupancy inputs.
//   4. The Chrome trace export is schema-valid: required keys on every
//      event, monotonic timestamps and balanced B/E pairs per track,
//      dynamic-parallelism children nested inside their parent's span.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "apps/pagerank.hpp"
#include "common/json.hpp"
#include "core/factory.hpp"
#include "graph/powerlaw.hpp"
#include "prof/capture.hpp"
#include "prof/metrics.hpp"
#include "prof/prof.hpp"
#include "prof/report.hpp"
#include "vgpu/device.hpp"

namespace {

using acsr::json::Value;
using acsr::mat::Csr;
using acsr::prof::KernelAgg;
using acsr::prof::LaneCounters;
using acsr::prof::LaunchSample;
using acsr::prof::Profiler;
using acsr::vgpu::Device;
using acsr::vgpu::DeviceSpec;

/// Every test restores the disabled state, whatever path it exits by.
class Prof : public ::testing::Test {
 protected:
  void SetUp() override {
    Profiler::instance().clear();
    acsr::prof::set_profiler_enabled(false);
  }
  void TearDown() override {
    acsr::prof::set_profiler_enabled(false);
    Profiler::instance().clear();
  }
};

Csr<double> test_matrix(acsr::mat::index_t n = 384, std::uint64_t seed = 11) {
  acsr::graph::PowerLawSpec s;
  s.rows = n;
  s.cols = n;
  s.mean_nnz_per_row = 6.0;
  s.alpha = 1.6;
  // Tail rows land above the 256-nnz bin_max cutoff, so ACSR routes them
  // through the dynamic-parallelism parent (the trace tests rely on this).
  s.max_row_nnz = 320;
  s.tail_rows = 2;
  s.seed = seed;
  return acsr::graph::powerlaw_matrix(s);
}

// --- contract 1: zero recording when off -----------------------------------

TEST_F(Prof, DisabledProfilerRecordsNothing) {
  ASSERT_FALSE(acsr::prof::profiler_enabled());
  Device dev(DeviceSpec::gtx_titan());
  const Csr<double> a = test_matrix();
  acsr::core::EngineConfig cfg;
  auto engine = acsr::core::make_engine<double>("acsr", dev, a, cfg);
  std::vector<double> x(static_cast<std::size_t>(a.cols), 1.0);
  std::vector<double> y;
  engine->simulate(x, y);
  // Apps' phase markers and scoped contexts are no-ops too.
  acsr::prof::phase_marker("app", "noop", 1.0);
  { acsr::prof::ScopedContext ctx("noop"); }
  { acsr::prof::ScopedSpan span("t", "noop"); }

  const Profiler& p = Profiler::instance();
  EXPECT_TRUE(p.launches().empty());
  EXPECT_TRUE(p.spans().empty());
  EXPECT_TRUE(p.instants().empty());
  EXPECT_EQ(p.clock_s(), 0.0);
}

TEST_F(Prof, EnabledProfilerCapturesLaunchesAndAdvancesClock) {
  acsr::prof::set_profiler_enabled(true);
  Device dev(DeviceSpec::gtx_titan());
  const Csr<double> a = test_matrix();
  const double sim_s = acsr::prof::capture_engine_spmv<double>(
      "csr-scalar", dev, a);
  const Profiler& p = Profiler::instance();
  ASSERT_FALSE(p.launches().empty());
  double launch_sum = 0.0;
  for (const LaunchSample& s : p.launches()) {
    EXPECT_EQ(s.context, "csr-scalar");
    EXPECT_FALSE(s.kernel.empty());
    EXPECT_GT(s.run.duration_s, 0.0);
    launch_sum += s.run.duration_s;
    // Lane tallies were fed: a gather-heavy kernel issues memory slots.
    EXPECT_GT(s.lanes.mem_lane_slots, 0u);
    EXPECT_LE(s.lanes.mem_active_lanes, s.lanes.mem_lane_slots);
    // Per-SM issue seconds never exceed the launch duration.
    for (double sm_s : s.sm_issue_s) {
      EXPECT_GE(sm_s, 0.0);
      EXPECT_LE(sm_s, s.run.duration_s * (1.0 + 1e-12));
    }
  }
  EXPECT_EQ(p.clock_s(), launch_sum);
  EXPECT_GT(sim_s, 0.0);
}

// --- contract 2: registry completeness and formulas ------------------------

// The frozen Counters layout: 17 u64 fields, compared bytewise elsewhere.
static_assert(sizeof(acsr::vgpu::Counters) == 17 * sizeof(std::uint64_t));
static_assert(std::has_unique_object_representations_v<acsr::vgpu::Counters>);

/// Per-registry view for the typed test: the passthrough prefix, and a
/// fill() that writes a distinct value into every field through the
/// aggregate's X-macro list and returns field -> value written.
template <class Agg>
struct Registry;

#define ACSR_FILL_FIELD(type, name, unit, what) \
  fields.name = static_cast<type>(++v);        \
  want[#name] = static_cast<double>(fields.name);
#define ACSR_REGISTRY(Agg, prefix, FIELDS, part)            \
  template <>                                              \
  struct Registry<Agg> {                                   \
    static constexpr const char* kPrefix = prefix;         \
    static std::map<std::string, double> fill(Agg& agg) {  \
      std::map<std::string, double> want;                  \
      double v = 1000.0;                                   \
      auto& fields = part;                                 \
      FIELDS(ACSR_FILL_FIELD)                              \
      return want;                                         \
    }                                                      \
  };
ACSR_REGISTRY(KernelAgg, "counters", ACSR_COUNTERS_FIELDS, agg.counters)
ACSR_REGISTRY(acsr::prof::TenantAgg, "tenant", ACSR_TENANT_AGG_FIELDS, agg)
ACSR_REGISTRY(acsr::prof::IoAgg, "io", ACSR_IO_AGG_FIELDS, agg)
ACSR_REGISTRY(acsr::prof::SloAgg, "slo", ACSR_SLO_AGG_FIELDS, agg)
#undef ACSR_REGISTRY
#undef ACSR_FILL_FIELD

template <class Agg>
class MetricRegistry : public ::testing::Test {};
using RegistryAggs = ::testing::Types<KernelAgg, acsr::prof::TenantAgg,
                                      acsr::prof::IoAgg, acsr::prof::SloAgg>;
TYPED_TEST_SUITE(MetricRegistry, RegistryAggs);

TYPED_TEST(MetricRegistry, EveryFieldHasAPassthroughReadingItsOwnField) {
  using Agg = TypeParam;
  Agg agg{};
  const std::map<std::string, double> want = Registry<Agg>::fill(agg);
  ASSERT_FALSE(want.empty());
  for (const auto& [field, value] : want) {
    const std::string name = std::string(Registry<Agg>::kPrefix) + "." + field;
    const acsr::prof::Metric<Agg>* m = acsr::prof::find_metric<Agg>(name);
    ASSERT_NE(m, nullptr) << name;
    EXPECT_TRUE(m->deterministic) << name;
    EXPECT_EQ(m->compute(agg), value) << name;
  }
  std::set<std::string> names;
  for (const auto& m : acsr::prof::metrics<Agg>())
    EXPECT_TRUE(names.insert(m.name).second) << "duplicate " << m.name;
}

TEST_F(Prof, DerivedMetricFormulas) {
  LaneCounters l;
  l.mem_lane_slots = 64;   // two fully-populated requests...
  l.mem_active_lanes = 48; // ...at 75% occupancy
  l.flop_lane_slots = 32;
  l.flop_active_lanes = 32;
  acsr::vgpu::Counters c;
  c.gmem_bytes = 128;
  l.useful_gmem_bytes = 96;
  EXPECT_DOUBLE_EQ(acsr::prof::lane_occupancy_pct(l), 100.0 * 80 / 96);
  EXPECT_DOUBLE_EQ(acsr::prof::divergence_ratio(l),
                   1.0 - (100.0 * 80 / 96) / 100.0);
  EXPECT_DOUBLE_EQ(acsr::prof::coalescing_efficiency(l, c), 96.0 / 128.0);
  // Edge cases: no slots -> fully occupied; no traffic -> fully coalesced.
  EXPECT_DOUBLE_EQ(acsr::prof::lane_occupancy_pct(LaneCounters{}), 100.0);
  EXPECT_DOUBLE_EQ(
      acsr::prof::coalescing_efficiency(LaneCounters{}, acsr::vgpu::Counters{}),
      1.0);
  EXPECT_DOUBLE_EQ(
      acsr::prof::tex_coalescing_efficiency(LaneCounters{},
                                            acsr::vgpu::Counters{}),
      1.0);
}

// --- contract 3: lane tallies are executor-path invariant -------------------

TEST_F(Prof, LaneTalliesMatchAcrossFastAndReferencePaths) {
  const Csr<double> a = test_matrix(128, 23);
  LaneCounters agg[2];
  for (int mode = 0; mode < 2; ++mode) {
    acsr::vgpu::set_reference_metering(mode == 1);
    Profiler::instance().clear();
    acsr::prof::set_profiler_enabled(true);
    Device dev(DeviceSpec::gtx_titan());
    acsr::prof::capture_engine_spmv<double>("acsr", dev, a);
    for (const LaunchSample& s : Profiler::instance().launches())
      agg[mode] += s.lanes;
    acsr::prof::set_profiler_enabled(false);
  }
  acsr::vgpu::set_reference_metering(false);
  EXPECT_EQ(agg[0].mem_lane_slots, agg[1].mem_lane_slots);
  EXPECT_EQ(agg[0].mem_active_lanes, agg[1].mem_active_lanes);
  EXPECT_EQ(agg[0].flop_lane_slots, agg[1].flop_lane_slots);
  EXPECT_EQ(agg[0].flop_active_lanes, agg[1].flop_active_lanes);
  EXPECT_EQ(agg[0].useful_gmem_bytes, agg[1].useful_gmem_bytes);
  EXPECT_EQ(agg[0].useful_tex_bytes, agg[1].useful_tex_bytes);
  EXPECT_GT(agg[0].mem_lane_slots, 0u);
}

// --- contract 4: Chrome trace schema ---------------------------------------

/// Run an ACSR SpMV (with DP children) plus an app phase and an instant,
/// and return the chrome trace document.
Value capture_trace() {
  acsr::prof::set_profiler_enabled(true);
  Profiler& p = Profiler::instance();
  p.clear();
  const Csr<double> a = test_matrix();
  Device dev(DeviceSpec::gtx_titan());
  acsr::prof::capture_engine_spmv<double>("acsr", dev, a);
  p.instant("fault:example instant");
  p.phase("app", "pagerank:iteration", 1e-4);
  acsr::prof::set_profiler_enabled(false);
  return p.chrome_trace();
}

TEST_F(Prof, ChromeTraceIsSchemaValid) {
  const Value doc = capture_trace();
  ASSERT_TRUE(doc.is_object());
  const Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->as_array().empty());
  EXPECT_NE(doc.find("displayTimeUnit"), nullptr);

  // Per-(pid, tid) track state for monotonicity and B/E balance.
  std::map<std::pair<int, int>, double> last_ts;
  std::map<std::pair<int, int>, int> depth;
  std::set<std::string> names;
  bool saw_meta = false, saw_instant = false;
  for (const Value& ev : events->as_array()) {
    ASSERT_TRUE(ev.is_object());
    const Value* name = ev.find("name");
    const Value* ph = ev.find("ph");
    const Value* pid = ev.find("pid");
    const Value* tid = ev.find("tid");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(pid, nullptr);
    ASSERT_NE(tid, nullptr);
    ASSERT_TRUE(ph->is_string());
    ASSERT_TRUE(pid->is_number());
    ASSERT_TRUE(tid->is_number());
    const std::string& phase = ph->as_string();
    const auto key = std::make_pair(static_cast<int>(pid->as_number()),
                                    static_cast<int>(tid->as_number()));
    if (phase == "M") {
      saw_meta = true;
      continue;  // metadata events carry no ts
    }
    const Value* ts = ev.find("ts");
    ASSERT_NE(ts, nullptr) << phase;
    ASSERT_TRUE(ts->is_number());
    EXPECT_GE(ts->as_number(), 0.0);
    auto it = last_ts.find(key);
    if (it != last_ts.end()) {
      EXPECT_GE(ts->as_number(), it->second)
          << "timestamps regress on track pid=" << key.first
          << " tid=" << key.second;
    }
    last_ts[key] = std::max(ts->as_number(),
                            it == last_ts.end() ? 0.0 : it->second);
    if (phase == "B") {
      ++depth[key];
      names.insert(name->as_string());
    } else if (phase == "E") {
      --depth[key];
      EXPECT_GE(depth[key], 0) << "E without matching B on pid="
                               << key.first << " tid=" << key.second;
    } else if (phase == "i") {
      saw_instant = true;
      const Value* s = ev.find("s");
      ASSERT_NE(s, nullptr);
      EXPECT_EQ(s->as_string(), "g");
    } else {
      FAIL() << "unexpected phase '" << phase << "'";
    }
  }
  for (const auto& [key, d] : depth)
    EXPECT_EQ(d, 0) << "unbalanced B/E on pid=" << key.first
                    << " tid=" << key.second;
  EXPECT_TRUE(saw_meta);
  EXPECT_TRUE(saw_instant);
  // Kernel spans, DP children, and the app phase all made it in.
  EXPECT_TRUE(names.count("acsr_dp_parent"));
  EXPECT_TRUE(names.count("pagerank:iteration"));
  bool has_child = false;
  for (const std::string& n : names)
    has_child = has_child || n.rfind("acsr_row", 0) == 0;
  EXPECT_TRUE(has_child) << "no DP child spans in trace";
}

TEST_F(Prof, ChildSpansNestInsideParentWindow) {
  const Value doc = capture_trace();
  const Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  // Locate the dp parent's B/E window on its stream track, then check
  // every acsr_row child B/E lies within it.
  double parent_b = -1.0, parent_e = -1.0;
  for (const Value& ev : events->as_array()) {
    const Value* name = ev.find("name");
    const Value* ph = ev.find("ph");
    const Value* tid = ev.find("tid");
    if (name == nullptr || ph == nullptr) continue;
    if (name->as_string() != "acsr_dp_parent") continue;
    if (tid != nullptr && tid->as_number() != 0.0) continue;  // stream track
    if (ph->as_string() == "B") parent_b = ev.find("ts")->as_number();
    if (ph->as_string() == "E") parent_e = ev.find("ts")->as_number();
  }
  ASSERT_GE(parent_b, 0.0);
  ASSERT_GT(parent_e, parent_b);
  int children = 0;
  for (const Value& ev : events->as_array()) {
    const Value* name = ev.find("name");
    const Value* ph = ev.find("ph");
    if (name == nullptr || ph == nullptr) continue;
    if (name->as_string().rfind("acsr_row", 0) != 0) continue;
    if (ph->as_string() != "B" && ph->as_string() != "E") continue;
    const double ts = ev.find("ts")->as_number();
    EXPECT_GE(ts, parent_b - 1e-9);
    EXPECT_LE(ts, parent_e + 1e-9);
    ++children;
  }
  EXPECT_GT(children, 0);
}

TEST_F(Prof, WriteTraceRoundTripsThroughParser) {
  acsr::prof::set_profiler_enabled(true);
  Profiler& p = Profiler::instance();
  const Csr<double> a = test_matrix();
  Device dev(DeviceSpec::gtx_titan());
  acsr::prof::capture_engine_spmv<double>("csr-vector", dev, a);
  acsr::prof::set_profiler_enabled(false);

  const std::string path =
      ::testing::TempDir() + "acsr_prof_trace_test.json";
  ASSERT_TRUE(p.write_trace(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  Value parsed;
  std::string err;
  ASSERT_TRUE(acsr::json::parse(ss.str(), &parsed, &err)) << err;
  EXPECT_NE(parsed.find("traceEvents"), nullptr);
  std::remove(path.c_str());
}

// --- exporters --------------------------------------------------------------

TEST_F(Prof, MetricsDocAndSummaryCoverRecordedEngines) {
  acsr::prof::set_profiler_enabled(true);
  Profiler& p = Profiler::instance();
  const Csr<double> a = test_matrix();
  for (const char* e : {"csr-scalar", "acsr"}) {
    Device dev(DeviceSpec::gtx_titan());
    acsr::prof::capture_engine_spmv<double>(e, dev, a);
  }
  acsr::prof::set_profiler_enabled(false);

  const Value doc = acsr::prof::metrics_doc(p.launches(),
                                            p.retry_backoff_s());
  const Value* schema = doc.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->as_string(), acsr::prof::kMetricsSchema);
  const Value* engines = doc.find("engines");
  ASSERT_NE(engines, nullptr);
  ASSERT_TRUE(engines->is_object());
  ASSERT_TRUE(engines->find("csr-scalar") != nullptr);
  ASSERT_TRUE(engines->find("acsr") != nullptr);
  for (const auto& [ctx, section] : engines->as_object()) {
    const Value* total = section.find("total");
    ASSERT_NE(total, nullptr) << ctx;
    // Every registered metric appears with a numeric value.
    for (const auto& m : acsr::prof::metrics<KernelAgg>()) {
      const Value* v = total->find(m.name);
      ASSERT_NE(v, nullptr) << ctx << "/" << m.name;
      EXPECT_TRUE(v->is_number() || v->is_null()) << ctx << "/" << m.name;
    }
  }

  std::ostringstream os;
  acsr::prof::render_summary(os, p.launches(), p.retry_backoff_s());
  const std::string text = os.str();
  EXPECT_NE(text.find("csr_scalar"), std::string::npos);
  EXPECT_NE(text.find("acsr_dp_parent"), std::string::npos);
  EXPECT_NE(text.find("csr-scalar"), std::string::npos);

  std::ostringstream mos;
  acsr::prof::render_engine_matrix(mos, doc);
  EXPECT_NE(mos.str().find("lane_occupancy_pct"), std::string::npos);
}

TEST_F(Prof, DiffMetricsFlagsDriftAndStructuralChanges) {
  acsr::prof::set_profiler_enabled(true);
  Profiler& p = Profiler::instance();
  const Csr<double> a = test_matrix();
  {
    Device dev(DeviceSpec::gtx_titan());
    acsr::prof::capture_engine_spmv<double>("csr-scalar", dev, a);
  }
  acsr::prof::set_profiler_enabled(false);
  const Value doc = acsr::prof::metrics_doc(p.launches(),
                                            p.retry_backoff_s());

  // Identical documents: no drift at any threshold.
  EXPECT_TRUE(acsr::prof::diff_metrics(doc, doc, 0.0).empty());

  // Perturb one deterministic metric by 25%: flagged above 10%, not above
  // 30%.
  Value perturbed = doc;
  Value& total = perturbed.as_object()
                     .at("engines")
                     .as_object()
                     .at("csr-scalar")
                     .as_object()
                     .at("total");
  const double old_ms = total.find("model_ms")->as_number();
  total.as_object()["model_ms"] = old_ms * 1.25;
  auto drifts = acsr::prof::diff_metrics(perturbed, doc, 0.10);
  ASSERT_EQ(drifts.size(), 1u);
  EXPECT_EQ(drifts[0].path, "engines/csr-scalar/total/model_ms");
  EXPECT_NEAR(drifts[0].rel, 0.25, 1e-9);
  EXPECT_TRUE(acsr::prof::diff_metrics(perturbed, doc, 0.30).empty());

  // An engine present on only one side is structural drift at any
  // threshold.
  Value empty_doc;
  std::string err;
  ASSERT_TRUE(acsr::json::parse(
      R"({"schema":"acsr-prof/v1","engines":{}})", &empty_doc, &err))
      << err;
  auto structural = acsr::prof::diff_metrics(empty_doc, doc, 100.0);
  ASSERT_EQ(structural.size(), 1u);
  EXPECT_EQ(structural[0].path, "engines/csr-scalar");
  EXPECT_TRUE(std::isnan(structural[0].current));
}

// --- app phase markers ------------------------------------------------------

TEST_F(Prof, AppPhaseMarkersChargeTheProfilerClock) {
  acsr::prof::set_profiler_enabled(true);
  Profiler& p = Profiler::instance();
  const Csr<double> adj = test_matrix();
  Device dev(DeviceSpec::gtx_titan());
  const Csr<double> m = acsr::apps::pagerank_matrix(adj);
  auto engine = acsr::core::make_engine<double>("csr-vector", dev, m);
  acsr::apps::PageRankConfig cfg;
  cfg.iter.max_iters = 5;
  const auto res = acsr::apps::pagerank<double>(*engine, cfg);
  acsr::prof::set_profiler_enabled(false);

  int iter_spans = 0;
  double span_s = 0.0;
  for (const auto& s : p.spans())
    if (s.name == "pagerank:iteration") {
      ++iter_spans;
      span_s += s.end_s - s.start_s;
    }
  EXPECT_EQ(iter_spans, res.iterations);
  // The phase spans account for exactly the app's charged iteration time.
  EXPECT_NEAR(span_s, res.total_s, 1e-12);
}

}  // namespace
