// The request-tracing + SLO plane (src/slo/, docs/SLO.md): fixed-bucket
// histogram determinism, the RequestQueue's contractual FIFO tie-break
// and typed overload payload, span-tree well-formedness over the serving
// stack, the named-stream enqueue as the one span source and its charge
// parity (per-track span charges bitwise equal to per-stream timeline
// charges, under injected io + transient faults), burn-rate breach
// edge-triggering, and the objectives parser behind `acsr_slo --check`.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "apps/rwr_batch.hpp"
#include "core/factory.hpp"
#include "core/ooc_engine.hpp"
#include "core/resilient.hpp"
#include "graph/powerlaw.hpp"
#include "serve/request.hpp"
#include "serve/scheduler.hpp"
#include "slo/histogram.hpp"
#include "slo/slo.hpp"
#include "slo/trace.hpp"
#include "vgpu/device.hpp"
#include "vgpu/fault.hpp"
#include "vgpu/memo.hpp"

namespace {

using acsr::core::EngineConfig;
using acsr::core::make_engine;
using acsr::core::OocCsrEngine;
using acsr::core::OocOptions;
using acsr::core::ResilientEngine;
using acsr::mat::Csr;
using acsr::mat::index_t;
using acsr::serve::BatchScheduler;
using acsr::serve::OverloadError;
using acsr::serve::Request;
using acsr::serve::RequestQueue;
using acsr::serve::ServeOptions;
using acsr::slo::BreachEvent;
using acsr::slo::LatencyHistogram;
using acsr::slo::SloMonitor;
using acsr::slo::SloObjective;
using acsr::slo::Span;
using acsr::slo::SpanKind;
using acsr::slo::Tracer;
using acsr::vgpu::Device;
using acsr::vgpu::DeviceSpec;
using acsr::vgpu::FaultInjector;

/// Every test leaves the slo plane, the tracer, the fault injector and
/// the memo plane as it found them.
class Slo : public ::testing::Test {
 protected:
  void SetUp() override {
    memo_was_ = acsr::vgpu::memo::memo_enabled();
    slo_was_ = acsr::slo::slo_enabled();
    Tracer::instance().clear();
  }
  void TearDown() override {
    FaultInjector::instance().disable();
    acsr::vgpu::memo::set_memo_enabled(memo_was_);
    acsr::slo::set_slo_enabled(slo_was_);
    Tracer::instance().clear();
    acsr::vgpu::memo::MemoCache::instance().clear();
  }

 private:
  bool memo_was_ = false;
  bool slo_was_ = false;
};

Csr<double> test_matrix(index_t n = 256) {
  acsr::graph::PowerLawSpec s;
  s.rows = n;
  s.cols = n;
  s.mean_nnz_per_row = 6.0;
  s.alpha = 1.6;
  s.max_row_nnz = n / 2;
  s.seed = 7;
  Csr<double> m = acsr::graph::powerlaw_matrix(s);
  for (auto& v : m.vals) v = 0.5 + v * 0.25;
  return m;
}

// --- histogram -------------------------------------------------------------

TEST_F(Slo, HistogramBucketLayout) {
  // under + 9 decades x 9 linear + over.
  EXPECT_EQ(LatencyHistogram::kBuckets, 83);
  EXPECT_EQ(LatencyHistogram::bucket_of(0.0), 0);
  EXPECT_EQ(LatencyHistogram::bucket_of(9.9e-8), 0);   // underflow
  EXPECT_EQ(LatencyHistogram::bucket_of(1e-7), 1);     // first real bucket
  EXPECT_EQ(LatencyHistogram::bucket_of(1e3), 82);     // overflow
  // bucket_of is monotone non-decreasing and every value sits strictly
  // below its bucket's reported upper bound (except under/overflow).
  int prev = 0;
  for (double v = 0.0; v < 150.0; v = v == 0.0 ? 1e-8 : v * 1.37) {
    const int b = LatencyHistogram::bucket_of(v);
    EXPECT_GE(b, prev) << "v=" << v;
    prev = b;
    if (b > 0 && b < LatencyHistogram::kBuckets - 1) {
      EXPECT_LT(v, LatencyHistogram::bucket_upper(b)) << "v=" << v;
    }
  }
  // Exact decade boundaries: 2e-7 is the second linear split of decade 0.
  EXPECT_EQ(LatencyHistogram::bucket_of(2e-7), 2);
  EXPECT_EQ(LatencyHistogram::bucket_upper(1), 2e-7);
  EXPECT_EQ(LatencyHistogram::bucket_of(1e-6), 10);  // decade 1 starts
}

TEST_F(Slo, HistogramQuantilesAreDeterministicOverestimates) {
  LatencyHistogram h;
  for (int i = 1; i <= 100; ++i) h.add(1e-3 * i);  // 1ms .. 100ms
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.max(), 0.1);
  EXPECT_NEAR(h.mean(), 0.0505, 1e-12);
  const double p50 = h.quantile(0.50);
  const double p95 = h.quantile(0.95);
  const double p99 = h.quantile(0.99);
  // Quantiles are bucket upper bounds: ordered, and never below the true
  // order statistic they summarise.
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p50, 0.050);
  EXPECT_GE(p95, 0.095);
  // q = 1 reports the exact tracked maximum, not a bucket bound.
  EXPECT_EQ(h.quantile(1.0), 0.1);
  // Same stream -> bitwise-equal histogram (operator== covers buckets,
  // count, sum and max).
  LatencyHistogram h2;
  for (int i = 1; i <= 100; ++i) h2.add(1e-3 * i);
  EXPECT_TRUE(h == h2);
  h2.add(5.0);
  EXPECT_FALSE(h == h2);
}

TEST_F(Slo, HistogramOverflowQuantileReportsExactMax) {
  LatencyHistogram h;
  h.add(250.0);  // above the 1e2 s ceiling
  h.add(0.5);
  EXPECT_EQ(LatencyHistogram::bucket_of(250.0), LatencyHistogram::kBuckets - 1);
  EXPECT_EQ(h.quantile(1.0), 250.0);
  EXPECT_EQ(h.max(), 250.0);
}

// --- request queue ---------------------------------------------------------

TEST_F(Slo, OverloadErrorCarriesQueueState) {
  RequestQueue<double> q(2);
  Request<double> a;
  a.x = {1.0};
  a.tenant = "alpha";
  a.deadline_s = 7.5;
  Request<double> b = a;
  b.tenant = "beta";
  b.deadline_s = 3.25;
  q.push(std::move(a), 0.0);
  q.push(std::move(b), 0.0);
  Request<double> c;
  c.x = {1.0};
  c.tenant = "gamma";
  try {
    q.push(std::move(c), 1.0);
    FAIL() << "expected OverloadError";
  } catch (const OverloadError& e) {
    EXPECT_EQ(e.queue_depth(), 2u);
    EXPECT_EQ(e.oldest_deadline_s(), 3.25);
    EXPECT_NE(std::string(e.what()).find("gamma"), std::string::npos);
  }
  // A backlog with no deadlines reports +inf (bulk traffic signal).
  RequestQueue<double> q2(1);
  Request<double> d;
  d.x = {1.0};
  q2.push(std::move(d), 0.0);
  try {
    Request<double> e2;
    e2.x = {1.0};
    q2.push(std::move(e2), 0.0);
    FAIL() << "expected OverloadError";
  } catch (const OverloadError& e) {
    EXPECT_TRUE(std::isinf(e.oldest_deadline_s()));
    EXPECT_GT(e.oldest_deadline_s(), 0.0);
  }
}

TEST_F(Slo, PopBestBreaksTiesFifoByAdmissionId) {
  // Equal priority, equal deadline: pop order must be admission order —
  // the contractual FIFO of docs/SLO.md (ids are strictly increasing).
  RequestQueue<double> q(8);
  for (int i = 0; i < 5; ++i) {
    Request<double> r;
    r.x = {static_cast<double>(i)};
    r.tenant = std::string(1, 't') + std::to_string(i);
    q.push(std::move(r), 0.0);
  }
  std::uint64_t prev = 0;
  for (int i = 0; i < 5; ++i) {
    const Request<double> r = q.pop_best();
    EXPECT_GT(r.id, prev) << "FIFO tie-break violated at pop " << i;
    prev = r.id;
  }
  // Priority still dominates, deadline still breaks priority ties.
  Request<double> lo, hi, urgent;
  lo.x = hi.x = urgent.x = {1.0};
  lo.priority = 0;
  hi.priority = 1;
  urgent.priority = 0;
  urgent.deadline_s = 0.5;
  q.push(std::move(lo), 0.0);
  q.push(std::move(urgent), 0.0);
  q.push(std::move(hi), 0.0);
  EXPECT_EQ(q.pop_best().priority, 1);
  EXPECT_EQ(q.pop_best().deadline_s, 0.5);
  EXPECT_TRUE(std::isinf(q.pop_best().deadline_s));
}

// --- slo monitor -----------------------------------------------------------

TEST_F(Slo, BreachIsEdgeTriggeredAndReArms) {
  SloMonitor m;
  SloObjective o;
  o.tenant = "alpha";
  o.latency_target_s = 1e-3;
  o.error_budget = 0.5;
  o.window = 4;
  o.burn_threshold = 1.0;
  m.set_objective(o);
  int fired = 0;
  m.on_breach = [&](const BreachEvent& ev) {
    ++fired;
    EXPECT_EQ(ev.tenant, "alpha");
    EXPECT_GE(ev.burn_rate, 1.0);
    EXPECT_EQ(ev.target_s, 1e-3);
  };

  std::uint64_t id = 1;
  auto fast = [&] { m.observe("alpha", id++, 0.0, 1e-4, 1.0); };
  auto slow = [&] { m.observe("alpha", id++, 0.0, 5e-3, 1.0); };

  fast();
  fast();
  slow();  // window violations 1/3 -> burn 0.67, below threshold
  EXPECT_TRUE(m.breaches().empty());
  slow();  // 2/4 -> burn 1.0: the edge
  ASSERT_EQ(m.breaches().size(), 1u);
  EXPECT_EQ(fired, 1);
  slow();  // 3/4: still in breach, latched — no second event
  slow();  // 4/4
  EXPECT_EQ(m.breaches().size(), 1u);
  // Recover: fast requests push violations out of the window...
  fast();
  fast();
  fast();  // window {slow, fast, fast, fast} -> burn 0.5, re-armed
  EXPECT_EQ(m.breaches().size(), 1u);
  // ...and a fresh burst crosses the threshold again: second edge.
  slow();
  slow();
  ASSERT_EQ(m.breaches().size(), 2u);
  EXPECT_EQ(fired, 2);

  const acsr::prof::SloAgg agg = m.snapshot("alpha");
  EXPECT_EQ(agg.requests, static_cast<std::uint64_t>(id - 1));
  EXPECT_EQ(agg.violations, 6u);
  EXPECT_EQ(agg.breaches, 2u);
  EXPECT_GT(agg.latency_p50_s, 0.0);
  EXPECT_EQ(agg.latency_max_s, 5e-3);
  // The "*" aggregate sees the same single-tenant stream.
  const acsr::prof::SloAgg all = m.snapshot("*");
  EXPECT_EQ(all.requests, agg.requests);
  EXPECT_EQ(all.breaches, agg.breaches);
  EXPECT_EQ(m.tenant_names(), std::vector<std::string>{"alpha"});

  const BreachEvent& ev = m.breaches().front();
  const std::string d = ev.describe();
  EXPECT_NE(d.find("slo:breach tenant 'alpha'"), std::string::npos);
  EXPECT_NE(d.find("burn"), std::string::npos);
}

TEST_F(Slo, ParseObjectivesRoundTripsAndRejectsMalformedDocs) {
  const std::string doc = R"({"objectives": [
    {"tenant": "*", "latency_target_s": 0.25, "error_budget": 0.2},
    {"tenant": "alpha", "latency_target_s": 0.001,
     "window": 8, "burn_threshold": 2.0}]})";
  const std::vector<SloObjective> objs = acsr::slo::parse_objectives(doc);
  ASSERT_EQ(objs.size(), 2u);
  EXPECT_EQ(objs[0].tenant, "*");
  EXPECT_EQ(objs[0].latency_target_s, 0.25);
  EXPECT_EQ(objs[0].error_budget, 0.2);
  EXPECT_EQ(objs[0].window, 64u);  // default kept
  EXPECT_EQ(objs[1].tenant, "alpha");
  EXPECT_EQ(objs[1].window, 8u);
  EXPECT_EQ(objs[1].burn_threshold, 2.0);
  EXPECT_THROW(acsr::slo::parse_objectives("not json"), acsr::InputError);
  EXPECT_THROW(acsr::slo::parse_objectives("{\"objectives\": 3}"),
               acsr::InputError);
  EXPECT_THROW(
      acsr::slo::parse_objectives(R"({"objectives": [{"tenant": 7}]})"),
      acsr::InputError);
}

// --- span trees ------------------------------------------------------------

/// Index spans by id for parent lookups.
std::map<std::uint64_t, const Span*> by_id(const std::vector<Span>& spans) {
  std::map<std::uint64_t, const Span*> m;
  for (const Span& s : spans) m.emplace(s.id, &s);
  return m;
}

TEST_F(Slo, SpanTreesAreWellFormed) {
  acsr::slo::set_slo_enabled(true);
  acsr::vgpu::memo::set_memo_enabled(false);
  const Csr<double> a = test_matrix();
  Device dev(DeviceSpec::gtx_titan());
  OocOptions opt;
  opt.budget_bytes = 8 * 1024;  // several slabs -> real upload/compute spans
  OocCsrEngine<double> engine(dev, a, opt);
  ASSERT_GE(engine.num_slabs(), 3u);

  ServeOptions sopt;
  sopt.max_batch_width = 4;
  BatchScheduler<double> sched(engine, sopt);
  acsr::apps::run_tenant_scenario(sched, a.cols, 4);  // 16 requests
  ASSERT_EQ(sched.served_requests(), 16u);

  const std::vector<Span>& spans = Tracer::instance().spans();
  const auto idx = by_id(spans);

  // One kRequest root per served request; kQueueWait + kServe tile it on
  // the request's own track.
  std::map<std::uint64_t, const Span*> roots;
  for (const Span& s : spans)
    if (s.kind == SpanKind::kRequest) {
      EXPECT_EQ(s.parent, 0u);
      EXPECT_TRUE(roots.emplace(s.request, &s).second)
          << "duplicate root for request " << s.request;
      EXPECT_EQ(s.track, "req:" + s.tenant + "#" + std::to_string(s.request));
    }
  EXPECT_EQ(roots.size(), 16u);
  for (const Span& s : spans) {
    if (s.kind != SpanKind::kQueueWait && s.kind != SpanKind::kServe) continue;
    auto it = roots.find(s.request);
    ASSERT_NE(it, roots.end());
    const Span& root = *it->second;
    EXPECT_EQ(s.parent, root.id);
    EXPECT_EQ(s.track, root.track);
    if (s.kind == SpanKind::kQueueWait) {
      EXPECT_EQ(s.start_s, root.start_s);
    } else {
      EXPECT_EQ(s.end_s, root.end_s);
    }
  }
  for (const auto& [req, root] : roots) {
    const Span* wait = nullptr;
    const Span* serve = nullptr;
    for (const Span& s : spans) {
      if (s.request != req) continue;
      if (s.kind == SpanKind::kQueueWait) wait = &s;
      if (s.kind == SpanKind::kServe) serve = &s;
    }
    ASSERT_NE(wait, nullptr);
    ASSERT_NE(serve, nullptr);
    // The tiling: wait ends exactly where serve starts (the batch launch).
    EXPECT_EQ(wait->end_s, serve->start_s);
    EXPECT_EQ(wait->duration() + serve->duration(), root->duration());
  }

  // Batch spans sit on the "serve" track, ordered and non-overlapping
  // (the scheduler clock advances only by the batches it runs).
  std::vector<const Span*> batches;
  for (const Span& s : spans)
    if (s.kind == SpanKind::kBatch) {
      EXPECT_EQ(s.track, "serve");
      EXPECT_EQ(s.parent, 0u);
      batches.push_back(&s);
    }
  ASSERT_EQ(batches.size(), sched.batches());
  for (std::size_t i = 1; i < batches.size(); ++i)
    EXPECT_GE(batches[i]->start_s, batches[i - 1]->end_s);

  // Execution spans nest under a batch, and a batch's child compute time
  // never exceeds the batch's own duration (compute is a subset of the
  // makespan the scheduler was billed).
  std::map<std::uint64_t, double> child_compute;
  for (const Span& s : spans) {
    if (s.kind != SpanKind::kUpload && s.kind != SpanKind::kCompute &&
        s.kind != SpanKind::kIo && s.kind != SpanKind::kRetryBackoff)
      continue;
    auto it = idx.find(s.parent);
    ASSERT_NE(it, idx.end()) << "orphan execution span " << s.name;
    EXPECT_EQ(it->second->kind, SpanKind::kBatch);
    if (s.kind == SpanKind::kCompute) child_compute[s.parent] += s.duration();
  }
  EXPECT_FALSE(child_compute.empty());
  for (const auto& [batch_id, compute_s] : child_compute) {
    const Span& parent = *idx.at(batch_id);
    EXPECT_LE(compute_s, parent.duration() * (1.0 + 1e-9) + 1e-12)
        << "child compute exceeds batch " << parent.name;
  }

  // Sibling spans on one track never overlap.
  std::map<std::string, std::vector<const Span*>> tracks;
  for (const Span& s : spans) tracks[s.track].push_back(&s);
  for (auto& [track, list] : tracks) {
    std::sort(list.begin(), list.end(), [](const Span* x, const Span* y) {
      return x->start_s < y->start_s;
    });
    for (std::size_t i = 1; i < list.size(); ++i) {
      // Parents contain their children by design; only compare siblings.
      if (list[i]->parent != list[i - 1]->parent) continue;
      EXPECT_GE(list[i]->start_s, list[i - 1]->end_s)
          << "overlap on track " << track;
    }
  }

  // The per-kind histograms the SLO plane summarises count one entry per
  // span of the kind.
  EXPECT_EQ(Tracer::instance().kind_histogram(SpanKind::kRequest).count(),
            16u);
  EXPECT_EQ(Tracer::instance().kind_histogram(SpanKind::kBatch).count(),
            sched.batches());
}

// --- charge parity under faults (the acceptance criterion) -----------------

TEST_F(Slo, FaultedSpanChargesEqualTimelineChargesBitwise) {
  acsr::slo::set_slo_enabled(true);
  acsr::vgpu::memo::set_memo_enabled(false);  // active_engine() is the OOC rung
  // An io fault exercises the tier's retry/backoff spans; a transient
  // launch fault aborts one OOC attempt mid-flight so the parity has to
  // cover an abandoned private timeline (retain-on-abort).
  FaultInjector::instance().configure("io_transient@read#2*3;transient@launch#4");

  const Csr<double> a = test_matrix();
  Device dev(DeviceSpec::gtx_titan());
  EngineConfig cfg;
  cfg.ooc.budget_bytes = 8 * 1024;
  ResilientEngine<double> engine({&dev}, a, "ooc-csr", cfg);

  ServeOptions sopt;
  sopt.max_batch_width = 4;
  BatchScheduler<double> sched(engine, sopt);
  // A deliberately unmeetable objective wires breaches into the recovery
  // log, the acsr_slo CLI's breach sink.
  SloObjective o;
  o.latency_target_s = 1e-9;
  o.error_budget = 0.25;
  o.window = 4;
  sched.slo().set_objective(o);
  sched.slo().on_breach = [&](const BreachEvent& ev) {
    engine.note_event(ev.describe());
  };
  acsr::apps::run_tenant_scenario(sched, a.cols, 2);  // 8 requests

  // The transient launch fault was hit and retried.
  EXPECT_GE(engine.retries(), 1);

  auto* ooc = dynamic_cast<OocCsrEngine<double>*>(&engine.active_engine());
  ASSERT_NE(ooc, nullptr);
  const auto& log = ooc->trace_timeline_log();
  ASSERT_FALSE(log.empty());

  // Stream -> track: the tier creates one stream per drive first, then
  // the engine adds h2d and compute (tier.hpp / ooc_engine.hpp order).
  const int drives = cfg.ooc.tier.num_drives;
  auto track_of = [&](int stream) {
    if (stream < drives)
      return cfg.ooc.tier.drive.name + std::to_string(stream);
    return std::string(stream == drives ? "h2d" : "compute");
  };
  std::map<std::string, double> log_charge;
  std::map<std::string, std::size_t> log_entries;
  for (const acsr::vgpu::StreamTimeline::LogEntry& e : log) {
    const std::string track = track_of(static_cast<int>(e.stream));
    log_charge[track] += e.end_s - e.start_s;
    log_entries[track] += 1;
  }
  ASSERT_GE(log_charge.size(), 3u);  // drives + h2d + compute all worked

  std::map<std::string, double> span_charge;
  std::map<std::string, std::size_t> span_entries;
  for (const Span& s : Tracer::instance().spans()) {
    if (log_charge.count(s.track) == 0) continue;  // serve/req/recovery
    span_charge[s.track] += s.duration();
    span_entries[s.track] += 1;
  }
  // Charge parity, bitwise: every span is reported by its timeline's
  // named-stream enqueue, the only span source, with the enqueue's
  // interval exactly, in the same order — the sums are identical doubles,
  // not merely close (docs/SLO.md).
  EXPECT_EQ(span_entries.size(), log_entries.size());
  for (const auto& [track, charge] : log_charge) {
    EXPECT_EQ(span_entries[track], log_entries[track]) << "track " << track;
    EXPECT_EQ(span_charge[track], charge) << "track " << track;
    EXPECT_EQ(Tracer::instance().track_charge(track), charge)
        << "track " << track;
  }

  // The tree crosses >= 3 planes: serve (batch), engine (upload/compute),
  // storage (drive io), with the retry backoff charged somewhere.
  bool has_batch = false, has_engine = false, has_io = false, has_retry = false;
  for (const Span& s : Tracer::instance().spans()) {
    has_batch |= s.kind == SpanKind::kBatch;
    has_engine |= s.kind == SpanKind::kUpload || s.kind == SpanKind::kCompute;
    has_io |= s.kind == SpanKind::kIo;
    has_retry |= s.kind == SpanKind::kRetryBackoff;
  }
  EXPECT_TRUE(has_batch);
  EXPECT_TRUE(has_engine);
  EXPECT_TRUE(has_io);
  EXPECT_TRUE(has_retry);

  // Breaches reached the recovery plane's event stream.
  ASSERT_FALSE(sched.slo().breaches().empty());
  bool noted = false;
  for (const auto& e : engine.timeline().log())
    noted |= e.tag.find("slo:breach") != std::string::npos;
  EXPECT_TRUE(noted);
}

// --- the timeline is the span source ----------------------------------------

TEST_F(Slo, NamedStreamEnqueueIsTheOnlySpanSource) {
  acsr::slo::set_slo_enabled(true);
  Tracer& tracer = Tracer::instance();
  const std::uint64_t batch =
      tracer.open(SpanKind::kBatch, "batch0/w1", "serve", 0.25);

  acsr::vgpu::StreamTimeline tl;
  EXPECT_EQ(tl.origin(), 0.25);  // a fresh parent's timeline starts with it
  const auto unnamed = tl.create_stream();
  tl.enqueue(unnamed, 1e-3, "untracked");
  struct Want {
    std::string track, tag;
    SpanKind kind;
  };
  const std::vector<Want> wants = {
      {"h2d", "h2d:slab0", SpanKind::kUpload},
      {"compute", "spmv:slab0", SpanKind::kCompute},
      {"ssd0", "read:slab0", SpanKind::kIo},
      {"ssd0", "backoff:slab0", SpanKind::kRetryBackoff},
  };
  std::map<std::string, acsr::vgpu::StreamTimeline::StreamId> streams;
  for (const Want& w : wants) {
    if (streams.count(w.track) == 0)
      streams[w.track] = tl.create_stream(w.track);
    tl.enqueue(streams[w.track], 3e-4, w.tag);
  }
  tracer.close(1.0);

  // Exactly one child per named enqueue, carrying the enqueue's interval
  // bit for bit; the unnamed stream's enqueue recorded nothing.
  std::vector<const Span*> children;
  for (const Span& s : tracer.spans())
    if (s.parent == batch) children.push_back(&s);
  ASSERT_EQ(children.size(), wants.size());
  const auto& log = tl.log();
  ASSERT_EQ(log.size(), wants.size() + 1);
  for (std::size_t i = 0; i < wants.size(); ++i) {
    const Span& s = *children[i];
    const acsr::vgpu::StreamTimeline::LogEntry& e = log[i + 1];
    EXPECT_EQ(s.kind, wants[i].kind) << wants[i].tag;
    EXPECT_EQ(s.track, wants[i].track);
    EXPECT_EQ(s.name, wants[i].tag);
    EXPECT_EQ(s.start_s, tl.origin() + e.start_s) << wants[i].tag;
    EXPECT_EQ(s.end_s, tl.origin() + e.end_s) << wants[i].tag;
  }

  // With the plane off the sink is gone (unless the profiler holds it)
  // and a named enqueue records no span.
  acsr::slo::set_slo_enabled(false);
  if (!acsr::prof::profiler_enabled()) {
    EXPECT_EQ(acsr::vgpu::span_sink(), nullptr);
  }
  const std::size_t before = tracer.spans().size();
  acsr::vgpu::StreamTimeline off;
  off.enqueue(off.create_stream("compute"), 1e-3, "spmv:slab0");
  EXPECT_EQ(tracer.spans().size(), before);
}

// --- determinism across runs and executor planes ---------------------------

struct RunFingerprint {
  LatencyHistogram request, queue_wait, serve, batch;
  acsr::prof::SloAgg agg;
};

RunFingerprint traced_scenario_fingerprint(const Csr<double>& a) {
  Tracer::instance().clear();
  Device dev(DeviceSpec::gtx_titan());
  auto engine = make_engine<double>("acsr", dev, a);
  ServeOptions sopt;
  sopt.max_batch_width = 8;
  BatchScheduler<double> sched(*engine, sopt);
  acsr::apps::run_tenant_scenario(sched, a.cols, 4);
  RunFingerprint f;
  f.request = Tracer::instance().kind_histogram(SpanKind::kRequest);
  f.queue_wait = Tracer::instance().kind_histogram(SpanKind::kQueueWait);
  f.serve = Tracer::instance().kind_histogram(SpanKind::kServe);
  f.batch = Tracer::instance().kind_histogram(SpanKind::kBatch);
  f.agg = sched.slo().snapshot("*");
  return f;
}

void expect_same_fingerprint(const RunFingerprint& x, const RunFingerprint& y,
                             const char* what) {
  EXPECT_TRUE(x.request == y.request) << what;
  EXPECT_TRUE(x.queue_wait == y.queue_wait) << what;
  EXPECT_TRUE(x.serve == y.serve) << what;
  EXPECT_TRUE(x.batch == y.batch) << what;
  EXPECT_EQ(x.agg.requests, y.agg.requests) << what;
  EXPECT_EQ(x.agg.violations, y.agg.violations) << what;
  EXPECT_EQ(x.agg.latency_p50_s, y.agg.latency_p50_s) << what;
  EXPECT_EQ(x.agg.latency_p99_s, y.agg.latency_p99_s) << what;
  EXPECT_EQ(x.agg.latency_max_s, y.agg.latency_max_s) << what;
  EXPECT_EQ(x.agg.queue_wait_p95_s, y.agg.queue_wait_p95_s) << what;
}

TEST_F(Slo, HistogramsAreRunAndMemoInvariant) {
  acsr::slo::set_slo_enabled(true);
  const Csr<double> a = test_matrix();

  acsr::vgpu::memo::set_memo_enabled(false);
  const RunFingerprint plain1 = traced_scenario_fingerprint(a);
  const RunFingerprint plain2 = traced_scenario_fingerprint(a);
  expect_same_fingerprint(plain1, plain2, "identical runs");

  // The memo plane replays metering bit-identically, so every latency
  // percentile the SLO plane reports is identical under ACSR_MEMO=0/1 —
  // cold (capture) and warm (replay) alike.
  acsr::vgpu::memo::set_memo_enabled(true);
  acsr::vgpu::memo::MemoCache::instance().clear();
  const RunFingerprint cold = traced_scenario_fingerprint(a);
  const RunFingerprint warm = traced_scenario_fingerprint(a);
  expect_same_fingerprint(plain1, cold, "memo off vs capture");
  expect_same_fingerprint(plain1, warm, "memo off vs replay");
}

TEST_F(Slo, ObserveSloFeedsMonitorWithoutSpans) {
  // bench_wallclock's path: percentiles without paying for span storage.
  acsr::slo::set_slo_enabled(false);
  const Csr<double> a = test_matrix();
  Device dev(DeviceSpec::gtx_titan());
  auto engine = make_engine<double>("csr", dev, a);
  ServeOptions sopt;
  sopt.observe_slo = true;
  BatchScheduler<double> sched(*engine, sopt);
  acsr::apps::run_tenant_scenario(sched, a.cols, 2);
  const acsr::prof::SloAgg agg = sched.slo().snapshot("*");
  EXPECT_EQ(agg.requests, sched.served_requests());
  EXPECT_GT(agg.latency_p50_s, 0.0);
  EXPECT_TRUE(Tracer::instance().spans().empty());
}

}  // namespace
