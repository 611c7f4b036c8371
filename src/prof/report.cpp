#include "prof/report.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>

#include "common/table.hpp"

namespace acsr::prof {

namespace {

const std::string kNoContext = "(none)";

/// Group samples by context, then kernel; "total" aggregates the group.
struct Grouped {
  // std::map: deterministic iteration, deterministic serialised docs.
  std::map<std::string, std::map<std::string, KernelAgg>> kernels;
  std::map<std::string, KernelAgg> totals;
};

Grouped group(const std::vector<LaunchSample>& launches) {
  Grouped g;
  for (const LaunchSample& s : launches) {
    const std::string& ctx = s.context.empty() ? kNoContext : s.context;
    g.kernels[ctx][s.kernel].add(s);
    g.totals[ctx].add(s);
  }
  return g;
}

json::Object metrics_of(const KernelAgg& agg) {
  json::Object o;
  for (const Metric<KernelAgg>& m : metrics<KernelAgg>())
    o.emplace(m.name, m.compute(agg));
  return o;
}

std::string fmt(double v) {
  if (v == 0.0) return "0";
  const double a = std::fabs(v);
  if (a >= 1e6 || a < 1e-3) {
    std::ostringstream os;
    os << std::scientific << std::setprecision(3) << v;
    return os.str();
  }
  return Table::num(v, a >= 100.0 ? 1 : 3);
}

}  // namespace

json::Value metrics_doc(const std::vector<LaunchSample>& launches,
                        double retry_backoff_s) {
  const Grouped g = group(launches);
  json::Object engines;
  for (const auto& [ctx, kernels] : g.kernels) {
    json::Object section;
    section.emplace("total", metrics_of(g.totals.at(ctx)));
    json::Object ks;
    for (const auto& [name, agg] : kernels)
      ks.emplace(name, metrics_of(agg));
    section.emplace("kernels", std::move(ks));
    engines.emplace(ctx, std::move(section));
  }
  json::Object doc;
  doc.emplace("schema", kMetricsSchema);
  doc.emplace("retry_backoff_s", retry_backoff_s);
  doc.emplace("engines", std::move(engines));
  return json::Value(std::move(doc));
}

void render_summary(std::ostream& os,
                    const std::vector<LaunchSample>& launches,
                    double retry_backoff_s) {
  const Grouped g = group(launches);
  if (launches.empty()) {
    os << "acsr-prof: no launches recorded (is ACSR_PROF set?)\n";
    return;
  }
  for (const auto& [ctx, kernels] : g.kernels) {
    const KernelAgg& total = g.totals.at(ctx);
    os << "==== acsr-prof summary";
    if (ctx != kNoContext) os << ": " << ctx;
    os << " (" << total.launches << " launches, "
       << Table::num(total.duration_s * 1e3, 3) << " model ms) ====\n";

    std::vector<const std::pair<const std::string, KernelAgg>*> rows;
    for (const auto& kv : kernels) rows.push_back(&kv);
    std::stable_sort(rows.begin(), rows.end(), [](auto* a, auto* b) {
      return a->second.duration_s > b->second.duration_s;
    });
    constexpr std::size_t kMaxRows = 25;  // acsr_row<N> kernels are legion

    Table t({"Time(%)", "Model ms", "Launches", "Avg ms", "Occup %",
             "Coalesce", "Name"});
    for (std::size_t i = 0; i < rows.size() && i < kMaxRows; ++i) {
      const KernelAgg& a = rows[i]->second;
      t.add_row({Table::num(100.0 * a.duration_s /
                                std::max(total.duration_s, 1e-300),
                            1),
                 Table::num(a.duration_s * 1e3, 4),
                 Table::integer(static_cast<long long>(a.launches)),
                 Table::num(a.duration_s * 1e3 /
                                static_cast<double>(a.launches),
                            4),
                 Table::num(lane_occupancy_pct(a.lanes), 1),
                 Table::num(coalescing_efficiency(a.lanes, a.counters), 3),
                 rows[i]->first});
    }
    if (rows.size() > kMaxRows)
      t.add_row({"", "", "", "", "", "",
                 "... " + std::to_string(rows.size() - kMaxRows) +
                     " more kernels"});
    t.print(os);
  }
  if (retry_backoff_s > 0.0)
    os << "fault-retry backoff charged to the clock: "
       << Table::num(retry_backoff_s * 1e3, 4) << " ms\n";
}

void render_engine_matrix(std::ostream& os, const json::Value& doc) {
  // Display subset: the headline attribution metrics, one engine per
  // column (full numbers live in the JSON doc).
  static const char* const kShow[] = {
      "model_ms",          "lane_occupancy_pct",
      "divergence_ratio",  "coalescing_efficiency",
      "tex_coalescing_efficiency", "sectors_per_request",
      "memory_share",      "issue_share",
      "latency_share",     "dp_overhead_share",
      "dram_mb",           "counters.child_launches",
  };
  const json::Value* engines = doc.find("engines");
  if (engines == nullptr || !engines->is_object() ||
      engines->as_object().empty()) {
    os << "acsr-prof: empty metrics document\n";
    return;
  }
  std::vector<std::string> headers = {"metric"};
  for (const auto& [name, section] : engines->as_object())
    headers.push_back(name);
  Table t(std::move(headers));
  for (const char* metric : kShow) {
    std::vector<std::string> row = {metric};
    for (const auto& [name, section] : engines->as_object()) {
      const json::Value* total = section.find("total");
      const json::Value* v =
          total != nullptr ? total->find(metric) : nullptr;
      row.push_back(v != nullptr && v->is_number() ? fmt(v->as_number())
                                                   : "-");
    }
    t.add_row(std::move(row));
  }
  t.print(os);
}

std::vector<Drift> diff_metrics(const json::Value& current,
                                const json::Value& baseline,
                                double threshold) {
  std::vector<Drift> out;
  const double nan = std::nan("");
  const json::Value* ce = current.find("engines");
  const json::Value* be = baseline.find("engines");
  if (ce == nullptr || be == nullptr || !ce->is_object() ||
      !be->is_object())
    return out;

  auto total_of = [](const json::Value& section,
                     const std::string& metric) -> const json::Value* {
    const json::Value* t = section.find("total");
    return t != nullptr ? t->find(metric) : nullptr;
  };

  // Engines present on one side only: structural drift, always reported.
  for (const auto& [name, sec] : be->as_object())
    if (ce->find(name) == nullptr)
      out.push_back({"engines/" + name, 0.0, nan, 0.0});
  for (const auto& [name, sec] : ce->as_object())
    if (be->find(name) == nullptr)
      out.push_back({"engines/" + name, nan, 0.0, 0.0});

  for (const auto& [name, csec] : ce->as_object()) {
    const json::Value* bsec = be->find(name);
    if (bsec == nullptr) continue;
    for (const Metric<KernelAgg>& m : metrics<KernelAgg>()) {
      if (!m.deterministic) continue;
      const json::Value* cv = total_of(csec, m.name);
      const json::Value* bv = total_of(*bsec, m.name);
      if (cv == nullptr || bv == nullptr || !cv->is_number() ||
          !bv->is_number())
        continue;
      const double b = bv->as_number();
      const double c = cv->as_number();
      if (b == c) continue;
      const double rel = (c - b) / std::max(std::fabs(b), 1e-12);
      if (std::fabs(rel) <= threshold) continue;
      out.push_back({"engines/" + name + "/total/" + m.name, b, c, rel});
    }
  }
  std::stable_sort(out.begin(), out.end(), [](const Drift& a,
                                              const Drift& b) {
    return std::fabs(a.rel) > std::fabs(b.rel);
  });
  return out;
}

}  // namespace acsr::prof
