#include "prof/metrics.hpp"

#include <cstddef>

namespace acsr::prof {

namespace {

double safe_div(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// One row of an aggregate's X-macro field list with a typed getter.
template <class Agg>
struct Field {
  const char* name;
  const char* unit;
  const char* what;
  double (*get)(const Agg&);
};

// A captureless generic lambda converts to the getter of whichever
// aggregate the table is declared over.
#define ACSR_FIELD_ROW(type, name, unit, what) \
  {#name, unit, what,                          \
   [](const auto& a) { return static_cast<double>(a.name); }},
#define ACSR_COUNTER_ROW(type, name, unit, what) \
  {#name, unit, what,                            \
   [](const KernelAgg& a) { return static_cast<double>(a.counters.name); }},

/// One passthrough metric per field: "<prefix>.<field>", formula
/// "<formula_prefix><field> (<what>)".
template <class Agg, std::size_t N>
std::vector<Metric<Agg>> passthroughs(const Field<Agg> (&fields)[N],
                                      const std::string& prefix,
                                      const std::string& formula_prefix) {
  std::vector<Metric<Agg>> r;
  for (const Field<Agg>& f : fields)
    r.push_back({prefix + "." + f.name, f.unit,
                 formula_prefix + f.name + " (" + f.what + ")", true, f.get});
  return r;
}

template <class Agg>
std::vector<Metric<Agg>> build();

template <>
std::vector<Metric<KernelAgg>> build() {
  std::vector<Metric<KernelAgg>> r = {
      {"launches", "count", "host-side kernel launches aggregated", true,
       [](const KernelAgg& a) { return static_cast<double>(a.launches); }},
      {"model_ms", "ms", "1e3 * sum of KernelRun::duration_s", true,
       [](const KernelAgg& a) { return a.duration_s * 1e3; }},
      {"model_ms_avg", "ms", "model_ms / launches", true,
       [](const KernelAgg& a) {
         return safe_div(a.duration_s * 1e3,
                         static_cast<double>(a.launches));
       }},
      {"lane_occupancy_pct", "%",
       "100 * (mem_active_lanes + flop_active_lanes) / (mem_lane_slots + "
       "flop_lane_slots)",
       true, [](const KernelAgg& a) { return lane_occupancy_pct(a.lanes); }},
      {"divergence_ratio", "ratio", "1 - lane_occupancy_pct / 100", true,
       [](const KernelAgg& a) { return divergence_ratio(a.lanes); }},
      {"coalescing_efficiency", "ratio",
       "useful_gmem_bytes / gmem_bytes (useful = element size * active "
       "lanes; gmem_bytes = 32 B sectors moved)",
       true,
       [](const KernelAgg& a) {
         return coalescing_efficiency(a.lanes, a.counters);
       }},
      {"tex_coalescing_efficiency", "ratio",
       "useful_tex_bytes / tex_bytes (texture path, the x gathers)", true,
       [](const KernelAgg& a) {
         return tex_coalescing_efficiency(a.lanes, a.counters);
       }},
      {"sectors_per_request", "ratio", "gmem_transactions / gmem_requests",
       true,
       [](const KernelAgg& a) {
         return safe_div(static_cast<double>(a.counters.gmem_transactions),
                         static_cast<double>(a.counters.gmem_requests));
       }},
      {"atomic_conflict_ratio", "ratio", "atomic_conflicts / atomic_ops",
       true,
       [](const KernelAgg& a) {
         return safe_div(static_cast<double>(a.counters.atomic_conflicts),
                         static_cast<double>(a.counters.atomic_ops));
       }},
      // Roofline attribution: each term's share of the modelled duration.
      // Shares do not sum to 1 — duration is launch + max(bounds) + dp, so
      // the non-binding bounds report the headroom the kernel had.
      {"issue_share", "ratio", "issue_s / duration_s (warp-issue bound)",
       true,
       [](const KernelAgg& a) { return safe_div(a.issue_s, a.duration_s); }},
      {"flop_share", "ratio", "flop_s / duration_s (arithmetic bound)", true,
       [](const KernelAgg& a) { return safe_div(a.flop_s, a.duration_s); }},
      {"memory_share", "ratio", "memory_s / duration_s (DRAM bound)", true,
       [](const KernelAgg& a) {
         return safe_div(a.memory_s, a.duration_s);
       }},
      {"latency_share", "ratio",
       "latency_s / duration_s (dependency-chain bound)", true,
       [](const KernelAgg& a) {
         return safe_div(a.latency_s, a.duration_s);
       }},
      {"launch_share", "ratio", "launch_s / duration_s (host launch cost)",
       true,
       [](const KernelAgg& a) {
         return safe_div(a.launch_s, a.duration_s);
       }},
      {"dp_overhead_share", "ratio",
       "dp_s / duration_s (device-runtime child-launch handling)", true,
       [](const KernelAgg& a) { return safe_div(a.dp_s, a.duration_s); }},
      {"dram_mb", "MB", "dram_bytes / 1e6 (post-cache DRAM traffic)", true,
       [](const KernelAgg& a) { return a.dram_bytes / 1e6; }},
      // Host wall-clock attribution of the *simulator* (not the model):
      // where bench_wallclock's real milliseconds go. Machine-dependent,
      // hence excluded from --diff.
      {"host_ms", "ms", "wall time inside Device::launch, summed", false,
       [](const KernelAgg& a) {
         return static_cast<double>(a.host_ns) / 1e6;
       }},
      {"host_us_per_launch", "us", "host_ms * 1e3 / launches", false,
       [](const KernelAgg& a) {
         return safe_div(static_cast<double>(a.host_ns) / 1e3,
                         static_cast<double>(a.launches));
       }},
  };
  const Field<KernelAgg> counters[] = {ACSR_COUNTERS_FIELDS(ACSR_COUNTER_ROW)};
  const auto pass = passthroughs(counters, "counters", "sum of Counters::");
  r.insert(r.end(), pass.begin(), pass.end());
  return r;
}

template <>
std::vector<Metric<TenantAgg>> build() {
  const Field<TenantAgg> fields[] = {ACSR_TENANT_AGG_FIELDS(ACSR_FIELD_ROW)};
  std::vector<Metric<TenantAgg>> r =
      passthroughs(fields, "tenant", "TenantAgg::");
  r.insert(r.end(), {
      {"tenant.batch_width_avg", "ratio", "batch_width_sum / requests", true,
       [](const TenantAgg& a) {
         return safe_div(static_cast<double>(a.batch_width_sum),
                         static_cast<double>(a.requests));
       }},
      {"tenant.queue_wait_avg_s", "s", "queue_wait_s / requests", true,
       [](const TenantAgg& a) {
         return safe_div(a.queue_wait_s, static_cast<double>(a.requests));
       }},
      {"tenant.cost_per_request_s", "s", "cost_s / requests", true,
       [](const TenantAgg& a) {
         return safe_div(a.cost_s, static_cast<double>(a.requests));
       }},
  });
  return r;
}

template <>
std::vector<Metric<IoAgg>> build() {
  const Field<IoAgg> fields[] = {ACSR_IO_AGG_FIELDS(ACSR_FIELD_ROW)};
  std::vector<Metric<IoAgg>> r = passthroughs(fields, "io", "IoAgg::");
  r.insert(r.end(), {
      {"io.read_amplification", "ratio", "read_bytes / demand_bytes "
       "(stripe rounding + re-reads over useful bytes)", true,
       [](const IoAgg& a) {
         return safe_div(static_cast<double>(a.read_bytes),
                         static_cast<double>(a.demand_bytes));
       }},
      {"io.overlap_efficiency", "ratio",
       "overlap_s / (read_s + penalty_s); the fraction of io time hidden "
       "behind compute — > 0 proves slab upload ran concurrently", true,
       [](const IoAgg& a) {
         return safe_div(a.overlap_s, a.read_s + a.penalty_s);
       }},
      {"io.retry_rate", "ratio", "retries / reads", true,
       [](const IoAgg& a) {
         return safe_div(static_cast<double>(a.retries),
                         static_cast<double>(a.reads));
       }},
  });
  return r;
}

template <>
std::vector<Metric<SloAgg>> build() {
  const Field<SloAgg> fields[] = {ACSR_SLO_AGG_FIELDS(ACSR_FIELD_ROW)};
  std::vector<Metric<SloAgg>> r = passthroughs(fields, "slo", "SloAgg::");
  r.insert(r.end(), {
      {"slo.violation_rate", "ratio", "violations / requests", true,
       [](const SloAgg& a) {
         return safe_div(static_cast<double>(a.violations),
                         static_cast<double>(a.requests));
       }},
  });
  return r;
}

#undef ACSR_COUNTER_ROW
#undef ACSR_FIELD_ROW

}  // namespace

template <class Agg>
const std::vector<Metric<Agg>>& metrics() {
  static const std::vector<Metric<Agg>> r = build<Agg>();
  return r;
}

template const std::vector<Metric<KernelAgg>>& metrics<KernelAgg>();
template const std::vector<Metric<TenantAgg>>& metrics<TenantAgg>();
template const std::vector<Metric<IoAgg>>& metrics<IoAgg>();
template const std::vector<Metric<SloAgg>>& metrics<SloAgg>();

}  // namespace acsr::prof
