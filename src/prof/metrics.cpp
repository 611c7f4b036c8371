#include "prof/metrics.hpp"

#include <algorithm>

namespace acsr::prof {

namespace {

double safe_div(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// One passthrough metric per Counters field. acsr_audit --lint rule 4 greps
// this file for every field name parsed out of src/vgpu/counters.hpp, so
// adding a counter without adding a row here fails the lint gate.
#define ACSR_COUNTER_METRIC(field, what)                                  \
  MetricDef {                                                             \
    "counters." #field, "count", "sum of Counters::" #field " (" what ")", \
        true, [](const KernelAgg& a) {                                    \
          return static_cast<double>(a.counters.field);                   \
        }                                                                 \
  }

std::vector<MetricDef> build_registry() {
  std::vector<MetricDef> r = {
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
      ACSR_COUNTER_METRIC(blocks, "thread blocks executed"),
      ACSR_COUNTER_METRIC(warps, "warps executed"),
      ACSR_COUNTER_METRIC(issue_cycles, "warp-instructions issued"),
      ACSR_COUNTER_METRIC(sp_flops, "single-precision lane flops"),
      ACSR_COUNTER_METRIC(dp_flops, "double-precision lane flops"),
      ACSR_COUNTER_METRIC(gmem_requests, "global load/store instructions"),
      ACSR_COUNTER_METRIC(gmem_transactions, "32 B global sectors moved"),
      ACSR_COUNTER_METRIC(gmem_bytes, "global sector bytes moved"),
      ACSR_COUNTER_METRIC(tex_requests, "texture read instructions"),
      ACSR_COUNTER_METRIC(tex_transactions, "32 B texture segments moved"),
      ACSR_COUNTER_METRIC(tex_bytes, "texture segment bytes moved"),
      ACSR_COUNTER_METRIC(shuffle_ops, "warp shuffle instructions"),
      ACSR_COUNTER_METRIC(smem_accesses, "shared-memory accesses"),
      ACSR_COUNTER_METRIC(atomic_ops, "atomic lane operations"),
      ACSR_COUNTER_METRIC(atomic_conflicts, "same-address atomic replays"),
      ACSR_COUNTER_METRIC(child_launches, "device-side child launches"),
      ACSR_COUNTER_METRIC(child_blocks, "blocks run by child grids"),
  };
  return r;
}

#undef ACSR_COUNTER_METRIC

std::vector<CounterMetric> build_counter_metrics() {
  std::vector<CounterMetric> r;
  for (const MetricDef& m : metric_registry()) {
    const std::string name = m.name;
    if (name.rfind("counters.", 0) == 0)
      r.push_back({m.name + sizeof("counters.") - 1, m.name});
  }
  return r;
}

// One passthrough metric per TenantAgg field (acsr_audit --lint rule 4
// parses the struct and greps this file, exactly as for Counters).
#define ACSR_TENANT_METRIC(field, unit, what)                          \
  TenantMetricDef {                                                    \
    "tenant." #field, unit, "TenantAgg::" #field " (" what ")",        \
        [](const TenantAgg& a) { return static_cast<double>(a.field); } \
  }

std::vector<TenantMetricDef> build_tenant_registry() {
  return {
      ACSR_TENANT_METRIC(requests, "count", "SpMVs served"),
      ACSR_TENANT_METRIC(batches, "count",
                         "batches carrying >= 1 of the tenant's requests"),
      ACSR_TENANT_METRIC(batch_width_sum, "count",
                         "carrying batch width, summed per request"),
      ACSR_TENANT_METRIC(cost_s, "s", "billed share of simulated batch time"),
      ACSR_TENANT_METRIC(queue_wait_s, "s",
                         "simulated enqueue-to-launch wait, summed"),
      {"tenant.batch_width_avg", "ratio", "batch_width_sum / requests",
       [](const TenantAgg& a) {
         return safe_div(static_cast<double>(a.batch_width_sum),
                         static_cast<double>(a.requests));
       }},
      {"tenant.queue_wait_avg_s", "s", "queue_wait_s / requests",
       [](const TenantAgg& a) {
         return safe_div(a.queue_wait_s, static_cast<double>(a.requests));
       }},
      {"tenant.cost_per_request_s", "s", "cost_s / requests",
       [](const TenantAgg& a) {
         return safe_div(a.cost_s, static_cast<double>(a.requests));
       }},
  };
}

#undef ACSR_TENANT_METRIC

// One passthrough metric per IoAgg field (acsr_audit --lint rule 4 parses
// the struct and greps this file, exactly as for Counters and TenantAgg).
#define ACSR_IO_METRIC(field, unit, what)                            \
  IoMetricDef {                                                      \
    "io." #field, unit, "IoAgg::" #field " (" what ")",              \
        [](const IoAgg& a) { return static_cast<double>(a.field); } \
  }

std::vector<IoMetricDef> build_io_registry() {
  return {
      ACSR_IO_METRIC(reads, "count", "chunk read requests completed"),
      ACSR_IO_METRIC(read_bytes, "bytes", "bytes delivered from the drives"),
      ACSR_IO_METRIC(demand_bytes, "bytes",
                     "bytes the streaming executor asked for"),
      ACSR_IO_METRIC(retries, "count",
                     "re-issued reads (transient / timeout / checksum)"),
      ACSR_IO_METRIC(checksum_failures, "count",
                     "chunks that arrived with a checksum mismatch"),
      ACSR_IO_METRIC(queue_peak, "count",
                     "max in-flight requests observed on the tier"),
      ACSR_IO_METRIC(read_s, "s", "drive service time, summed"),
      ACSR_IO_METRIC(penalty_s, "s",
                     "retry backoff + timeout hangs charged to the clock"),
      ACSR_IO_METRIC(stall_s, "s", "compute idle waiting on a slab upload"),
      ACSR_IO_METRIC(overlap_s, "s", "io time hidden behind compute"),
      {"io.read_amplification", "ratio", "read_bytes / demand_bytes "
       "(stripe rounding + re-reads over useful bytes)",
       [](const IoAgg& a) {
         return safe_div(static_cast<double>(a.read_bytes),
                         static_cast<double>(a.demand_bytes));
       }},
      {"io.overlap_efficiency", "ratio",
       "overlap_s / (read_s + penalty_s); the fraction of io time hidden "
       "behind compute — > 0 proves slab upload ran concurrently",
       [](const IoAgg& a) {
         return safe_div(a.overlap_s, a.read_s + a.penalty_s);
       }},
      {"io.retry_rate", "ratio", "retries / reads",
       [](const IoAgg& a) {
         return safe_div(static_cast<double>(a.retries),
                         static_cast<double>(a.reads));
       }},
  };
}

#undef ACSR_IO_METRIC

// One passthrough metric per SloAgg field (lint rule 4 in acsr_audit
// parses the struct and greps this file, exactly as for the other
// aggregates).
#define ACSR_SLO_METRIC(field, unit, what)                            \
  SloMetricDef {                                                      \
    "slo." #field, unit, "SloAgg::" #field " (" what ")",             \
        [](const SloAgg& a) { return static_cast<double>(a.field); }  \
  }

std::vector<SloMetricDef> build_slo_registry() {
  return {
      ACSR_SLO_METRIC(requests, "count", "requests observed"),
      ACSR_SLO_METRIC(violations, "count",
                      "requests over the latency target"),
      ACSR_SLO_METRIC(breaches, "count",
                      "edge-triggered burn-threshold crossings"),
      ACSR_SLO_METRIC(burn_rate, "ratio",
                      "window violation fraction / error budget"),
      ACSR_SLO_METRIC(latency_p50_s, "s",
                      "deterministic p50 of admission..completion"),
      ACSR_SLO_METRIC(latency_p95_s, "s",
                      "deterministic p95 of admission..completion"),
      ACSR_SLO_METRIC(latency_p99_s, "s",
                      "deterministic p99 of admission..completion"),
      ACSR_SLO_METRIC(latency_max_s, "s", "exact maximum latency observed"),
      ACSR_SLO_METRIC(queue_wait_p50_s, "s",
                      "deterministic p50 of admission..launch"),
      ACSR_SLO_METRIC(queue_wait_p95_s, "s",
                      "deterministic p95 of admission..launch"),
      ACSR_SLO_METRIC(queue_wait_max_s, "s",
                      "exact maximum queue wait observed"),
      {"slo.violation_rate", "ratio", "violations / requests",
       [](const SloAgg& a) {
         return safe_div(static_cast<double>(a.violations),
                         static_cast<double>(a.requests));
       }},
  };
}

#undef ACSR_SLO_METRIC

}  // namespace

const std::vector<MetricDef>& metric_registry() {
  static const std::vector<MetricDef> r = build_registry();
  return r;
}

const MetricDef* find_metric(const std::string& name) {
  for (const MetricDef& m : metric_registry())
    if (name == m.name) return &m;
  return nullptr;
}

const std::vector<CounterMetric>& counter_metrics() {
  static const std::vector<CounterMetric> r = build_counter_metrics();
  return r;
}

const std::vector<TenantMetricDef>& tenant_metric_registry() {
  static const std::vector<TenantMetricDef> r = build_tenant_registry();
  return r;
}

const TenantMetricDef* find_tenant_metric(const std::string& name) {
  for (const TenantMetricDef& m : tenant_metric_registry())
    if (name == m.name) return &m;
  return nullptr;
}

const std::vector<IoMetricDef>& io_metric_registry() {
  static const std::vector<IoMetricDef> r = build_io_registry();
  return r;
}

const IoMetricDef* find_io_metric(const std::string& name) {
  for (const IoMetricDef& m : io_metric_registry())
    if (name == m.name) return &m;
  return nullptr;
}

const std::vector<SloMetricDef>& slo_metric_registry() {
  static const std::vector<SloMetricDef> r = build_slo_registry();
  return r;
}

const SloMetricDef* find_slo_metric(const std::string& name) {
  for (const SloMetricDef& m : slo_metric_registry())
    if (name == m.name) return &m;
  return nullptr;
}

}  // namespace acsr::prof
