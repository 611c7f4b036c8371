// Typed metric registry: the named, documented decomposition of the raw
// Counters aggregate (plus the profiler's lane tallies and the roofline
// terms) into the quantities the paper argues with — lane occupancy,
// coalescing efficiency, divergence, roofline attribution, DP overhead.
//
// Two invariants the rest of the repo leans on:
//   * every field of every aggregate (Counters, TenantAgg, IoAgg, SloAgg)
//     has a passthrough metric, by construction: the field lists are
//     X-macros (common/fields.hpp) that generate both the members and the
//     passthroughs, so a new field cannot ship unobservable, and
//   * metrics marked non-deterministic (host wall-clock attribution) are
//     excluded from `acsr_prof --diff` regression comparisons — only model
//     quantities, which are bit-reproducible, gate drift.
//
// Formula strings are the documentation of record; docs/OBSERVABILITY.md
// renders the same definitions prose-side.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/fields.hpp"
#include "prof/prof.hpp"

namespace acsr::prof {

// --- shared derived-metric formulas (also used for trace-event args) -------

/// Percentage of issued lane slots that carried an active lane, over the
/// memory and arithmetic pipelines together. 100 on fully converged code;
/// CSR-vector on short rows is the paper's canonical low-occupancy case.
inline double lane_occupancy_pct(const LaneCounters& l) {
  const std::uint64_t slots = l.mem_lane_slots + l.flop_lane_slots;
  if (slots == 0) return 100.0;
  return 100.0 * static_cast<double>(l.mem_active_lanes +
                                     l.flop_active_lanes) /
         static_cast<double>(slots);
}

/// Fraction of issued lane slots wasted on inactive lanes: 1 - occupancy.
inline double divergence_ratio(const LaneCounters& l) {
  return 1.0 - lane_occupancy_pct(l) / 100.0;
}

/// Useful bytes (element size x active lanes, duplicates counted) over the
/// 32 B sector bytes the memory system moved. 1.0 = perfectly coalesced;
/// scattered power-law gathers sit far below. Sector bytes are only
/// charged on cache *misses*, so L2-resident reuse (adjacent rows sharing
/// sectors, as in ACSR's bin sweeps) pushes the ratio above 1 — read
/// values > 1 as "useful bytes delivered per DRAM byte fetched".
inline double coalescing_efficiency(const LaneCounters& l,
                                    const vgpu::Counters& c) {
  if (c.gmem_bytes == 0) return 1.0;
  return static_cast<double>(l.useful_gmem_bytes) /
         static_cast<double>(c.gmem_bytes);
}

/// Texture-path coalescing efficiency (the x-vector gathers).
inline double tex_coalescing_efficiency(const LaneCounters& l,
                                        const vgpu::Counters& c) {
  if (c.tex_bytes == 0) return 1.0;
  return static_cast<double>(l.useful_tex_bytes) /
         static_cast<double>(c.tex_bytes);
}

/// Aggregate of LaunchSamples sharing one summary row (same kernel name,
/// or an engine's whole-run total).
struct KernelAgg {
  std::uint64_t launches = 0;
  vgpu::Counters counters;
  LaneCounters lanes;
  double duration_s = 0.0;
  double issue_s = 0.0;
  double flop_s = 0.0;
  double memory_s = 0.0;
  double latency_s = 0.0;
  double launch_s = 0.0;
  double dp_s = 0.0;
  double dram_bytes = 0.0;
  std::uint64_t host_ns = 0;

  void add(const LaunchSample& s) {
    launches += 1;
    counters += s.run.counters;
    lanes += s.lanes;
    duration_s += s.run.duration_s;
    issue_s += s.run.issue_s;
    flop_s += s.run.flop_s;
    memory_s += s.run.memory_s;
    latency_s += s.run.latency_s;
    launch_s += s.run.launch_s;
    dp_s += s.run.dp_s;
    dram_bytes += s.run.dram_bytes;
    host_ns += s.host_ns;
  }
};

/// A named, documented metric over one aggregate. KernelAgg carries the
/// kernel metrics (acsr_prof --out); TenantAgg, IoAgg and SloAgg carry
/// the serving, storage and SLO planes' metrics.
template <class Agg>
struct Metric {
  std::string name;
  std::string unit;
  std::string formula;  // human-readable definition (docs/OBSERVABILITY.md)
  /// False for host wall-clock attribution: real, but machine-dependent,
  /// so --diff skips it.
  bool deterministic;
  double (*compute)(const Agg&);
};

/// Every registered metric of Agg, in registry order: for KernelAgg the
/// derived metrics first, then one counters.<field> passthrough per
/// Counters field; for the plane aggregates one <prefix>.<field>
/// passthrough per field, then the derived ratios.
template <class Agg>
const std::vector<Metric<Agg>>& metrics();

/// nullptr when unknown.
template <class Agg>
const Metric<Agg>* find_metric(const std::string& name) {
  for (const Metric<Agg>& m : metrics<Agg>())
    if (m.name == name) return &m;
  return nullptr;
}

// --- multi-tenant serving aggregates ---------------------------------------

// Per-tenant billing record kept by serve::BatchScheduler: simulated cost
// attribution of the batched SpMM launches plus queueing behaviour. One
// tenant.<field> metric per field; acsr_prof --tenants prints a column
// per metric.
#define ACSR_TENANT_AGG_FIELDS(X)                                        \
  X(std::uint64_t, requests, "count", "SpMVs served")                    \
  X(std::uint64_t, batches, "count",                                     \
    "batches carrying >= 1 of the tenant's requests")                    \
  X(std::uint64_t, batch_width_sum, "count",                             \
    "carrying batch width, summed per request")                          \
  X(double, cost_s, "s", "billed share of simulated batch time")         \
  X(double, queue_wait_s, "s", "simulated enqueue-to-launch wait, summed")

struct TenantAgg {
  ACSR_TENANT_AGG_FIELDS(ACSR_FIELD_MEMBER)
};

// --- out-of-core storage aggregates ----------------------------------------

// Storage-plane accounting kept by storage::StorageTier and folded in by
// core::OocCsrEngine: every drive read, retry, checksum failure and the
// overlap the streaming executor achieved. One io.<field> metric per
// field; acsr_prof --ooc prints a row per metric.
#define ACSR_IO_AGG_FIELDS(X)                                                \
  X(std::uint64_t, reads, "count", "chunk read requests completed")          \
  X(std::uint64_t, read_bytes, "bytes", "bytes delivered from the drives")   \
  X(std::uint64_t, demand_bytes, "bytes",                                    \
    "bytes the streaming executor asked for")                                \
  X(std::uint64_t, retries, "count",                                         \
    "re-issued reads (transient / timeout / checksum)")                      \
  X(std::uint64_t, checksum_failures, "count",                               \
    "chunks that arrived with a checksum mismatch")                          \
  X(std::uint64_t, queue_peak, "count",                                      \
    "max in-flight requests observed on the tier")                           \
  X(double, read_s, "s", "drive service time, summed")                       \
  X(double, penalty_s, "s",                                                  \
    "retry backoff + timeout hangs charged to the clock")                    \
  X(double, stall_s, "s", "compute idle waiting on a slab upload")           \
  X(double, overlap_s, "s", "io time hidden behind compute")

struct IoAgg {
  ACSR_IO_AGG_FIELDS(ACSR_FIELD_MEMBER)
};

/// Shorthand for find_metric<IoAgg>.
inline const Metric<IoAgg>* find_io_metric(const std::string& name) {
  return find_metric<IoAgg>(name);
}

// --- per-tenant SLO aggregates ----------------------------------------------

// Deterministic SLO summary of one tenant (or the "*" all-tenants view),
// filled by slo::SloMonitor::snapshot from its fixed-bucket histograms
// and sliding-window burn evaluation (docs/SLO.md). One slo.<field>
// metric per field; acsr_slo --tenants prints a column per metric.
#define ACSR_SLO_AGG_FIELDS(X)                                               \
  X(std::uint64_t, requests, "count", "requests observed")                   \
  X(std::uint64_t, violations, "count", "requests over the latency target")  \
  X(std::uint64_t, breaches, "count",                                        \
    "edge-triggered burn-threshold crossings")                               \
  X(double, burn_rate, "ratio", "window violation fraction / error budget")  \
  X(double, latency_p50_s, "s",                                              \
    "deterministic p50 of admission..completion")                            \
  X(double, latency_p95_s, "s",                                              \
    "deterministic p95 of admission..completion")                            \
  X(double, latency_p99_s, "s",                                              \
    "deterministic p99 of admission..completion")                            \
  X(double, latency_max_s, "s", "exact maximum latency observed")            \
  X(double, queue_wait_p50_s, "s", "deterministic p50 of admission..launch") \
  X(double, queue_wait_p95_s, "s", "deterministic p95 of admission..launch") \
  X(double, queue_wait_max_s, "s", "exact maximum queue wait observed")

struct SloAgg {
  ACSR_SLO_AGG_FIELDS(ACSR_FIELD_MEMBER)
};

}  // namespace acsr::prof
