// Charge models: per-engine and cross-plane mirrors of the concrete
// timeline code, expressed against the ChargeGraph domain
// (event_graph.hpp). Each model restates, operation by operation, what
// the concrete simulate()/service()/merge path enqueues, records and
// waits on; audit() then proves charge parity, monotonicity and causal
// joins over that structure. The models are the auditable spec — when an
// engine's metering changes, its model must change with it or the matrix
// test (tests/test_audit.cpp) fails.
#pragma once

#include <string>
#include <vector>

#include "analysis/event_graph.hpp"
#include "vgpu/device_spec.hpp"

namespace acsr::analysis {

/// The Table II device keys the audit matrix sweeps (same set as
/// tools/acsr_verify).
const std::vector<std::string>& audit_device_keys();

/// Audit one engine's charge structure on one device. Knows every
/// factory-registry engine (canonical name or alias); throws
/// acsr::InputError for an engine the registry knows but no charge model
/// covers — a new engine cannot be silently skipped.
std::vector<AuditFinding> audit_engine_charges(const std::string& engine,
                                               const vgpu::DeviceSpec& spec);

/// Cross-plane joins: the composition seams between planes that no
/// single engine model sees.
///   ooc-double-buffer    slab reuse fence across drive/h2d/compute
///   storage-inflight     bounded async window retirement ordering
///   multi-gpu-merge      per-device streams joined by the merge fence
///   memo-replay          capture/replay launch-sequence charge parity
///   spmm-batch           column-tiled batched SpMM launch charging
///   resilient-backoff    retry ladder's backoff overhead charges
/// (Tracing spans need no plane: the timeline itself reports them, so
/// they cannot charge work a second time — docs/SLO.md.)
const std::vector<std::string>& charge_plane_names();
std::vector<AuditFinding> audit_charge_plane(const std::string& plane);

/// Seeded charge-defect corpus: deliberately broken graphs that pin the
/// auditor's detection power (zero false negatives, tested).
struct ChargeDefect {
  const char* name;
  AuditKind expected;
  const char* what;
};
const std::vector<ChargeDefect>& all_charge_defects();
std::vector<AuditFinding> run_charge_defect(const std::string& name);

}  // namespace acsr::analysis
