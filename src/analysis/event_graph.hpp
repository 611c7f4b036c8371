// Symbolic event-graph domain for the audit tier (docs/ANALYSIS.md).
//
// The cost model's soundness rests on three timeline disciplines that the
// single-kernel verifier (interpreter.hpp) cannot see because they live
// above the launch boundary:
//
//   charge parity   every unit of metered work is charged to exactly one
//                   StreamTimeline stream, exactly once — no free work
//                   (metered but never charged: the plane looks faster
//                   than it is) and no double charge (charged twice: it
//                   looks slower, and overlap studies draw the wrong
//                   conclusion — the accounting-error class Kreutzer et
//                   al. and Yang et al. warn corrupts scaling results)
//   monotonicity    per-stream charges are non-negative, so stream
//                   cursors never move backwards
//   causal joins    cross-stream joins (cudaStreamWaitEvent analogues:
//                   the OOC double-buffer reuse fence, storage in-flight
//                   retirement, multi-GPU merge, memo replay validation)
//                   only wait on events that were recorded *before* the
//                   wait was issued, and the resulting event graph is a
//                   DAG — a join on a completion value read before it was
//                   computed (comp_done[i] instead of comp_done[i-2])
//                   silently reads 0.0 in the concrete code and erases
//                   the fence; here it is a causality inversion
//
// A charge model (charge_models.cpp) mirrors each engine's / plane's
// concrete enqueue-record-wait structure against this API; audit() then
// checks the disciplines over the built graph. The concrete
// StreamTimeline (vgpu/timeline.hpp) checks none of this at runtime — it
// happily accepts a wait on a stale double — which is exactly why the
// audit tier exists.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace acsr::analysis {

/// Finding kinds of the audit tier (the three passes of acsr-audit plus
/// the lint rules it absorbs from scripts/lint.sh).
enum class AuditKind {
  // pass 1: timeline causality & charge parity
  kFreeWork,            ///< declared metered work never charged
  kDoubleCharge,        ///< work charged more than once / to two streams
  kNonMonotone,         ///< a charge whose duration may be negative
  kCausalityInversion,  ///< wait on an event recorded after the wait
  kDanglingWait,        ///< wait on an event that is never recorded
  // pass 2: fault-taxonomy exhaustiveness
  kOrphanThrow,  ///< typed fault with no recovery edge, not terminal
  // pass 3: gate discipline
  kHotGetenv,  ///< ACSR_* getenv outside a static-cached initializer
  // absorbed lint rules
  kLint,  ///< scripts/lint.sh rules 1-3, now token-level
};

const char* audit_kind_name(AuditKind k);

struct AuditFinding {
  AuditKind kind{};
  std::string plane;    ///< e.g. "charge:acsr@titan", "taxonomy", "gates"
  std::string subject;  ///< work id / fault type / env var / file:line
  std::string detail;   ///< why the proof failed
  std::string str() const;
};

/// Abstract charge graph: streams, declared work units, charges, labeled
/// events, waits. Build it in the model's program order (the order the
/// concrete code issues the operations), then audit().
class ChargeGraph {
 public:
  using StreamId = int;

  /// Create a named stream (a StreamTimeline stream / drive / device).
  StreamId stream(const std::string& name);

  /// Declare one unit of metered work that the model MUST charge exactly
  /// once (a kernel launch, a transfer, a drive read). `what` is the
  /// human description used in findings.
  void declare_work(const std::string& work, const std::string& what);

  /// Charge a declared work unit on a stream. `nonneg` declares the
  /// duration provably >= 0 (models pass false when the concrete code
  /// computes the duration as a difference that could go negative).
  void charge(StreamId s, const std::string& work, bool nonneg = true);

  /// An overhead charge not tied to declared work (retry backoff, stall
  /// padding). Still monotonicity-checked.
  void overhead(StreamId s, const std::string& tag, bool nonneg = true);

  /// Record the stream's current position under `label` (the abstract
  /// cudaEventRecord; the label mirrors the concrete completion value,
  /// e.g. "comp:2" for comp_done[2]).
  void record(StreamId s, const std::string& label);

  /// The abstract cudaStreamWaitEvent: `s` waits on `label`. Legal only
  /// if the label was recorded before this call in program order —
  /// waiting on a completion value that has not been computed yet is the
  /// causality inversion the concrete code cannot detect.
  void wait(StreamId s, const std::string& label);

  /// Check the three disciplines; `plane` labels the findings.
  std::vector<AuditFinding> audit(const std::string& plane) const;

 private:
  struct Node {
    StreamId stream = -1;
    std::string tag;
    bool nonneg = true;
    bool is_wait = false;
    int waits_on = -1;  ///< node index of the recorded event (wait nodes)
    std::string wait_label;
  };
  struct Work {
    std::string what;
    std::vector<int> charges;  ///< node indices that charged it
  };
  struct Label {
    int node = -1;       ///< node position captured by record()
    int recorded_at = -1;  ///< construction index of the record() call
  };

  int add_node(StreamId s, Node n);

  std::vector<std::string> stream_names_;
  std::vector<int> stream_last_;  ///< last node per stream (-1 = none)
  std::vector<Node> nodes_;
  std::vector<std::pair<int, int>> edges_;  ///< program order + cross edges
  std::map<std::string, Work> work_;
  std::vector<std::string> work_order_;  ///< declaration order (stable output)
  std::map<std::string, Label> labels_;
  std::vector<int> pending_waits_;  ///< waits issued before their record()
  std::vector<AuditFinding> build_findings_;  ///< detected while building
};

}  // namespace acsr::analysis
