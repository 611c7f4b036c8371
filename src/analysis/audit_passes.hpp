// The audit tier's source passes (over source_model.hpp token streams),
// their finding type, and the aggregate report the CLI and check.sh
// consume.
//
//   taxonomy   every throw site of the typed fault taxonomy (DeviceFault
//              descendants + DeviceOom) maps to a recovery edge — a
//              typed catch of the class or an ancestor — or carries an
//              explicit `acsr-audit:terminal(Type)` comment annotation.
//              A new typed error cannot ship unhandled.
//   gates      every ACSR_* environment gate follows the cached-bool
//              zero-cost pattern: the getenv runs once (static local,
//              namespace-scope initializer, a function called only from
//              one, or a Meyers-singleton constructor) and steady-state
//              reads are a cached branch. `acsr-audit:cold-gate(VAR)`
//              declares a deliberate per-call read on a setup-only path.
//   lint       scripts/lint.sh rules 1-3, token-level (no comment/string
//              false positives).
#pragma once

#include <string>
#include <vector>

#include "analysis/source_model.hpp"

namespace acsr::analysis {

/// Finding kinds of the audit tier (its two source passes plus the lint
/// rules it absorbs from scripts/lint.sh).
enum class AuditKind {
  kOrphanThrow,  ///< typed fault with no recovery edge, not terminal
  kHotGetenv,    ///< ACSR_* getenv outside a static-cached initializer
  kLint,         ///< scripts/lint.sh rules 1-3, now token-level
};

const char* audit_kind_name(AuditKind k);

struct AuditFinding {
  AuditKind kind{};
  std::string plane;    ///< "taxonomy", "gates" or "lint"
  std::string subject;  ///< fault type / env var / file:line
  std::string detail;   ///< why the proof failed
  std::string str() const;
};

// --- pass 2: fault-taxonomy exhaustiveness ----------------------------

struct TaxonomyType {
  std::string name;
  std::string base;  ///< direct base class ("" for roots)
  std::vector<std::string> throw_sites;  ///< "file:line"
  std::vector<std::string> catch_sites;  ///< typed catches of this class
  bool covered = false;   ///< caught as itself or via an ancestor
  bool terminal = false;  ///< declared terminal by annotation
};

struct TaxonomyResult {
  std::vector<TaxonomyType> types;  ///< taxonomy members, by name
  std::vector<AuditFinding> findings;
};

TaxonomyResult audit_taxonomy(const SourceSet& set);

// --- pass 3: gate discipline ------------------------------------------

struct GateSite {
  std::string var;   ///< e.g. "ACSR_MEMO"
  std::string file;
  int line = 0;
  bool cached = false;
  std::string how;  ///< which caching pattern matched / why it is hot
};

struct GateResult {
  std::vector<GateSite> sites;
  std::vector<AuditFinding> findings;
};

GateResult audit_gates(const SourceSet& set);

// --- absorbed lint rules ----------------------------------------------

std::vector<AuditFinding> audit_lint(const SourceSet& set);

// --- seeded source-defect corpus --------------------------------------

struct SourceDefect {
  const char* name;
  AuditKind expected;
  const char* what;
};
const std::vector<SourceDefect>& all_source_defects();
std::vector<AuditFinding> run_source_defect(const std::string& name);

// --- aggregate report --------------------------------------------------

struct AuditReport {
  std::vector<AuditFinding> findings;
  int defects_expected = 0;
  int defects_flagged = 0;
  int taxonomy_types = 0;
  int gate_sites = 0;

  bool clean() const {
    return findings.empty() && defects_flagged == defects_expected;
  }
  /// 0 clean, 1 findings or missed defects (2 is the CLI's usage error).
  int exit_code() const { return clean() ? 0 : 1; }
  std::string json() const;
};

}  // namespace acsr::analysis
