// acsr_audit: the cross-plane static auditor (docs/ANALYSIS.md).
//
//   acsr_audit --all               fault-taxonomy exhaustiveness, gate
//                                  discipline, lint, and the seeded
//                                  source-defect corpus
//   acsr_audit --taxonomy          fault-taxonomy pass only
//   acsr_audit --gates             gate-discipline pass only
//   acsr_audit --lint              absorbed scripts/lint.sh rules 1-3
//   acsr_audit --defects           seeded defect corpus only
//   acsr_audit --report=json       machine-readable report on stdout
//   acsr_audit --root=PATH         repo root (default: build-time source
//                                  dir, falling back to ".")
//
// Exit: 0 all proofs hold, 1 findings or missed defects, 2 usage.
// scripts/check.sh runs `acsr_audit --all --report=json` as part of the
// analysis stage; scripts/lint.sh is a thin wrapper over `--lint`.
#include <cstring>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/audit_passes.hpp"

#ifndef ACSR_SOURCE_DIR
#define ACSR_SOURCE_DIR "."
#endif

namespace {

using acsr::analysis::AuditFinding;
using acsr::analysis::AuditReport;

struct Options {
  bool all = false;
  bool taxonomy = false;
  bool gates = false;
  bool lint = false;
  bool defects = false;
  bool json = false;
  bool verbose = false;
  std::string root = ACSR_SOURCE_DIR;
};

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--all] [--taxonomy] [--gates] [--lint] [--defects]"
               " [--report=json] [--root=PATH] [--verbose]\n";
  return 2;
}

void sweep_taxonomy(const Options& opt, AuditReport& rep) {
  const auto set = acsr::analysis::load_source_tree(opt.root);
  const auto res = acsr::analysis::audit_taxonomy(set);
  rep.taxonomy_types = static_cast<int>(res.types.size());
  if (!opt.json) {
    std::cout << "\nfault taxonomy (" << res.types.size() << " types):\n";
    for (const auto& t : res.types) {
      std::cout << "  " << std::left << std::setw(24) << t.name
                << std::setw(8)
                << (t.covered ? "covered"
                              : (t.terminal ? "terminal" : "ORPHAN"))
                << t.throw_sites.size() << " throw site(s)\n";
      if (opt.verbose)
        for (const auto& s : t.catch_sites)
          std::cout << "      caught at " << s << "\n";
    }
  }
  rep.findings.insert(rep.findings.end(), res.findings.begin(),
                      res.findings.end());
}

void sweep_gates(const Options& opt, AuditReport& rep) {
  const auto set = acsr::analysis::load_source_tree(opt.root);
  const auto res = acsr::analysis::audit_gates(set);
  rep.gate_sites = static_cast<int>(res.sites.size());
  if (!opt.json) {
    std::cout << "\nACSR_* gates (" << res.sites.size() << " sites):\n";
    for (const auto& s : res.sites)
      std::cout << "  " << std::left << std::setw(26) << s.var
                << std::setw(8) << (s.cached ? "cached" : "HOT") << s.file
                << ":" << s.line << (opt.verbose ? "  (" + s.how + ")" : "")
                << "\n";
  }
  rep.findings.insert(rep.findings.end(), res.findings.begin(),
                      res.findings.end());
}

void sweep_lint(const Options& opt, AuditReport& rep) {
  const auto set = acsr::analysis::load_source_tree(opt.root);
  const auto fs = acsr::analysis::audit_lint(set);
  if (!opt.json)
    std::cout << "\nlint rules 1-3 over " << set.size() << " files: "
              << (fs.empty() ? "ok" : std::to_string(fs.size()) + " finding(s)")
              << "\n";
  rep.findings.insert(rep.findings.end(), fs.begin(), fs.end());
}

/// The seeded corpus: every planted defect must surface with the
/// expected finding kind (zero false negatives).
void sweep_defects(const Options& opt, AuditReport& rep) {
  if (!opt.json) std::cout << "\ndefect corpus (each must be flagged):\n";
  auto check = [&](const std::string& name, acsr::analysis::AuditKind expect,
                   const std::vector<AuditFinding>& fs) {
    ++rep.defects_expected;
    bool hit = false;
    for (const AuditFinding& f : fs) hit = hit || f.kind == expect;
    if (hit) ++rep.defects_flagged;
    if (!opt.json)
      std::cout << "  " << std::left << std::setw(20) << name
                << (hit ? "flagged" : "MISSED") << "  ("
                << acsr::analysis::audit_kind_name(expect) << ")\n";
    if (opt.verbose)
      for (const AuditFinding& f : fs) std::cout << "      " << f.str() << "\n";
  };
  for (const auto& d : acsr::analysis::all_source_defects())
    check(d.name, d.expected, acsr::analysis::run_source_defect(d.name));
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--all") {
      opt.all = true;
    } else if (a == "--taxonomy") {
      opt.taxonomy = true;
    } else if (a == "--gates") {
      opt.gates = true;
    } else if (a == "--lint") {
      opt.lint = true;
    } else if (a == "--defects") {
      opt.defects = true;
    } else if (a == "--verbose") {
      opt.verbose = true;
    } else if (a == "--report=json" || a == "--report") {
      // bare --report takes the next arg ("json") for symmetry with
      // `--report json` in docs; only json is supported.
      opt.json = true;
      if (a == "--report" && i + 1 < argc &&
          std::string(argv[i + 1]) == "json")
        ++i;
    } else if (a.rfind("--root=", 0) == 0) {
      opt.root = a.substr(std::strlen("--root="));
    } else {
      return usage(argv[0]);
    }
  }
  if (!opt.all && !opt.taxonomy && !opt.gates && !opt.lint && !opt.defects)
    return usage(argv[0]);

  try {
    AuditReport rep;
    if (opt.all || opt.taxonomy) sweep_taxonomy(opt, rep);
    if (opt.all || opt.gates) sweep_gates(opt, rep);
    if (opt.all || opt.lint) sweep_lint(opt, rep);
    if (opt.all || opt.defects) sweep_defects(opt, rep);

    if (opt.json) {
      std::cout << rep.json() << "\n";
    } else {
      if (!rep.findings.empty()) {
        std::cout << "\n" << rep.findings.size() << " finding(s):\n";
        for (const AuditFinding& f : rep.findings)
          std::cout << "  " << f.str() << "\n";
      }
      if (rep.defects_flagged != rep.defects_expected)
        std::cout << (rep.defects_expected - rep.defects_flagged)
                  << " defect(s) MISSED by the auditor\n";
      if (rep.clean()) std::cout << "\nall audits hold\n";
    }
    return rep.exit_code();
  } catch (const std::exception& e) {
    std::cerr << "acsr_audit: " << e.what() << "\n";
    return 2;
  }
}
