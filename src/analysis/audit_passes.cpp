#include "analysis/audit_passes.hpp"

#include <map>
#include <set>
#include <sstream>

#include "common/check.hpp"
#include "common/json.hpp"
#include "vgpu/counters.hpp"

namespace acsr::analysis {

const char* audit_kind_name(AuditKind k) {
  switch (k) {
    case AuditKind::kOrphanThrow: return "orphan-throw";
    case AuditKind::kHotGetenv: return "hot-getenv";
    case AuditKind::kLint: return "lint";
  }
  return "?";
}

std::string AuditFinding::str() const {
  std::ostringstream os;
  os << "[" << audit_kind_name(kind) << "] " << plane << ": " << subject
     << " — " << detail;
  return os.str();
}

namespace {

bool is_ident(const SourceFile& f, int p, const char* t = nullptr) {
  if (p < 0 || p >= f.n_code()) return false;
  const Token& tk = f.ct(p);
  return tk.kind == TokKind::kIdent && (t == nullptr || tk.text == t);
}
bool is_punct(const SourceFile& f, int p, const char* t) {
  if (p < 0 || p >= f.n_code()) return false;
  const Token& tk = f.ct(p);
  return tk.kind == TokKind::kPunct && tk.text == t;
}
bool is_string(const SourceFile& f, int p) {
  return p >= 0 && p < f.n_code() && f.ct(p).kind == TokKind::kString;
}

std::string at(const SourceFile& f, int p) {
  return f.path + ":" + std::to_string(f.ct(p).line);
}

/// All comment annotations `acsr-audit:<tag>(<arg>)` across the set.
std::set<std::string> annotations(const SourceSet& set,
                                  const std::string& tag) {
  std::set<std::string> out;
  const std::string needle = "acsr-audit:" + tag + "(";
  for (const SourceFile& f : set)
    for (const Token& t : f.toks) {
      if (t.kind != TokKind::kComment) continue;
      for (std::size_t pos = t.text.find(needle); pos != std::string::npos;
           pos = t.text.find(needle, pos + 1)) {
        const std::size_t beg = pos + needle.size();
        const std::size_t end = t.text.find(')', beg);
        if (end != std::string::npos)
          out.insert(t.text.substr(beg, end - beg));
      }
    }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------
// Pass 2: fault-taxonomy exhaustiveness.
// ---------------------------------------------------------------------

TaxonomyResult audit_taxonomy(const SourceSet& set) {
  // Taxonomy roots: vgpu::DeviceFault (fault.hpp) and vgpu::DeviceOom
  // (memory.hpp — deliberately not a DeviceFault: an allocation failure
  // is an admission problem, not a device failure, but it still needs a
  // recovery edge).
  const std::set<std::string> roots = {"DeviceFault", "DeviceOom"};

  // Class declarations: name -> direct base (first base, last identifier
  // of its possibly qualified spelling).
  std::map<std::string, std::string> base_of;
  for (const SourceFile& f : set) {
    for (int p = 0; p + 1 < f.n_code(); ++p) {
      if (!(is_ident(f, p, "class") || is_ident(f, p, "struct"))) continue;
      if (is_ident(f, p - 1, "enum")) continue;
      if (!is_ident(f, p + 1)) continue;
      const std::string name = f.ct(p + 1).text;
      // Scan to `{` (definition), `;` (forward declaration) or EOF.
      int q = p + 2;
      int colon = -1;
      for (; q < f.n_code(); ++q) {
        if (is_punct(f, q, "{") || is_punct(f, q, ";")) break;
        if (is_punct(f, q, ":") && colon < 0) colon = q;
      }
      if (q >= f.n_code() || is_punct(f, q, ";") || colon < 0) continue;
      // First base: tokens (colon, first `,` or `{`); its last identifier
      // is the unqualified class name.
      std::string base;
      for (int b = colon + 1; b < q && !is_punct(f, b, ","); ++b)
        if (is_ident(f, b) && f.ct(b).text != "public" &&
            f.ct(b).text != "protected" && f.ct(b).text != "private" &&
            f.ct(b).text != "virtual")
          base = f.ct(b).text;
      if (!base.empty()) base_of[name] = base;
    }
  }

  // Membership: reaches a root through the base chain.
  auto in_taxonomy = [&](const std::string& name) {
    std::string t = name;
    for (int hop = 0; hop < 16; ++hop) {
      if (roots.count(t)) return true;
      auto it = base_of.find(t);
      if (it == base_of.end()) return false;
      t = it->second;
    }
    return false;
  };
  auto ancestors_and_self = [&](const std::string& name) {
    std::vector<std::string> chain{name};
    std::string t = name;
    for (int hop = 0; hop < 16 && !roots.count(t); ++hop) {
      auto it = base_of.find(t);
      if (it == base_of.end()) break;
      t = it->second;
      chain.push_back(t);
    }
    return chain;
  };

  std::map<std::string, TaxonomyType> types;
  for (const auto& [name, base] : base_of)
    if (in_taxonomy(name)) types[name] = {name, base, {}, {}, false, false};
  for (const std::string& r : roots) {
    if (!types.count(r)) types[r] = {r, "", {}, {}, false, false};
    types[r].base = "";
  }

  // Throw sites: `throw [ns::]Type(` with Type in the taxonomy.
  for (const SourceFile& f : set) {
    for (int p = 0; p + 1 < f.n_code(); ++p) {
      if (!is_ident(f, p, "throw")) continue;
      std::string ty;
      int q = p + 1;
      while (q < f.n_code() &&
             (is_ident(f, q) || is_punct(f, q, "::"))) {
        if (is_ident(f, q)) ty = f.ct(q).text;
        ++q;
      }
      if (!ty.empty() && is_punct(f, q, "(") && types.count(ty))
        types[ty].throw_sites.push_back(at(f, p));
    }
  }

  // Recovery edges: typed catch sites `catch (const [ns::]Type& e)`.
  std::set<std::string> caught;
  for (const SourceFile& f : set) {
    for (int p = 0; p + 2 < f.n_code(); ++p) {
      if (!is_ident(f, p, "catch") || !is_punct(f, p + 1, "(")) continue;
      std::string ty, last_ident;
      for (int q = p + 2; q < f.n_code() && !is_punct(f, q, ")"); ++q) {
        if (is_ident(f, q) && f.ct(q).text != "const")
          last_ident = f.ct(q).text;
        if (is_punct(f, q, "&") && !last_ident.empty()) ty = last_ident;
      }
      if (ty.empty()) ty = last_ident;  // by-value catch
      if (!ty.empty() && types.count(ty)) {
        caught.insert(ty);
        types[ty].catch_sites.push_back(at(f, p));
      }
    }
  }

  const std::set<std::string> terminal = annotations(set, "terminal");

  TaxonomyResult res;
  for (auto& [name, t] : types) {
    t.terminal = terminal.count(name) > 0;
    for (const std::string& a : ancestors_and_self(name))
      if (caught.count(a)) {
        t.covered = true;
        if (a != name)
          t.catch_sites.insert(t.catch_sites.end(),
                               types[a].catch_sites.begin(),
                               types[a].catch_sites.end());
        break;
      }
    if (!t.throw_sites.empty() && !t.covered && !t.terminal) {
      std::string sites;
      for (const std::string& s : t.throw_sites) {
        if (!sites.empty()) sites += ", ";
        sites += s;
      }
      res.findings.push_back(
          {AuditKind::kOrphanThrow, "taxonomy", name,
           "thrown at " + sites +
               " but no typed catch of it or an ancestor exists and it is "
               "not declared acsr-audit:terminal(" +
               name + ")"});
    }
    res.types.push_back(t);
  }
  return res;
}

// ---------------------------------------------------------------------
// Pass 3: gate discipline.
// ---------------------------------------------------------------------

GateResult audit_gates(const SourceSet& set) {
  std::vector<FileModel> models;
  models.reserve(set.size());
  std::set<std::string> ns_init_refs, singleton_classes;
  for (const SourceFile& f : set) {
    models.push_back(build_file_model(f));
    const FileModel& m = models.back();
    ns_init_refs.insert(m.ns_init_refs.begin(), m.ns_init_refs.end());
    singleton_classes.insert(m.static_local_classes.begin(),
                             m.static_local_classes.end());
  }

  // Generic readers: functions whose body calls getenv with a non-literal
  // argument (env_flag(name), env_int(name, dflt)). Their own getenv is
  // audited at each literal call site instead.
  std::set<std::string> readers;
  for (std::size_t fi = 0; fi < set.size(); ++fi) {
    const SourceFile& f = set[fi];
    for (int p = 0; p + 2 < f.n_code(); ++p) {
      if (!is_ident(f, p, "getenv") || !is_punct(f, p + 1, "(")) continue;
      if (is_string(f, p + 2)) continue;
      if (const FunctionRegion* r = models[fi].enclosing(p))
        readers.insert(r->name);
    }
  }

  const std::set<std::string> cold = annotations(set, "cold-gate");

  GateResult res;
  for (std::size_t fi = 0; fi < set.size(); ++fi) {
    const SourceFile& f = set[fi];
    const FileModel& m = models[fi];
    for (int p = 0; p + 2 < f.n_code(); ++p) {
      // A gate site: getenv("ACSR_X") or reader("ACSR_X", ...).
      const bool direct =
          is_ident(f, p, "getenv") && is_punct(f, p + 1, "(") &&
          is_string(f, p + 2);
      const bool via_reader =
          !direct && is_ident(f, p) && readers.count(f.ct(p).text) > 0 &&
          is_punct(f, p + 1, "(") && is_string(f, p + 2);
      if (!direct && !via_reader) continue;
      const std::string var = f.ct(p + 2).text;
      if (var.rfind("ACSR_", 0) != 0) continue;

      GateSite site;
      site.var = var;
      site.file = f.path;
      site.line = f.ct(p).line;
      const FunctionRegion* r = m.enclosing(p);
      if (r == nullptr) {
        site.cached = true;
        site.how = "namespace-scope initializer";
      } else if (is_ident(f, statement_begin(f, p), "static")) {
        site.cached = true;
        site.how = "function-local static initializer";
      } else if (ns_init_refs.count(r->name)) {
        site.cached = true;
        site.how = "'" + r->name + "' runs once from a namespace-scope "
                                   "initializer";
      } else if (r->is_ctor && singleton_classes.count(r->name)) {
        site.cached = true;
        site.how = "Meyers-singleton constructor of " + r->name;
      } else if (cold.count(var)) {
        site.cached = true;
        site.how = "declared acsr-audit:cold-gate(" + var + ")";
      } else {
        site.cached = false;
        site.how = "re-read on every call of '" +
                   (r->name.empty() ? std::string("?") : r->name) + "'";
        res.findings.push_back(
            {AuditKind::kHotGetenv, "gates", var,
             at(f, p) + ": " + site.how +
                 " — cache it (static local / namespace-scope init / "
                 "singleton ctor) so the off-path costs one branch"});
      }
      res.sites.push_back(std::move(site));
    }
  }
  return res;
}

// ---------------------------------------------------------------------
// Absorbed lint rules (scripts/lint.sh 1-3), token-level.
// ---------------------------------------------------------------------

namespace {

const SourceFile* find_file(const SourceSet& set, const std::string& path) {
  for (const SourceFile& f : set)
    if (f.path == path) return &f;
  return nullptr;
}

int count_ident(const SourceFile& f, const std::string& name) {
  int n = 0;
  for (int p = 0; p < f.n_code(); ++p)
    if (is_ident(f, p, name.c_str())) ++n;
  return n;
}

}  // namespace

std::vector<AuditFinding> audit_lint(const SourceSet& set) {
  std::vector<AuditFinding> out;
  auto lint = [&](const std::string& subject, const std::string& detail) {
    out.push_back({AuditKind::kLint, "lint", subject, detail});
  };

  // Rule 1: every header carries #pragma once.
  for (const SourceFile& f : set) {
    if (!f.is_header()) continue;
    bool found = false;
    for (const Token& t : f.toks)
      if (t.kind == TokKind::kDirective &&
          t.text.rfind("#pragma", 0) == 0 &&
          t.text.find("once") != std::string::npos)
        found = true;
    if (!found) lint(f.path, "missing '#pragma once'");
  }

  // Rule 2: .data() only in the span layer. Token-level: a `.data()` in
  // a comment or string no longer trips it.
  const std::set<std::string> span_layer = {
      "src/vgpu/memory.hpp", "src/vgpu/warp.hpp", "src/storage/tier.hpp"};
  for (const SourceFile& f : set) {
    if (span_layer.count(f.path)) continue;
    for (int p = 0; p + 2 < f.n_code(); ++p)
      if (is_punct(f, p, ".") && is_ident(f, p + 1, "data") &&
          is_punct(f, p + 2, "("))
        lint(at(f, p), "raw .data() outside the span layer "
                       "(memory.hpp / warp.hpp / storage/tier.hpp)");
  }

  // Rule 3: every Counters field is metered in the executor. The field
  // names come from the compiled-in list (vgpu/counters.hpp), which also
  // generates operator+= and the counters.* metrics, so only metering is
  // left to check. A synthetic set without the metering files (the defect
  // corpus) audits rules 1-2 only.
  const SourceFile* metered[] = {find_file(set, "src/vgpu/warp.hpp"),
                                 find_file(set, "src/vgpu/device.cpp"),
                                 find_file(set, "src/vgpu/kernel.cpp")};
#define ACSR_FIELD_NAME(type, name, unit, what) #name,
  const char* const fields[] = {ACSR_COUNTERS_FIELDS(ACSR_FIELD_NAME)};
#undef ACSR_FIELD_NAME
  if (metered[0] != nullptr || metered[1] != nullptr ||
      metered[2] != nullptr) {
    for (const char* fld : fields) {
      int uses = 0;
      for (const SourceFile* mf : metered)
        if (mf != nullptr) uses += count_ident(*mf, fld);
      if (uses < 1)
        lint(std::string("Counters::") + fld,
             "never metered (warp.hpp / device.cpp / kernel.cpp)");
    }
  }

  return out;
}

// ---------------------------------------------------------------------
// Seeded source-defect corpus.
// ---------------------------------------------------------------------

const std::vector<SourceDefect>& all_source_defects() {
  static const std::vector<SourceDefect> defects = {
      {"orphan-throw", AuditKind::kOrphanThrow,
       "typed fault thrown with no recovery edge and no terminal note"},
      {"hot-getenv", AuditKind::kHotGetenv,
       "ACSR_* gate re-read on every call"},
      {"lint-data-escape", AuditKind::kLint,
       ".data() escape outside the span layer (in code, not a comment)"},
  };
  return defects;
}

std::vector<AuditFinding> run_source_defect(const std::string& name) {
  SourceSet set;
  if (name == "orphan-throw") {
    set.push_back(lex_source("src/vgpu/phantom.hpp", R"cpp(
#pragma once
namespace acsr::vgpu {
class PhantomFault : public DeviceFault {
 public:
  using DeviceFault::DeviceFault;
};
inline void poke() { throw PhantomFault("dev", "poke", "boom"); }
// A typed catch of an unrelated class must not cover it:
inline void other() { try { poke(); } catch (const TransientFault& e) {} }
class TransientFault : public DeviceFault {};
}  // namespace acsr::vgpu
)cpp"));
  } else if (name == "hot-getenv") {
    set.push_back(lex_source("src/vgpu/phantom.hpp", R"cpp(
#pragma once
#include <cstdlib>
namespace acsr::vgpu {
// The getenv runs on every call: exactly the off-path regression the
// gate rule exists to stop.
inline bool phantom_enabled() {
  const char* v = std::getenv("ACSR_PHANTOM");
  return v != nullptr && v[0] == '1';
}
}  // namespace acsr::vgpu
)cpp"));
  } else if (name == "lint-data-escape") {
    set.push_back(lex_source("src/spmv/phantom.hpp", R"cpp(
#pragma once
#include <vector>
namespace acsr::spmv {
// Mentioning .data() here, or in a string "x.data()", must NOT trip the
// token-level rule; the real escape below must.
inline const double* leak(const std::vector<double>& v) {
  return v.data();
}
}  // namespace acsr::spmv
)cpp"));
  } else {
    ACSR_REQUIRE(false, "audit: unknown source defect '" << name << "'");
  }

  std::vector<AuditFinding> out = audit_taxonomy(set).findings;
  const GateResult gates = audit_gates(set);
  out.insert(out.end(), gates.findings.begin(), gates.findings.end());
  const std::vector<AuditFinding> lint = audit_lint(set);
  out.insert(out.end(), lint.begin(), lint.end());
  return out;
}

// ---------------------------------------------------------------------
// Aggregate report.
// ---------------------------------------------------------------------

std::string AuditReport::json() const {
  json::Array arr;
  for (const AuditFinding& f : findings) {
    json::Object o;
    o["kind"] = audit_kind_name(f.kind);
    o["plane"] = f.plane;
    o["subject"] = f.subject;
    o["detail"] = f.detail;
    arr.push_back(std::move(o));
  }
  json::Object summary;
  summary["defects_expected"] = defects_expected;
  summary["defects_flagged"] = defects_flagged;
  summary["taxonomy_types"] = taxonomy_types;
  summary["gate_sites"] = gate_sites;
  summary["clean"] = clean();
  json::Object root;
  root["findings"] = std::move(arr);
  root["summary"] = std::move(summary);
  return json::dump(root, 2);
}

}  // namespace acsr::analysis
