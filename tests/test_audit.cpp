// The audit tier (docs/ANALYSIS.md): token-level source passes, the
// seeded defect corpus (zero-false-negative pins), and the real-tree
// proofs the CI gate relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/audit_passes.hpp"
#include "analysis/models.hpp"
#include "analysis/source_model.hpp"
#include "common/json.hpp"
#include "core/engine_registry.hpp"
#include "vgpu/counters.hpp"
#include "vgpu/device_spec.hpp"

#ifndef ACSR_SOURCE_DIR
#define ACSR_SOURCE_DIR "."
#endif

namespace {

using namespace acsr;
using analysis::AuditFinding;
using analysis::AuditKind;

bool has_kind(const std::vector<AuditFinding>& fs, AuditKind k) {
  return std::any_of(fs.begin(), fs.end(),
                     [&](const AuditFinding& f) { return f.kind == k; });
}

// The verifier matrix is derived from the factory registry, so a factory
// engine without a verifier model (or vice versa) fails here instead of
// being silently skipped.
TEST(Registry, VerifierMatrixDerivesFromFactoryRegistry) {
  EXPECT_EQ(analysis::all_engine_names(), core::factory_engine_names());
  for (const std::string& e : core::factory_engine_names()) {
    EXPECT_TRUE(analysis::knows_engine(e)) << e;
    EXPECT_NE(core::canonical_engine_name(e), nullptr) << e;
  }
  EXPECT_STREQ(core::canonical_engine_name("csr-cusparse"), "csr");
  EXPECT_EQ(core::canonical_engine_name("bogus"), nullptr);
}

// --- defect corpus: zero false negatives -------------------------------

TEST(DefectCorpus, EverySourceDefectIsFlaggedWithItsExpectedKind) {
  for (const auto& d : analysis::all_source_defects()) {
    const auto fs = analysis::run_source_defect(d.name);
    EXPECT_TRUE(has_kind(fs, d.expected)) << d.name;
  }
}

// --- lexer + scope model ----------------------------------------------

TEST(SourceModel, CommentsStringsAndCodeAreSeparated) {
  const auto f = analysis::lex_source("src/x/t.hpp",
                                      "#pragma once\n"
                                      "// v.data() in a comment\n"
                                      "const char* s = \"x.data()\";\n"
                                      "/* .data() in a block comment */\n"
                                      "int n = 1'000; char c = 'a';\n");
  int comments = 0, strings = 0, directives = 0;
  for (const auto& t : f.toks) {
    comments += t.kind == analysis::TokKind::kComment;
    strings += t.kind == analysis::TokKind::kString;
    directives += t.kind == analysis::TokKind::kDirective;
  }
  EXPECT_EQ(comments, 2);
  EXPECT_EQ(strings, 1);
  EXPECT_EQ(directives, 1);
  // No `.data(` sequence survives into the code stream.
  const analysis::SourceSet set = {f};
  EXPECT_TRUE(analysis::audit_lint(set).empty());
}

TEST(SourceModel, DataEscapeInCodeIsFlaggedOutsideTheSpanLayer) {
  const char* body =
      "#pragma once\n"
      "inline const double* leak(const std::vector<double>& v) {\n"
      "  return v.data();\n"
      "}\n";
  const analysis::SourceSet bad = {analysis::lex_source("src/x/t.hpp", body)};
  EXPECT_TRUE(has_kind(analysis::audit_lint(bad), AuditKind::kLint));
  // The same code inside the span layer is the audited exception.
  const analysis::SourceSet ok = {
      analysis::lex_source("src/vgpu/memory.hpp", body)};
  EXPECT_TRUE(analysis::audit_lint(ok).empty());
}

TEST(SourceModel, UnmeteredCounterIsFlagged) {
  // Rule 3 takes the Counters field names from the compiled-in list, so a
  // counter the executor never meters is flagged even though counters.hpp
  // itself is not in the set.
#define ACSR_FIELD_NAME(type, name, unit, what) #name,
  const std::vector<std::string> fields = {
      ACSR_COUNTERS_FIELDS(ACSR_FIELD_NAME)};
#undef ACSR_FIELD_NAME
  const std::string dropped = "child_blocks";
  std::string body = "#pragma once\ninline void meter(Counters& c) {\n";
  for (const std::string& f : fields)
    if (f != dropped) body += "  ++c." + f + ";\n";
  body += "}\n// c." + dropped + " in a comment does not count\n";
  const analysis::SourceSet set = {
      analysis::lex_source("src/vgpu/warp.hpp", body),
      analysis::lex_source("src/vgpu/device.cpp", "int device;\n"),
      analysis::lex_source("src/vgpu/kernel.cpp", "int kernel;\n")};
  const auto fs = analysis::audit_lint(set);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].kind, AuditKind::kLint);
  EXPECT_EQ(fs[0].subject, "Counters::" + dropped);
  EXPECT_NE(fs[0].detail.find("never metered"), std::string::npos);
}

TEST(SourceModel, ScopeModelFindsFunctionsAndStaticLocals) {
  const auto f = analysis::lex_source(
      "src/x/t.cpp",
      "namespace n {\n"
      "Gadget& Gadget::instance() { static Gadget g; return g; }\n"
      "bool from_env() { return true; }\n"
      "bool g_cached = from_env();\n"
      "}\n");
  const auto m = analysis::build_file_model(f);
  ASSERT_EQ(m.functions.size(), 2u);
  EXPECT_EQ(m.functions[0].name, "instance");
  EXPECT_EQ(m.functions[0].qualifier, "Gadget");
  EXPECT_EQ(m.functions[1].name, "from_env");
  ASSERT_EQ(m.static_local_classes.size(), 1u);
  EXPECT_EQ(m.static_local_classes[0], "Gadget");
  EXPECT_TRUE(std::find(m.ns_init_refs.begin(), m.ns_init_refs.end(),
                        "from_env") != m.ns_init_refs.end());
}

TEST(SourceModel, CachedGatePatternsAreAccepted) {
  // All four caching shapes in one synthetic file: ns-scope init,
  // function-local static, singleton ctor, and a reader called from one
  // of those.
  const auto f = analysis::lex_source(
      "src/x/gates.cpp",
      "namespace n {\n"
      "bool flag(const char* name) { return std::getenv(name) != nullptr; }\n"
      "bool a_from_env() { return std::getenv(\"ACSR_A\") != nullptr; }\n"
      "bool g_a = a_from_env();\n"
      "bool b() { static bool v = std::getenv(\"ACSR_B\") != nullptr;"
      " return v; }\n"
      "struct Plane { Plane() { on_ = flag(\"ACSR_C\"); } bool on_; };\n"
      "Plane& inst() { static Plane p; return p; }\n"
      "}\n");
  const auto res = analysis::audit_gates({f});
  EXPECT_EQ(res.sites.size(), 3u);
  for (const auto& s : res.sites) EXPECT_TRUE(s.cached) << s.var << " " << s.how;
  EXPECT_TRUE(res.findings.empty());
}

// --- real-tree proofs --------------------------------------------------

TEST(RealTree, TaxonomyIsExhaustive) {
  const auto set = analysis::load_source_tree(ACSR_SOURCE_DIR);
  const auto res = analysis::audit_taxonomy(set);
  EXPECT_TRUE(res.findings.empty())
      << res.findings.front().str();
  // The typed taxonomy as shipped: both roots and the Io subtree.
  std::vector<std::string> names;
  for (const auto& t : res.types) {
    names.push_back(t.name);
    EXPECT_TRUE(t.covered || t.terminal || t.throw_sites.empty()) << t.name;
  }
  for (const char* expect :
       {"DeviceFault", "DeviceOom", "TransientFault", "DataCorruption",
        "DeviceLost", "IoError", "IoTransientError", "IoTimeout",
        "ChunkChecksumMismatch"})
    EXPECT_TRUE(std::find(names.begin(), names.end(), expect) != names.end())
        << expect;
}

TEST(RealTree, EveryGateIsCached) {
  const auto set = analysis::load_source_tree(ACSR_SOURCE_DIR);
  const auto res = analysis::audit_gates(set);
  EXPECT_TRUE(res.findings.empty()) << res.findings.front().str();
  std::vector<std::string> vars;
  for (const auto& s : res.sites) {
    vars.push_back(s.var);
    EXPECT_TRUE(s.cached) << s.var << " at " << s.file << ":" << s.line;
  }
  // The gates the planes ship today must all be discovered (a lexer
  // regression that finds zero sites would otherwise pass vacuously).
  for (const char* expect :
       {"ACSR_MEMO", "ACSR_VERIFY", "ACSR_FAULTS", "ACSR_SANITIZE",
        "ACSR_REFERENCE_METERING", "ACSR_PROF", "ACSR_TRACE", "ACSR_SCALE"})
    EXPECT_TRUE(std::find(vars.begin(), vars.end(), expect) != vars.end())
        << expect;
}

TEST(RealTree, LintRulesHoldTokenLevel) {
  const auto set = analysis::load_source_tree(ACSR_SOURCE_DIR);
  const auto fs = analysis::audit_lint(set);
  EXPECT_TRUE(fs.empty()) << fs.front().str();
  EXPECT_GT(set.size(), 50u);  // the loader actually walked src/
}

// --- report ------------------------------------------------------------

TEST(AuditReport, ExitCodeAndJsonRoundTrip) {
  analysis::AuditReport rep;
  rep.taxonomy_types = 9;
  rep.defects_expected = 3;
  rep.defects_flagged = 3;
  EXPECT_EQ(rep.exit_code(), 0);

  rep.findings.push_back({AuditKind::kOrphanThrow, "taxonomy", "w", "detail"});
  EXPECT_EQ(rep.exit_code(), 1);

  std::string err;
  json::Value doc;
  ASSERT_TRUE(json::parse(rep.json(), &doc, &err)) << err;
  const json::Value* summary = doc.find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->find("taxonomy_types")->as_number(), 9);
  EXPECT_FALSE(summary->find("clean")->as_bool());
  const json::Value* findings = doc.find("findings");
  ASSERT_NE(findings, nullptr);
  ASSERT_EQ(findings->as_array().size(), 1u);
  EXPECT_EQ(findings->as_array()[0].find("kind")->as_string(),
            "orphan-throw");

  rep.findings.clear();
  rep.defects_flagged = 2;  // a missed defect is a failure even with no findings
  EXPECT_EQ(rep.exit_code(), 1);
}

}  // namespace
