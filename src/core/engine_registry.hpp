// The factory's engine registry: the single source of truth for which
// SpMV engines exist. make_engine (factory.hpp) dispatches through it
// and the static verifier's proof matrix (analysis/models.cpp,
// tools/acsr_verify) enumerates it — so adding an engine here without a
// builder or a verifier model fails loudly instead of being silently
// skipped by the proof matrix.
//
// Deliberately dependency-free (names only): analysis code includes this
// header without pulling the engine headers or creating a link cycle with
// acsr_core.
#pragma once

#include <string>
#include <vector>

namespace acsr::core {

struct EngineRegistryEntry {
  const char* name;   ///< canonical factory name
  const char* alias;  ///< alternate factory spelling ("" = none)
};

/// Every engine the factory can build, in dispatch order.
inline constexpr EngineRegistryEntry kEngineRegistry[] = {
    {"csr-scalar", ""},
    {"csr-vector", ""},
    {"csr", "csr-cusparse"},
    {"ell", ""},
    {"coo", ""},
    {"hyb", ""},
    {"brc", ""},
    {"bccoo", ""},
    {"tcoo", ""},
    {"sic", ""},
    {"merge-csr", ""},
    {"sell", ""},
    {"bcsr", ""},
    {"acsr", ""},
    {"acsr-binning", ""},
    {"ooc-csr", ""},
};

/// Canonical engine names in dispatch order (aliases excluded).
inline const std::vector<std::string>& factory_engine_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const EngineRegistryEntry& e : kEngineRegistry) v.emplace_back(e.name);
    return v;
  }();
  return names;
}

/// Resolve a factory name or alias to its canonical name; nullptr when the
/// registry does not know `name`.
inline const char* canonical_engine_name(const std::string& name) {
  for (const EngineRegistryEntry& e : kEngineRegistry) {
    if (name == e.name) return e.name;
    if (e.alias[0] != '\0' && name == e.alias) return e.name;
  }
  return nullptr;
}

}  // namespace acsr::core
