// X-macro field lists: an aggregate of plain counters declares each field
// once, next to its struct, as
//
//   #define ACSR_<AGG>_FIELDS(X) X(type, name, "unit", "what") ...
//
// and everything else that names a field is generated from that list: the
// members (ACSR_FIELD_MEMBER), merges such as Counters::operator+=, and
// the passthrough metrics prof/metrics.cpp registers per field. A field
// added to the list is declared, merged and observable by construction.
//
// An aggregate whose fields are not plain counters (an options struct)
// lists them by hand where it must name them all — a memo-key printer —
// and pins that list with field_count: a static_assert next to the
// struct fails the build when a field is added until the list is updated.
#pragma once

#include <cstddef>
#include <utility>

#define ACSR_FIELD_MEMBER(type, name, unit, what) type name = 0;

namespace acsr {

namespace detail {
/// Converts to any field type, so T{AnyField{}...} compiles for as many
/// initializers as the aggregate T has fields, and no more.
struct AnyField {
  template <class U>
  operator U() const;  // NOLINT(google-explicit-constructor)
};
template <class T, std::size_t... I>
constexpr bool braces_from(std::index_sequence<I...>) {
  return requires { T{(void(I), AnyField{})...}; };
}
}  // namespace detail

/// The number of fields of the aggregate T (a nested aggregate counts
/// as one).
template <class T, std::size_t N = 0>
constexpr std::size_t field_count() {
  if constexpr (detail::braces_from<T>(std::make_index_sequence<N + 1>{}))
    return field_count<T, N + 1>();
  else
    return N;
}

}  // namespace acsr
