// X-macro field lists: an aggregate of plain counters declares each field
// once, next to its struct, as
//
//   #define ACSR_<AGG>_FIELDS(X) X(type, name, "unit", "what") ...
//
// and everything else that names a field is generated from that list: the
// members (ACSR_FIELD_MEMBER), merges such as Counters::operator+=, and
// the passthrough metrics prof/metrics.cpp registers per field. A field
// added to the list is declared, merged and observable by construction.
#pragma once

#define ACSR_FIELD_MEMBER(type, name, unit, what) type name = 0;
