// Hardware-event counters accumulated during functional execution of a
// kernel. The cost model (kernel.cpp) converts these into simulated time.
#pragma once

#include <cstdint>

#include "common/fields.hpp"

namespace acsr::vgpu {

// The one list of Counters fields (common/fields.hpp): members,
// operator+= and the counters.* passthrough metrics come from it.
#define ACSR_COUNTERS_FIELDS(X)                                              \
  /* Geometry. */                                                            \
  X(std::uint64_t, blocks, "count", "thread blocks executed")                \
  X(std::uint64_t, warps, "count", "warps executed")                         \
  /* Issue pipeline: one unit = one warp-instruction issued. */              \
  X(std::uint64_t, issue_cycles, "count", "warp-instructions issued")        \
  /* Arithmetic throughput, counted per active lane. */                      \
  X(std::uint64_t, sp_flops, "count", "single-precision lane flops")         \
  X(std::uint64_t, dp_flops, "count", "double-precision lane flops")         \
  /* Global-memory (L2/DRAM) path: 32-byte L2 sectors. */                    \
  X(std::uint64_t, gmem_requests, "count", "global load/store instructions") \
  X(std::uint64_t, gmem_transactions, "count", "32 B global sectors moved")  \
  X(std::uint64_t, gmem_bytes, "count", "global sector bytes moved")         \
  /* Texture read path (used for the x vector, as in the paper). */          \
  X(std::uint64_t, tex_requests, "count", "texture read instructions")       \
  X(std::uint64_t, tex_transactions, "count", "32 B texture segments moved") \
  X(std::uint64_t, tex_bytes, "count", "texture segment bytes moved")        \
  X(std::uint64_t, shuffle_ops, "count", "warp shuffle instructions")        \
  X(std::uint64_t, smem_accesses, "count", "shared-memory accesses")         \
  X(std::uint64_t, atomic_ops, "count", "atomic lane operations")            \
  X(std::uint64_t, atomic_conflicts, "count", "same-address atomic replays") \
  /* Dynamic parallelism. */                                                 \
  X(std::uint64_t, child_launches, "count", "device-side child launches")    \
  X(std::uint64_t, child_blocks, "count", "blocks run by child grids")

struct Counters {
  ACSR_COUNTERS_FIELDS(ACSR_FIELD_MEMBER)

  Counters& operator+=(const Counters& o) {
#define ACSR_COUNTERS_ADD(type, name, unit, what) name += o.name;
    ACSR_COUNTERS_FIELDS(ACSR_COUNTERS_ADD)
#undef ACSR_COUNTERS_ADD
    return *this;
  }
};

}  // namespace acsr::vgpu
