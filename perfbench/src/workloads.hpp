// The three benchmark workloads (serve, solve, stream) and what one run of
// any of them reports. See ../README.md for why each workload exists and
// what every metric means.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome-trace file for the spans ("" = none)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Simulated time or a count: must repeat exactly for a repeated seed.
  bool deterministic = false;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;  ///< human-readable report lines
  std::uint64_t inputs_digest = 0;
  std::vector<Span> spans;
};

const std::vector<std::string>& workload_names();

/// Run one workload for opt.seconds. Throws acsr::InputError on an
/// unknown workload name.
Outcome run_workload(const Options& opt);

}  // namespace perfbench
