// perfbench: one run of one benchmark workload.
//
//   perfbench --workload serve|solve|stream --seed N --seconds S
//             [--trace 0|1] [--trace-out FILE]
//
// Prints a human-readable report, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits 1 when any
// output failed the correctness gate, 2 on a usage or environment error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Outcome;

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload serve|solve|stream --seed N "
               "--seconds S [--trace 0|1] [--trace-out FILE]\n";
  return 2;
}

/// Every ACSR_* variable switches a plane (or the corpus scale) when the
/// process starts and so silently changes the program under measurement.
/// The benchmark sets the planes it needs itself.
std::vector<std::string> plane_variables() {
  std::vector<std::string> found;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "ACSR_", 5) == 0)
      found.emplace_back(*e, std::strcspn(*e, "="));
  return found;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& ms, bool only_det) {
  std::string out = "{";
  bool first = true;
  for (const Metric& m : ms) {
    if (only_det && !m.deterministic) continue;
    if (!first) out += ", ";
    first = false;
    out += quoted(m.name) + ": {\"value\": " + number(m.value) +
           ", \"unit\": " + quoted(m.unit) + "}";
  }
  return out + "}";
}

/// Chrome trace-event JSON (loads in Perfetto / chrome://tracing).
bool write_trace(const std::string& path, const Outcome& out) {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"traceEvents\": [";
  const std::int64_t t0 = out.spans.empty() ? 0 : out.spans.front().start_ns;
  for (std::size_t i = 0; i < out.spans.size(); ++i) {
    const perfbench::Span& s = out.spans[i];
    f << (i ? ",\n" : "\n") << "{\"name\": " << quoted(s.name)
      << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
      << number(static_cast<double>(s.start_ns - t0) * 1e-3)
      << ", \"dur\": " << number(static_cast<double>(s.end_ns - s.start_ns) * 1e-3)
      << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
      << "}}";
  }
  f << "\n]}\n";
  return f.good();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + a);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != v.c_str() && *end == '\0';
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      have_seconds = end != v.c_str() && *end == '\0' && opt.seconds > 0;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      opt.trace = v == "1";
    } else if (a == "--trace-out") {
      opt.trace_out = v;
    } else {
      return usage("unknown argument " + a);
    }
  }
  bool known = false;
  for (const std::string& w : perfbench::workload_names())
    known = known || w == opt.workload;
  if (!known) return usage("unknown workload '" + opt.workload + "'");
  if (!have_seed || !have_seconds)
    return usage("--seed and a positive --seconds are required");
  const std::vector<std::string> planes = plane_variables();
  if (!planes.empty()) {
    std::string names;
    for (const std::string& p : planes) names += " " + p;
    std::cerr << "perfbench: refusing to run with plane variables set:"
              << names
              << "\n  (ACSR_MEMO, ACSR_PROF, ACSR_TRACE, ACSR_SLO, "
                 "ACSR_SANITIZE, ACSR_FAULTS, ACSR_REFERENCE_METERING, "
                 "ACSR_VERIFY and ACSR_SCALE each change the program under "
                 "measurement; unset them)\n";
    return 2;
  }

  Outcome out;
  try {
    out = perfbench::run_workload(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }

  std::cout << "perfbench " << opt.workload << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << opt.trace << "\n";
  for (const std::string& n : out.notes) std::cout << "  " << n << "\n";
  std::cout << "  end to end" << (opt.trace ? " (untraced rounds)" : "")
            << ":\n";
  for (const Metric& m : out.end_to_end)
    std::cout << "    " << m.name << " " << number(m.value) << " " << m.unit
              << (m.deterministic ? "  [simulated]" : "") << "\n";
  if (opt.trace) {
    std::cout << "  per layer:\n";
    for (const Metric& m : out.per_layer)
      std::cout << "    " << m.name << " " << number(m.value) << " "
                << m.unit << "\n";
  }
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(out.inputs_digest));
  std::cout << "inputs_digest " << digest << "\n";
  // The quantities two runs with one seed must agree on exactly.
  std::cout << "deterministic "
            << metrics_json(opt.trace ? out.per_layer : out.end_to_end, true)
            << "\n";
  if (opt.trace && !opt.trace_out.empty()) {
    if (write_trace(opt.trace_out, out))
      std::cout << "spans written to " << opt.trace_out << "\n";
    else
      std::cerr << "perfbench: cannot write " << opt.trace_out << "\n";
  }
  std::cout << "{\"correct\": " << (out.correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": "
            << metrics_json(opt.trace ? out.per_layer : out.end_to_end, false)
            << "}" << std::endl;
  return out.correct ? 0 : 1;
}
