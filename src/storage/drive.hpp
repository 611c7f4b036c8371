// Simulated drive model for the out-of-core storage tier (docs/OOC.md).
//
// A drive serves read requests with a three-term service time — access
// latency (seek), command-rate cost (IOPS), and a sequential-bandwidth
// term — the standard first-order SSD model (and the one SAFS-style
// engines calibrate against). Defaults approximate a SATA-era SSD: the
// point of the tier is the *ratio* to the PCIe model, not absolute
// numbers, and a 0.5 GB/s drive against a ~8 GB/s PCIe link is what makes
// prefetch overlap worth modelling.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>

#include "common/fields.hpp"

namespace acsr::storage {

struct DriveSpec {
  std::string name = "ssd";
  double bandwidth_gbs = 0.5;  ///< sustained sequential read bandwidth
  double iops = 100000.0;      ///< command rate for queued requests
  double seek_s = 50e-6;       ///< access latency per request

  /// Service time of one contiguous read of `bytes`.
  double service_seconds(std::size_t bytes) const {
    return seek_s + 1.0 / iops +
           static_cast<double>(bytes) / (bandwidth_gbs * 1e9);
  }

  /// Every field, for a memo key (vgpu/memo.hpp; doubles print at the
  /// stream's precision).
  void print_key(std::ostream& os) const {
    os << name << ',' << bandwidth_gbs << ',' << iops << ',' << seek_s;
  }
};
static_assert(field_count<DriveSpec>() == 4,
              "print a new DriveSpec field in print_key");

}  // namespace acsr::storage
