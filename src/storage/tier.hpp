// Fault-tolerant simulated storage tier (docs/OOC.md).
//
// A StorageTier is a RAID-0 array of simulated drives on the caller's
// StreamTimeline: each drive is one stream, so reads striped across
// drives proceed in parallel with each other and with whatever else the
// caller runs on its own streams (the out-of-core executor's h2d and
// compute streams). The tier is a *timing and integrity* model — the
// "file" truth is host memory, and a read delivers bytes by copying the
// request's source segments into its destination segments — so the data
// plane stays exact while the time plane pays drive service, stripe
// rounding, queueing, and fault penalties.
//
// Robustness is first-class. Every chunk carries the checksum stored with
// it when it was written (stored_checksum over its source bytes:
// chunk_checksum, FNV-style word steps in four lanes), and every delivery
// is verified against that stored value on arrival, so a corruption on
// the wire or at rest is caught without re-hashing the source per read.
// Each step is a bijection of the hash state, so any corruption confined
// to one 8-byte word (or one tail byte) of a segment — every single-bit
// flip included — always changes the checksum. The ACSR_FAULTS `read` site
// can fail a request (io_transient), hang it (io_timeout), corrupt the
// delivered bytes (io_checksum — caught by the arrival checksum), or
// degrade a drive (io_degrade). Failed or corrupt reads are re-issued up to
// `max_retries` times with exponential backoff charged to the simulated
// clock; exhausting the budget escapes as the matching typed error
// (IoTransientError / IoTimeout / ChunkChecksumMismatch from
// vgpu/fault.hpp), which the checkpointed solvers' DeviceFault restart
// net already covers.
//
// Requests are asynchronous with a bounded in-flight window: submit()
// services the request on the drive streams immediately (simulated
// asynchrony — drive time advances independently of the caller's
// streams) and parks its completion; when the window is full the oldest
// request completes first, modelling a producer blocking on a full
// queue. poll()/drain() fire completion callbacks. All accounting lands
// in a prof::IoAgg (io.* metrics, complete by construction).
// Each drive stream is named after its drive, so its reads, hangs and
// backoff are execution spans on that drive's track (docs/SLO.md).
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/fields.hpp"
#include "prof/metrics.hpp"
#include "storage/drive.hpp"
#include "storage/mapper.hpp"
#include "vgpu/fault.hpp"
#include "vgpu/timeline.hpp"

namespace acsr::storage {

/// One piece of a chunk's data plane: deliver `bytes` from `src` to `dst`.
struct Segment {
  const unsigned char* src = nullptr;
  unsigned char* dst = nullptr;
  std::size_t bytes = 0;
};

/// Build a Segment over element ranges of typed host vectors. This is the
/// one audited place (acsr_audit --lint rule 2) where a host vector decays
/// to raw bytes: the storage data plane moves bytes, not elements, and
/// every caller goes through this helper so the decay stays centralized.
/// A zero count yields an empty Segment the caller should drop.
template <class U>
Segment make_segment(const std::vector<U>& src, std::size_t src_first,
                     std::vector<U>& dst, std::size_t count) {
  if (count == 0) return Segment{};
  ACSR_REQUIRE(src_first + count <= src.size() && count <= dst.size(),
               "storage segment out of range");
  return Segment{
      reinterpret_cast<const unsigned char*>(src.data() + src_first),
      reinterpret_cast<unsigned char*>(dst.data()),
      count * sizeof(U)};
}

inline constexpr std::uint64_t kChecksumSeed = 14695981039346656037ULL;

/// Chunk checksum over a byte range; chainable via `h` for multi-segment
/// chunks. FNV-style `(lane ^ word) * P` steps over 8-byte words in four
/// independent lanes (so the multiplies pipeline), the tail bytewise into
/// lane 0, then the lanes and the length folded into `h` the same way.
/// Multiplying by the odd prime is a bijection mod 2^64, so every step is
/// a bijection of the state it updates: a corruption confined to one word
/// (or one tail byte) changes exactly one lane, which changes the result —
/// as does any change to the incoming `h` of a chained earlier segment.
inline std::uint64_t chunk_checksum(const unsigned char* p, std::size_t n,
                                    std::uint64_t h = kChecksumSeed) {
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::uint64_t lane[4] = {kChecksumSeed, 0x9e3779b97f4a7c15ULL,
                           0xc2b2ae3d27d4eb4fULL, 0x165667b19e3779f9ULL};
  auto word = [p](std::size_t i) {
    std::uint64_t w;
    std::memcpy(&w, p + i, sizeof w);  // segments are not 8-byte aligned
    return w;
  };
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32)
    for (std::size_t k = 0; k < 4; ++k)
      lane[k] = (lane[k] ^ word(i + 8 * k)) * kPrime;
  for (; i + 8 <= n; i += 8) lane[0] = (lane[0] ^ word(i)) * kPrime;
  for (; i < n; ++i) lane[0] = (lane[0] ^ p[i]) * kPrime;
  for (const std::uint64_t l : lane) h = (h ^ l) * kPrime;
  return (h ^ n) * kPrime;
}

/// The checksum a chunk is stored with when it is written: chunk_checksum
/// over `count` elements of `src` from `first`, chained through `h` across
/// the chunk's source ranges in segment order. An empty range leaves `h`
/// as it is, as make_segment drops an empty segment. A writer computes
/// this once per chunk and passes it with every read; the tier verifies
/// each delivery against it and never re-hashes the source.
template <class U>
std::uint64_t stored_checksum(const std::vector<U>& src, std::size_t first,
                              std::size_t count,
                              std::uint64_t h = kChecksumSeed) {
  if (count == 0) return h;
  ACSR_REQUIRE(first + count <= src.size(), "storage segment out of range");
  return chunk_checksum(
      reinterpret_cast<const unsigned char*>(src.data() + first),
      count * sizeof(U), h);
}

struct TierConfig {
  int num_drives = 4;
  std::size_t stripe_bytes = 256 * 1024;
  std::size_t max_inflight = 8;  ///< bounded async request window
  int max_retries = 3;           ///< re-issues per chunk before escaping
  double backoff_s = 1e-3;       ///< base retry backoff, doubles per retry
  DriveSpec drive{};             ///< per-drive model (name gets an index)

  /// Every field, for a memo key (vgpu/memo.hpp; doubles print at the
  /// stream's precision).
  void print_key(std::ostream& os) const {
    os << num_drives << ',' << stripe_bytes << ',' << max_inflight << ','
       << max_retries << ',' << backoff_s << ',';
    drive.print_key(os);
  }
};
static_assert(field_count<TierConfig>() == 6,
              "print a new TierConfig field in print_key");

class StorageTier {
 public:
  using Event = vgpu::StreamTimeline::Event;

  struct ReadRequest {
    std::string what;         ///< chunk name, for fault/log attribution
    std::size_t offset = 0;   ///< logical byte offset in the striped file
    std::vector<Segment> segments;
    /// Stored with the chunk when it was written (stored_checksum over the
    /// segments' sources); every delivery is verified against it.
    std::uint64_t checksum = 0;
    /// Fired (from poll/drain/queue pressure) with the completion time.
    std::function<void(double complete_s)> on_complete;
  };

  StorageTier(vgpu::StreamTimeline& tl, TierConfig cfg)
      : tl_(tl), cfg_(cfg), mapper_(cfg.num_drives, cfg.stripe_bytes) {
    ACSR_REQUIRE(cfg_.max_inflight >= 1,
                 "storage tier needs an in-flight window >= 1");
    ACSR_REQUIRE(cfg_.max_retries >= 0, "max_retries must be >= 0");
    for (int d = 0; d < cfg_.num_drives; ++d)
      streams_.push_back(tl_.create_stream(drive_name(d)));
  }

  const TierConfig& config() const { return cfg_; }
  const StripeMapper& mapper() const { return mapper_; }

  /// Issue one chunk read. Drive service (and any fault penalty) is
  /// charged immediately on the drive streams; the request's data is
  /// delivered (and checksum-verified) before return, so the caller can
  /// depend on the bytes while the *time* of availability is the
  /// returned completion event. Throws the typed IoError taxonomy when
  /// the retry budget is exhausted.
  Event submit(ReadRequest r) {
    while (inflight_.size() >= cfg_.max_inflight) complete_front();
    const Event done = service(r);
    inflight_.push_back({done, std::move(r.on_complete)});
    if (inflight_.size() > stats_.queue_peak)
      stats_.queue_peak = inflight_.size();
    return done;
  }

  /// Synchronous convenience: submit and immediately retire.
  Event read_chunk(std::string what, std::size_t offset,
                   std::vector<Segment> segments, std::uint64_t checksum) {
    ReadRequest r;
    r.what = std::move(what);
    r.offset = offset;
    r.segments = std::move(segments);
    r.checksum = checksum;
    const Event done = submit(std::move(r));
    poll(done.at_s());
    return done;
  }

  /// Retire every in-flight request completing at or before `now_s`.
  void poll(double now_s) {
    while (!inflight_.empty() && inflight_.front().done.at_s() <= now_s)
      complete_front();
  }

  /// Retire everything; returns the last completion time (0 when idle).
  double drain() {
    double t = 0.0;
    while (!inflight_.empty()) {
      t = inflight_.front().done.at_s();
      complete_front();
    }
    return t;
  }

  std::size_t inflight() const { return inflight_.size(); }
  const prof::IoAgg& stats() const { return stats_; }
  /// Mutable view: the streaming executor folds its stall/overlap terms
  /// into the same aggregate the tier fills.
  prof::IoAgg& stats() { return stats_; }

 private:
  struct Pending {
    Event done;
    std::function<void(double)> on_complete;
  };

  void complete_front() {
    Pending p = std::move(inflight_.front());
    inflight_.pop_front();
    if (p.on_complete) p.on_complete(p.done.at_s());
  }

  std::string drive_name(int index) const {
    return cfg_.drive.name + std::to_string(index);
  }

  /// The arrival checksum: stored_checksum's chain over the delivered
  /// bytes.
  static std::uint64_t checksum_dst(const std::vector<Segment>& segs) {
    std::uint64_t h = kChecksumSeed;
    for (const Segment& s : segs) h = chunk_checksum(s.dst, s.bytes, h);
    return h;
  }

  /// Charge retry backoff on the request's first drive.
  void charge_backoff(int drive, int attempt, const std::string& what) {
    const double b = std::ldexp(cfg_.backoff_s, attempt);
    stats_.retries += 1;
    stats_.penalty_s += b;
    tl_.enqueue(streams_[static_cast<std::size_t>(drive)], b,
                "backoff:" + what);
  }

  /// The retry loop: per attempt, consult the fault plane, charge drive
  /// service for the stripe-rounded extents, deliver, verify against the
  /// chunk's stored checksum.
  Event service(const ReadRequest& r) {
    std::size_t demand = 0;
    for (const Segment& s : r.segments) demand += s.bytes;
    ACSR_CHECK(demand > 0);
    stats_.demand_bytes += demand;
    const std::vector<Extent> extents = mapper_.map(r.offset, demand);
    const int first_drive = extents.front().drive;

    for (int attempt = 0;; ++attempt) {
      vgpu::ReadFault f;
      if (vgpu::fault_injection_enabled()) [[unlikely]]
        f = vgpu::FaultInjector::instance().on_read(drive_name(first_drive),
                                                    r.what, demand);
      const bool last_try = attempt >= cfg_.max_retries;

      // The read completes when its last extent does.
      std::optional<Event> done;
      for (const Extent& e : extents) {
        const double s = cfg_.drive.service_seconds(e.bytes) * f.slow;
        const Event e_done =
            tl_.enqueue(streams_[static_cast<std::size_t>(e.drive)], s,
                        "read:" + r.what);
        done = done ? std::max(*done, e_done) : e_done;
        stats_.read_s += s;
        stats_.read_bytes += e.bytes;
      }
      stats_.reads += 1;

      if (f.action == vgpu::ReadFault::Action::kTransient) {
        if (last_try)
          throw vgpu::IoTransientError(
              drive_name(first_drive), r.what,
              f.detail + " (retry budget exhausted)");
        charge_backoff(first_drive, attempt, r.what);
        continue;
      }
      if (f.action == vgpu::ReadFault::Action::kTimeout) {
        // The hang itself is simulated time on the serving drive.
        stats_.penalty_s += f.timeout_s;
        tl_.enqueue(streams_[static_cast<std::size_t>(first_drive)],
                    f.timeout_s, "timeout:" + r.what);
        if (last_try)
          throw vgpu::IoTimeout(drive_name(first_drive), r.what,
                                f.detail + " (retry budget exhausted)");
        charge_backoff(first_drive, attempt, r.what);
        continue;
      }

      for (const Segment& s : r.segments) std::memcpy(s.dst, s.src, s.bytes);
      if (f.corrupt) [[unlikely]] {
        // Deterministic flip in the delivered bytes: the seed picks the
        // byte and bit across the chunk's segments.
        std::size_t pos = static_cast<std::size_t>(f.seed % demand);
        for (const Segment& s : r.segments) {
          if (pos < s.bytes) {
            s.dst[pos] ^= static_cast<unsigned char>(
                1u << ((f.seed >> 56) % 8));
            break;
          }
          pos -= s.bytes;
        }
      }
      if (checksum_dst(r.segments) != r.checksum) {
        stats_.checksum_failures += 1;
        if (last_try)
          throw vgpu::ChunkChecksumMismatch(
              drive_name(first_drive), r.what,
              "chunk '" + r.what + "' failed its arrival checksum " +
                  std::to_string(1 + attempt) +
                  " time(s); re-read budget exhausted");
        charge_backoff(first_drive, attempt, r.what);
        continue;
      }
      return *done;
    }
  }

  vgpu::StreamTimeline& tl_;
  TierConfig cfg_;
  StripeMapper mapper_;
  std::vector<vgpu::StreamTimeline::StreamId> streams_;
  std::deque<Pending> inflight_;
  prof::IoAgg stats_;
};

}  // namespace acsr::storage
