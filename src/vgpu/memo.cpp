#include "vgpu/memo.hpp"

#include <iterator>
#include <limits>
#include <sstream>

#include "common/fields.hpp"
#include "prof/prof.hpp"
#include "vgpu/device.hpp"
#include "vgpu/fault.hpp"
#include "vgpu/sanitizer.hpp"

namespace acsr::vgpu::memo {

bool plane_bypassed() {
  return sanitizer_enabled() || reference_metering() ||
         prof::profiler_enabled() || fault_flips_bytes();
}

std::ostringstream key_stream() {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  return os;
}

static_assert(field_count<DeviceSpec>() == 33,
              "print a new DeviceSpec field in spec_fingerprint");

std::string spec_fingerprint(const DeviceSpec& s) {
  std::ostringstream os = key_stream();
  os << s.name << '/' << s.compute_major << '.' << s.compute_minor << '/'
     << s.sm_count << 'x' << s.cores_per_sm << '@' << s.clock_ghz << '/'
     << s.dram_bandwidth_gbs << ',' << s.pcie_bandwidth_gbs << ','
     << s.global_mem_bytes << ',' << s.l2_bytes << '/' << s.warp_size << ','
     << s.max_threads_per_block << ',' << s.max_resident_warps_per_sm << ','
     << s.shared_mem_per_block_bytes << '/' << s.issue_slots_per_sm << ','
     << s.sp_flops_per_cycle_per_sm << ',' << s.dp_throughput_ratio << '/'
     << s.tex_cache_bytes_per_sm << ',' << s.tex_reuse_factor << ','
     << s.tex_min_miss << ',' << s.tex_max_miss << '/'
     << s.gmem_latency_cycles << ',' << s.mem_pipeline_cycles << ','
     << s.alu_latency_cycles << '/' << s.host_launch_overhead_s << ','
     << s.child_launch_overhead_s << ',' << s.pending_launch_limit << ','
     << s.over_limit_penalty_s << ',' << s.async_launch_gap_s << ','
     << s.transfer_setup_s << ',' << s.multi_gpu_sync_s << '/'
     << s.dram_efficiency << ',' << s.saturation_warps_per_sm;
  return os.str();
}

MemoCache& MemoCache::instance() {
  static MemoCache cache;
  return cache;
}

std::shared_ptr<MemoEntry> MemoCache::find(const std::string& key) {
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->entry;
}

void MemoCache::put(const std::string& key, MemoEntry entry) {
  if (auto it = map_.find(key); it != map_.end()) erase(it->second);
  const std::size_t bytes = entry_bytes(key, entry);
  lru_.push_front(
      {key, std::make_shared<MemoEntry>(std::move(entry)), bytes});
  map_.emplace(key, lru_.begin());
  bytes_ += bytes;
  while (bytes_ > kMaxBytes && lru_.size() > 1) {
    erase(std::prev(lru_.end()));
    ++stats_.evictions;
  }
}

void MemoCache::erase(Lru::iterator it) {
  bytes_ -= it->bytes;
  map_.erase(it->key);
  lru_.erase(it);
}

void MemoCache::clear() {
  map_.clear();
  lru_.clear();
  bytes_ = 0;
}

std::size_t MemoCache::entry_bytes(const std::string& key,
                                   const MemoEntry& entry) {
  std::size_t n = sizeof(Slot) + 2 * key.size();  // the slot and map keys
  for (const LaunchRecord& r : entry.launches)
    n += sizeof(LaunchRecord) + r.name.size();
  return n;
}

SessionScope::SessionScope(Device& dev, Session& s)
    : dev_(dev), prev_(dev.memo_session()) {
  dev_.set_memo_session(&s);
}

SessionScope::~SessionScope() { dev_.set_memo_session(prev_); }

std::string Memoizer::key(const std::string& tail) const {
  return recipe_ + "|" + tail;
}

bool Memoizer::session_active(const Device& dev) {
  return dev.memo_session() != nullptr;
}

}  // namespace acsr::vgpu::memo
