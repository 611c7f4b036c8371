#include "vgpu/memo.hpp"

#include <sstream>

#include "prof/prof.hpp"
#include "vgpu/device.hpp"
#include "vgpu/fault.hpp"
#include "vgpu/sanitizer.hpp"

namespace acsr::vgpu::memo {

bool plane_bypassed() {
  return sanitizer_enabled() || reference_metering() ||
         prof::profiler_enabled() || fault_flips_bytes();
}

std::string spec_fingerprint(const DeviceSpec& s) {
  std::ostringstream os;
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

std::uint64_t next_instance_id() {
  static std::uint64_t n = 0;
  return ++n;
}

MemoCache& MemoCache::instance() {
  static MemoCache cache;
  return cache;
}

MemoEntry* MemoCache::find(const std::string& key) {
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return &it->second;
}

MemoEntry& MemoCache::put(const std::string& key, MemoEntry entry) {
  return map_[key] = std::move(entry);
}

void MemoCache::erase_prefix(const std::string& prefix) {
  for (auto it = map_.begin(); it != map_.end();) {
    if (it->first.compare(0, prefix.size(), prefix) == 0) {
      it = map_.erase(it);
      ++stats_.invalidations;
    } else {
      ++it;
    }
  }
}

void MemoCache::clear() { map_.clear(); }

SessionScope::SessionScope(Device& dev, Session& s)
    : dev_(dev), prev_(dev.memo_session()) {
  dev_.set_memo_session(&s);
}

SessionScope::~SessionScope() { dev_.set_memo_session(prev_); }

bool Memoizer::session_active(const Device& dev) {
  return dev.memo_session() != nullptr;
}

}  // namespace acsr::vgpu::memo
