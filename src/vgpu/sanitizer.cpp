#include "vgpu/sanitizer.hpp"

#include <cstdlib>
#include <sstream>

#include "common/check.hpp"

namespace acsr::vgpu {

namespace {

bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

// Keep pathological kernels from flooding memory with findings; the first
// few hundred are plenty to diagnose any defect.
constexpr std::size_t kMaxReports = 1024;
constexpr std::size_t kMaxWritersPerAddr = 8;

// Block::shared() hands out spans above this sentinel; they are not part
// of the global device address space and are never shadow-tracked.
constexpr std::uint64_t kSharedSentinelBase = 0xffff000000000000ULL;

}  // namespace

const char* to_string(SanKind k) {
  switch (k) {
    case SanKind::kOutOfBounds: return "out-of-bounds";
    case SanKind::kUninitRead: return "uninitialized-read";
    case SanKind::kUseAfterFree: return "use-after-free";
    case SanKind::kDoubleFree: return "double-free";
    case SanKind::kBadFree: return "invalid-free";
    case SanKind::kWriteRace: return "write-race";
    case SanKind::kBadSubspan: return "bad-subspan";
  }
  return "unknown";
}

Sanitizer::Sanitizer() {
  enabled_ = env_flag("ACSR_SANITIZE");
  halt_ = env_flag("ACSR_SANITIZE_HALT");
}

Sanitizer& Sanitizer::instance() {
  static Sanitizer s;
  return s;
}

Sanitizer::Buffer* Sanitizer::find(std::uint64_t addr) {
  auto it = buffers_.upper_bound(addr);
  if (it == buffers_.begin()) return nullptr;
  --it;
  Buffer& b = it->second;
  if (addr < b.base || addr >= b.base + b.bytes) return nullptr;
  return &b;
}

const Sanitizer::Buffer* Sanitizer::find(std::uint64_t addr) const {
  return const_cast<Sanitizer*>(this)->find(addr);
}

void Sanitizer::report(SanKind kind, const Buffer* b, std::uint64_t addr,
                       long long block, int warp, int lane,
                       const std::string& detail, bool always_throw) {
  SanReport r;
  r.kind = kind;
  r.buffer = b != nullptr ? b->name : "?";
  r.addr = addr;
  r.kernel = kernel_;
  r.grid = grid_;
  r.block = block;
  r.warp = warp;
  r.lane = lane;

  std::ostringstream os;
  os << "sanitizer: " << to_string(kind) << ": " << detail;
  if (b != nullptr)
    os << " [buffer '" << b->name << "' + " << (addr - b->base) << " of "
       << b->bytes << " B]";
  if (!kernel_.empty()) {
    os << " in kernel '" << kernel_ << "' grid " << grid_;
    if (block >= 0) os << " block " << block << " warp " << warp;
    if (lane >= 0) os << " lane " << lane;
  }
  r.message = os.str();

  if (reports_.size() < kMaxReports) reports_.push_back(r);
  if (halt_ || always_throw) throw SanitizerError(r.message);
}

void Sanitizer::on_alloc(std::uint64_t addr, std::size_t bytes,
                         const std::string& name) {
  if (bytes == 0) return;
  // A rewound arena (MemoryArena::Rewind) hands freed addresses out
  // again: the new buffer replaces the tombstones it overlaps, so an
  // access through it resolves to it. Only freed buffers can be there.
  const auto first = buffers_.lower_bound(addr);
  const auto last = buffers_.lower_bound(addr + bytes);
  for (auto it = first; it != last; ++it)
    ACSR_CHECK_MSG(it->second.freed,
                   "allocation of '" << name << "' overlaps live buffer '"
                                     << it->second.name << "'");
  buffers_.erase(first, last);
  Buffer b;
  b.name = name;
  b.base = addr;
  b.bytes = bytes;
  if (enabled_) b.init.assign(bytes, false);
  buffers_[addr] = std::move(b);
}

bool Sanitizer::on_free(std::uint64_t addr, std::size_t bytes,
                        const std::string& name) {
  if (bytes == 0) return true;
  auto it = buffers_.find(addr);
  if (it == buffers_.end()) {
    if (enabled_) {
      std::ostringstream os;
      os << "free of unallocated address 0x" << std::hex << addr << std::dec
         << " ('" << name << "', " << bytes << " B)";
      report(SanKind::kBadFree, nullptr, addr, -1, -1, -1, os.str());
    }
    return false;
  }
  Buffer& b = it->second;
  if (b.freed) {
    if (enabled_) {
      std::ostringstream os;
      os << "second free of '" << b.name << "' (" << bytes << " B)";
      report(SanKind::kDoubleFree, &b, addr, -1, -1, -1, os.str());
    }
    return false;
  }
  if (enabled_) {
    // Keep a tombstone so stale-span accesses name the buffer.
    b.freed = true;
    b.init.clear();
    b.init.shrink_to_fit();
  } else {
    buffers_.erase(it);
  }
  return true;
}

void Sanitizer::mark_initialized(std::uint64_t addr, std::size_t bytes) {
  if (!enabled_ || bytes == 0) return;
  Buffer* b = find(addr);
  // Buffers allocated before instrumentation started have no shadow and
  // count as fully defined.
  if (b == nullptr || b->freed || b->init.size() != b->bytes) return;
  const std::size_t off = static_cast<std::size_t>(addr - b->base);
  const std::size_t end = std::min(off + bytes, b->bytes);
  for (std::size_t i = off; i < end; ++i) b->init[i] = true;
}

std::string Sanitizer::buffer_name(std::uint64_t addr) const {
  const Buffer* b = find(addr);
  return b != nullptr ? b->name : "?";
}

void Sanitizer::begin_launch(const std::string& name) {
  writes_.clear();
  kernel_ = name;
  grid_ = 0;
  launch_report_base_ = reports_.size();
}

void Sanitizer::begin_grid(int grid_index, const std::string& name) {
  grid_ = grid_index;
  kernel_ = name;
}

std::size_t Sanitizer::end_launch() {
  writes_.clear();
  kernel_.clear();
  grid_ = -1;
  const std::size_t n = reports_.size() - launch_report_base_;
  launch_report_base_ = reports_.size();
  return n;
}

void Sanitizer::check_unmapped(std::uint64_t addr, std::size_t bytes,
                               long long block, int warp, int lane,
                               const char* what) {
  // Every arena allocation is registered, so an address below the
  // shared-memory sentinel that no live or freed allocation contains is a
  // wild access — typically a span whose size or base was miscomputed.
  std::ostringstream os;
  os << what << " of " << bytes << " B at unallocated device address 0x"
     << std::hex << addr << std::dec;
  auto it = buffers_.upper_bound(addr);
  if (it != buffers_.begin()) {
    --it;
    const Buffer& prev = it->second;
    os << " (" << (addr - (prev.base + prev.bytes)) << " B past the end of '"
       << prev.name << "')";
  }
  report(SanKind::kOutOfBounds, nullptr, addr, block, warp, lane, os.str(),
         /*always_throw=*/true);
}

void Sanitizer::note_read(std::uint64_t addr, std::size_t bytes,
                          long long block, int warp, int lane) {
  if (!enabled_) return;
  if (addr >= kSharedSentinelBase) return;  // block-shared memory
  Buffer* b = find(addr);
  if (b == nullptr) {
    check_unmapped(addr, bytes, block, warp, lane, "read");
    return;
  }
  if (addr + bytes > b->base + b->bytes) {
    std::ostringstream os;
    os << "read of " << bytes << " B overruns allocation";
    report(SanKind::kOutOfBounds, b, addr, block, warp, lane, os.str(),
           /*always_throw=*/true);
    return;
  }
  if (b->freed) {
    std::ostringstream os;
    os << "read of " << bytes << " B from freed allocation";
    report(SanKind::kUseAfterFree, b, addr, block, warp, lane, os.str());
    return;
  }
  const std::size_t off = static_cast<std::size_t>(addr - b->base);
  if (b->init.size() != b->bytes) return;  // pre-instrumentation buffer
  for (std::size_t i = 0; i < bytes; ++i) {
    if (!b->init[off + i]) {
      std::ostringstream os;
      os << "read of " << bytes << " B of uninitialized memory";
      report(SanKind::kUninitRead, b, addr, block, warp, lane, os.str());
      // Define the bytes so one defect is reported once, not per access.
      for (std::size_t j = 0; j < bytes; ++j) b->init[off + j] = true;
      return;
    }
  }
}

void Sanitizer::note_write(std::uint64_t addr, std::size_t bytes,
                           long long block, int warp, int lane, bool atomic) {
  if (!enabled_) return;
  if (addr >= kSharedSentinelBase) return;  // block-shared memory
  Buffer* b = find(addr);
  if (b == nullptr) {
    check_unmapped(addr, bytes, block, warp, lane, "write");
    return;
  }
  if (addr + bytes > b->base + b->bytes) {
    std::ostringstream os;
    os << "write of " << bytes << " B overruns allocation";
    report(SanKind::kOutOfBounds, b, addr, block, warp, lane, os.str(),
           /*always_throw=*/true);
    return;
  }
  if (b->freed) {
    std::ostringstream os;
    os << "write of " << bytes << " B to freed allocation";
    report(SanKind::kUseAfterFree, b, addr, block, warp, lane, os.str());
    return;
  }
  const std::size_t off = static_cast<std::size_t>(addr - b->base);
  if (b->init.size() == b->bytes)
    for (std::size_t i = 0; i < bytes; ++i) b->init[off + i] = true;

  // Racecheck: compare against the launch's previous writers of this
  // address. Ordered pairs that are never hazards:
  //   * the same thread writing twice (program order);
  //   * two atomics (the hardware serialises them);
  //   * a parent-grid (grid 0) write vs any child-grid access — CUDA
  //     guarantees a child grid sees its parent's prior writes, which is
  //     the ordering ACSR's Algorithm 3 relies on (clear y[row], then
  //     launch the row child that atomically accumulates into it).
  // Writes from two *different* child grids are concurrent and do race.
  Writer me{grid_, block, warp, lane, atomic};
  auto& ws = writes_[addr];
  bool known = false;
  for (const Writer& w : ws) {
    if (w.same_thread(me)) {
      known = known || w.atomic == atomic;
      continue;
    }
    if (w.atomic && atomic) continue;
    if (w.grid != me.grid && (w.grid == 0 || me.grid == 0)) continue;
    std::ostringstream os;
    os << (atomic ? "atomic " : "plain ") << bytes
       << " B write conflicts with prior " << (w.atomic ? "atomic" : "plain")
       << " write by grid " << w.grid << " block " << w.block << " warp "
       << w.warp << " lane " << w.lane;
    report(SanKind::kWriteRace, b, addr, block, warp, lane, os.str());
    return;  // one finding per access is enough
  }
  if (!known && ws.size() < kMaxWritersPerAddr) ws.push_back(me);
}

void Sanitizer::check_subspan(std::uint64_t addr, std::size_t bytes) {
  if (!enabled_ || bytes == 0) return;
  Buffer* b = find(addr);
  if (b == nullptr) return;
  if (b->freed) {
    std::ostringstream os;
    os << "subspan of " << bytes << " B into freed allocation";
    report(SanKind::kUseAfterFree, b, addr, -1, -1, -1, os.str());
    return;
  }
  if (addr + bytes > b->base + b->bytes) {
    std::ostringstream os;
    os << "subspan of " << bytes << " B escapes allocation";
    report(SanKind::kBadSubspan, b, addr, -1, -1, -1, os.str(),
           /*always_throw=*/true);
  }
}

std::size_t Sanitizer::count(SanKind k) const {
  std::size_t n = 0;
  for (const auto& r : reports_)
    if (r.kind == k) ++n;
  return n;
}

void Sanitizer::clear() {
  reports_.clear();
  writes_.clear();
  launch_report_base_ = 0;
  for (auto it = buffers_.begin(); it != buffers_.end();) {
    if (it->second.freed)
      it = buffers_.erase(it);
    else
      ++it;  // live buffers keep their (possibly initialized) shadow
  }
}

}  // namespace acsr::vgpu
