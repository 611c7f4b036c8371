// Simulated device memory.
//
// A DeviceBuffer<T> is backed by host storage (so functional execution is
// just array access) but carries a *device virtual address* assigned by the
// owning arena. The address is what the coalescing model uses to count
// 128-byte transactions, and the arena enforces the device's capacity so
// the paper's Ø (out-of-memory) table entries reproduce.
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "vgpu/fault.hpp"
#include "vgpu/sanitizer.hpp"

namespace acsr::vgpu {

/// Thrown when an allocation exceeds the simulated device capacity.
/// Benches catch this to print the paper's Ø entries.
class DeviceOom : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Non-owning view of device memory; the unit kernels read and write.
template <class T>
class DeviceSpan {
 public:
  DeviceSpan() = default;
  DeviceSpan(T* data, std::size_t size, std::uint64_t addr)
      : data_(data), size_(size), addr_(addr) {}

  // Converting constructor DeviceSpan<T> -> DeviceSpan<const T>.
  template <class U>
    requires(std::is_same_v<const U, T>)
  DeviceSpan(const DeviceSpan<U>& o)  // NOLINT(google-explicit-constructor)
      : data_(o.data()), size_(o.size()), addr_(o.addr()) {}

  T& operator[](std::size_t i) const {
    // Failure path outlined (cold, noinline): keeps every indexing site —
    // the executor's per-lane gather loops above all — down to a compare
    // and a never-taken branch, with no diagnostic-formatting code inflating
    // the hot loop.
    if (i >= size_) [[unlikely]]
      fail_out_of_bounds(static_cast<long long>(i), static_cast<long long>(i));
    return data_[i];
  }

  /// One-shot bounds validation for a gather touching elements lo..hi
  /// (inclusive, lo <= hi): the fast path's replacement for 32 per-element
  /// operator[] checks, with the same failure mode (an InvariantError
  /// naming the buffer). Per-element checks — and the sanitizer's per-byte
  /// shadow validation — remain on the instrumented path under
  /// ACSR_SANITIZE.
  void check_range(long long lo, long long hi) const {
    if (lo < 0 || static_cast<std::uint64_t>(hi) >= size_) [[unlikely]]
      fail_out_of_bounds(lo, hi);
  }

  /// check_range(lo, hi), then the raw base pointer, for a loop that
  /// reads only elements lo..hi: one validation in place of an operator[]
  /// check per element, with the same failure mode. The exact-order host
  /// value kernels (spmv/csr_vector.hpp) read each row's col/val range
  /// this way.
  T* checked_base(long long lo, long long hi) const {
    check_range(lo, hi);
    return data_;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T* data() const { return data_; }
  std::uint64_t addr() const { return addr_; }
  std::uint64_t addr_of(std::size_t i) const {
    return addr_ + i * sizeof(T);
  }

  DeviceSpan subspan(std::size_t offset, std::size_t count) const {
    ACSR_CHECK_MSG(offset <= size_ && count <= size_ - offset,
                   "subspan [" << offset << ", " << offset + count
                               << ") escapes span of " << size_
                               << " (buffer '"
                               << Sanitizer::instance().buffer_name(addr_)
                               << "')");
    // Under the sanitizer, also validate against the shadow state: the
    // sub-range must still lie inside a *live* allocation (catches
    // subspans taken through spans that outlived their buffer).
    if (sanitizer_enabled())
      Sanitizer::instance().check_subspan(addr_ + offset * sizeof(T),
                                          count * sizeof(T));
    return DeviceSpan(data_ + offset, count, addr_ + offset * sizeof(T));
  }

 private:
  [[noreturn]] [[gnu::cold]] [[gnu::noinline]] void fail_out_of_bounds(
      long long lo, long long hi) const {
    std::ostringstream os;
    os << "device access out of bounds: ";
    if (lo == hi)
      os << lo << " >= " << size_;
    else
      os << "[" << lo << ", " << hi << "] outside span of " << size_;
    os << " (buffer '" << Sanitizer::instance().buffer_name(addr_) << "')";
    ::acsr::detail::throw_invariant("device index within span", __FILE__,
                                    __LINE__, os.str());
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::uint64_t addr_ = 0;
};

/// A span over host data with no device address (elements offset ..
/// offset + count of v, all of v by default): lets an engine's host
/// `apply` run the same checked span code as its replayed launches. Not a
/// sanitizer allocation, so take sub-ranges here rather than by subspan.
template <class T>
DeviceSpan<const T> host_span(const std::vector<T>& v,
                              std::size_t offset = 0,
                              std::size_t count = SIZE_MAX) {
  ACSR_CHECK(offset <= v.size());
  return DeviceSpan<const T>(v.data() + offset,
                             std::min(count, v.size() - offset), 0);
}
template <class T>
DeviceSpan<T> host_span(std::vector<T>& v) {
  return DeviceSpan<T>(v.data(), v.size(), 0);
}

/// Capacity accounting + virtual address assignment for one device.
///
/// Every arena owns a process-unique slice of the virtual address space
/// (2^44 bytes = 16 TiB apart), so buffer addresses never collide across
/// devices or across arenas created by successive tests. This is what
/// lets the sanitizer keep one global shadow registry, and it mirrors real
/// unified virtual addressing, where each device's allocations are
/// disjoint. Addresses are handed out by a bump cursor; two arenas with
/// the same allocation history place corresponding buffers at the same
/// offset() from their bases, so their addresses differ by a multiple of
/// 2^44 — which the metering cannot tell apart (docs/PERF.md, "Memo keyed
/// by what metering depends on").
class MemoryArena {
 public:
  explicit MemoryArena(std::size_t capacity_bytes)
      : capacity_(capacity_bytes),
        base_(take_address_slice()),
        next_addr_(base_) {}

  /// Scoped mark and rewind of the address cursor: every pass through
  /// the scope allocates from the same address, so a per-call working
  /// set (the out-of-core slab sets) lands at the same addresses on every
  /// call. The scope must free what it allocated before it ends:
  /// rewinding over a live allocation is an InvariantError. A scope left
  /// by an exception rewinds too — an unwinding retry starts from the
  /// same mark — unless an allocation is still live, when the cursor
  /// stays put. Rewinds do not nest.
  class Rewind {
   public:
    explicit Rewind(MemoryArena& arena) : arena_(arena) {
      ACSR_CHECK_MSG(arena.mark_ == kNoMark, "arena rewinds do not nest");
      arena.mark_ = arena.next_addr_;
      arena.live_above_mark_ = 0;
    }
    ~Rewind() noexcept(false) {
      const std::uint64_t mark = arena_.mark_;
      const std::size_t live = arena_.live_above_mark_;
      arena_.mark_ = kNoMark;
      if (live == 0) {
        arena_.next_addr_ = mark;
        return;
      }
      if (std::uncaught_exceptions() == 0)
        ACSR_CHECK_MSG(false, "arena rewind over " << live
                                                   << " live bytes on device '"
                                                   << arena_.owner_ << "'");
    }
    Rewind(const Rewind&) = delete;
    Rewind& operator=(const Rewind&) = delete;

   private:
    MemoryArena& arena_;
  };

  /// Bytes an allocation of `bytes` takes from the arena: allocations
  /// are carved in 256-byte granules.
  static std::size_t footprint(std::size_t bytes) {
    return (bytes + 255) & ~std::size_t{255};
  }

  std::uint64_t allocate(std::size_t bytes, const std::string& what) {
    const std::size_t aligned = footprint(bytes);
    if (fault_injection_enabled() &&
        FaultInjector::instance().on_alloc(owner_, what, bytes)) [[unlikely]] {
      throw DeviceOom("injected device out of memory allocating " +
                      std::to_string(bytes) + " B for '" + what +
                      "' on device '" + owner_ + "'");
    }
    if (allocated_ + aligned > capacity_) {
      throw DeviceOom("device out of memory allocating " +
                      std::to_string(bytes) + " B for '" + what +
                      "' (in use " + std::to_string(allocated_) + " of " +
                      std::to_string(capacity_) + " B)");
    }
    allocated_ += aligned;
    if (mark_ != kNoMark) live_above_mark_ += aligned;
    const std::uint64_t addr = next_addr_;
    next_addr_ += aligned;
    // Register with the sanitizer's allocation registry (always on: it is
    // what lets span diagnostics name the buffer; per-byte shadow state is
    // only materialised when the sanitizer is enabled).
    Sanitizer::instance().on_alloc(addr, bytes, what);
    return addr;
  }

  void release(std::size_t bytes) {
    const std::size_t aligned = footprint(bytes);
    ACSR_CHECK(aligned <= allocated_);
    allocated_ -= aligned;
  }

  /// Address-aware release: feeds the sanitizer's shadow state (catching
  /// double/invalid frees) and only adjusts the capacity accounting for
  /// frees of live allocations, so a reported double-free cannot corrupt
  /// the arena.
  void release(std::uint64_t addr, std::size_t bytes,
               const std::string& what) {
    if (bytes > 0 && !Sanitizer::instance().on_free(addr, bytes, what))
      return;
    release(bytes);
    if (addr >= mark_) live_above_mark_ -= footprint(bytes);
  }

  std::size_t allocated() const { return allocated_; }
  /// Where the next allocation lands, relative to the arena's base.
  std::uint64_t offset() const { return next_addr_ - base_; }
  /// A device address of this arena, relative to its base.
  std::uint64_t relative(std::uint64_t addr) const { return addr - base_; }
  std::size_t capacity() const { return capacity_; }
  void set_capacity(std::size_t bytes) { capacity_ = bytes; }

  /// Name of the owning device, used for fault-event attribution. Bare
  /// arenas (tests) keep the "?" default; Device sets its spec name.
  void set_owner(std::string name) { owner_ = std::move(name); }
  const std::string& owner() const { return owner_; }

 private:
  // Start away from zero so address 0 never aliases a real buffer, and
  // 2^44 bytes (16 TiB) apart per arena so addresses are process-unique.
  static std::uint64_t take_address_slice() {
    static std::uint64_t next_slice = 0;
    return 0x10000 + 0x100000000000ULL * next_slice++;
  }

  static constexpr std::uint64_t kNoMark = ~std::uint64_t{0};

  std::size_t capacity_;
  std::size_t allocated_ = 0;
  std::uint64_t base_;
  std::uint64_t next_addr_;
  std::uint64_t mark_ = kNoMark;      ///< the active Rewind's cursor
  std::size_t live_above_mark_ = 0;  ///< live bytes allocated since it
  std::string owner_ = "?";
};

/// Owning device allocation. Movable, not copyable (R.20-style ownership).
template <class T>
class DeviceBuffer {
 public:
  DeviceBuffer() = default;

  DeviceBuffer(MemoryArena& arena, std::size_t n, std::string name)
      : arena_(&arena),
        name_(std::move(name)),
        addr_(arena.allocate(n * sizeof(T), name_)),
        data_(n) {
    // Register the backing bytes as an ECC/corruption flip target. The
    // fault_registered_ flag — not the global — gates unregistration, so a
    // buffer outliving a FaultInjector::disable() still cleans up and a
    // buffer created while disabled never leaves a dangling registry entry.
    if (fault_injection_enabled() && !data_.empty()) {
      FaultInjector::instance().register_buffer(addr_, data_.data(), bytes(),
                                                name_, arena_);
      fault_registered_ = true;
    }
  }

  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;

  DeviceBuffer(DeviceBuffer&& o) noexcept { *this = std::move(o); }
  DeviceBuffer& operator=(DeviceBuffer&& o) noexcept {
    if (this != &o) {
      release();
      arena_ = o.arena_;
      name_ = std::move(o.name_);
      addr_ = o.addr_;
      data_ = std::move(o.data_);  // heap block moves with it: the registered
                                   // data pointer stays valid
      fault_registered_ = o.fault_registered_;
      o.arena_ = nullptr;
      o.fault_registered_ = false;
    }
    return *this;
  }

  ~DeviceBuffer() { release(); }

  std::size_t size() const { return data_.size(); }
  bool valid() const { return arena_ != nullptr; }
  std::size_t bytes() const { return data_.size() * sizeof(T); }

  DeviceSpan<T> span() {
    return DeviceSpan<T>(data_.data(), data_.size(), addr_);
  }
  DeviceSpan<const T> cspan() const {
    return DeviceSpan<const T>(data_.data(), data_.size(), addr_);
  }

  /// Host-side access (represents data already resident on the device;
  /// transfers are charged separately through Device::upload/download).
  /// Mutable access conservatively marks the whole buffer defined in the
  /// sanitizer's shadow — host fills (uploads) initialize device memory.
  std::vector<T>& host() {
    if (sanitizer_enabled())
      Sanitizer::instance().mark_initialized(addr_, bytes());
    return data_;
  }
  const std::vector<T>& host() const { return data_; }

 private:
  void release() {
    if (arena_ != nullptr) {
      if (fault_registered_) {
        FaultInjector::instance().unregister_buffer(addr_);
        fault_registered_ = false;
      }
      arena_->release(addr_, data_.size() * sizeof(T), name_);
      arena_ = nullptr;
    }
  }

  MemoryArena* arena_ = nullptr;
  std::string name_;
  std::uint64_t addr_ = 0;
  std::vector<T> data_;
  bool fault_registered_ = false;
};

}  // namespace acsr::vgpu
