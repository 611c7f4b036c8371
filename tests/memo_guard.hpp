// Scoped memo-plane state for tests that count memo cache hits and misses.
//
// The memo layer neither captures nor replays while the sanitizer,
// reference metering or the profiler owns kernel execution
// (memo::plane_bypassed), so a memo test run with ACSR_SANITIZE=1,
// ACSR_REFERENCE_METERING=1 or ACSR_PROF=1 in the environment would see
// bypasses where it expects hits. MemoGuard switches those planes off,
// sets the memo plane over a clean cache, and restores every switch it
// touched on scope exit, so a test neither depends on nor leaks the
// process's plane settings.
#pragma once

#include <string>
#include <utility>

#include "prof/prof.hpp"
#include "vgpu/memo.hpp"
#include "vgpu/sanitizer.hpp"
#include "vgpu/warp.hpp"

namespace acsr::test {

class MemoGuard {
 public:
  explicit MemoGuard(bool memo_on = true) {
    vgpu::Sanitizer::instance().set_enabled(false);
    vgpu::set_reference_metering(false);
    prof::set_profiler_enabled(false);
    clear_cache();
    vgpu::memo::set_memo_enabled(memo_on);
  }
  ~MemoGuard() {
    clear_cache();
    vgpu::memo::set_memo_enabled(memo_);
    prof::set_profiler_enabled(profiler_);
    vgpu::set_reference_metering(reference_);
    vgpu::Sanitizer::instance().set_enabled(sanitize_);
  }
  MemoGuard(const MemoGuard&) = delete;
  MemoGuard& operator=(const MemoGuard&) = delete;

 private:
  static void clear_cache() {
    vgpu::memo::MemoCache::instance().clear();
    vgpu::memo::MemoCache::instance().reset_stats();
  }

  const bool sanitize_ = vgpu::sanitizer_enabled();
  const bool reference_ = vgpu::reference_metering();
  const bool profiler_ = prof::profiler_enabled();
  const bool memo_ = vgpu::memo::memo_enabled();
};

/// A Memoizer::run tail that is the same string on every call.
inline auto fixed_tail(std::string s) {
  return [s = std::move(s)] { return s; };
}

}  // namespace acsr::test
