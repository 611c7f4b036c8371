#include "vgpu/device.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "prof/prof.hpp"
#include "vgpu/memo.hpp"
#include "vgpu/sanitizer.hpp"

namespace acsr::vgpu {

namespace {

/// Convert accumulated counters into the roofline time breakdown.
KernelRun finalize(const LaunchConfig& cfg, const DeviceSpec& spec,
                   const KernelEnv& env) {
  KernelRun run;
  run.name = cfg.name;
  run.counters = env.counters;
  const Counters& c = env.counters;

  const double clock = spec.clock_hz();
  const double sm = static_cast<double>(spec.sm_count);

  // Warp-issue bandwidth: the most loaded SM bounds the kernel.
  double max_sm_cycles = 0.0;
  for (double v : env.sm_issue_cycles) max_sm_cycles = std::max(max_sm_cycles, v);
  run.issue_s = max_sm_cycles / spec.issue_slots_per_sm / clock;

  // Arithmetic throughput.
  const double sp_rate = spec.sp_flops_per_cycle_per_sm * sm * clock;
  const double dp_rate = sp_rate * spec.dp_throughput_ratio;
  run.flop_s = static_cast<double>(c.sp_flops) / sp_rate +
               static_cast<double>(c.dp_flops) / dp_rate;

  // DRAM bandwidth: regular global traffic plus the texture misses.
  const double cache_total =
      static_cast<double>(spec.tex_cache_bytes_per_sm) * sm;
  double miss = spec.tex_max_miss;
  if (env.tex_footprint_bytes > 0) {
    miss = static_cast<double>(env.tex_footprint_bytes) /
           (cache_total * spec.tex_reuse_factor);
    miss = std::clamp(miss, spec.tex_min_miss, spec.tex_max_miss);
  }
  run.dram_bytes = static_cast<double>(c.gmem_bytes) +
                   static_cast<double>(c.tex_bytes) * miss;
  // Under-occupied kernels cannot keep DRAM saturated (Little's law): the
  // achievable bandwidth scales with the warps available to issue requests.
  const double util = std::min(
      1.0, static_cast<double>(c.warps) /
               (sm * spec.saturation_warps_per_sm));
  run.memory_s = run.dram_bytes / (spec.dram_bandwidth_gbs * 1e9 *
                                   spec.dram_efficiency *
                                   std::max(util, 1.0 / 64.0));

  // Latency bound: when the grid is too small to hide the longest warp's
  // dependency chain, that chain is the kernel duration.
  run.latency_s = env.max_warp_latency_cycles / clock;

  // Dynamic-parallelism launch handling: the device runtime enqueues
  // children in parallel across SMXs, but launches beyond the pending
  // limit force memory reservation and serialise.
  if (c.child_launches > 0) {
    run.dp_s = static_cast<double>(c.child_launches) *
               spec.child_launch_overhead_s;
    const auto limit = static_cast<std::uint64_t>(spec.pending_launch_limit);
    if (c.child_launches > limit) {
      run.dp_s += static_cast<double>(c.child_launches - limit) *
                  spec.over_limit_penalty_s;
    }
  }

  run.launch_s = spec.host_launch_overhead_s;
  run.duration_s = run.launch_s + run.bound_s() + run.dp_s;
  return run;
}

}  // namespace

KernelRun Device::launch(const LaunchConfig& cfg, KernelRef fn,
                         SectorSet* group_l2, ValueRef value) {
  ACSR_CHECK_MSG(cfg.grid_dim >= 1, "empty grid for kernel " << cfg.name);
  ACSR_CHECK_MSG(cfg.block_dim >= 1 &&
                     cfg.block_dim <= spec_.max_threads_per_block,
                 "bad block_dim " << cfg.block_dim << " for " << cfg.name);

  // A memo session resolves its key at its run's first launch, once the
  // run has staged its scratch (vgpu/memo.hpp). Every launch it holds
  // needs a value kernel: a replay computes y through nothing else, so a
  // launch without one fails here, at capture, and never mid-replay.
  if (memo_session_ != nullptr) [[unlikely]] {
    if (memo_session_->kind == memo::Session::Kind::kPending)
      memo_session_->resolve();
    ACSR_CHECK_MSG(value, "kernel '" << cfg.name
                                     << "' launched inside a memo session "
                                        "without a value kernel (ValueRef)");
  }

  // Fault hook, before the memo replay branch so a replayed launch
  // consults the injector at the same ordinal and throws the same typed
  // fault as a metered one, and before the sanitizer's begin_launch so a
  // throw here cannot leave an unbalanced sanitizer epoch. Counts only
  // host-side launches: dynamic-parallelism children below are part of
  // this one logical launch.
  if (fault_injection_enabled()) [[unlikely]] {
    if (lost_) fail_lost("launch of '" + cfg.name + "'");
    const LaunchFault f =
        FaultInjector::instance().on_launch(spec_.name, cfg.name, &arena_);
    switch (f.action) {
      case LaunchFault::Action::kTransient:
        throw TransientFault(spec_.name, cfg.name, f.detail);
      case LaunchFault::Action::kLost:
        lost_ = true;
        fail_lost("launch of '" + cfg.name + "'");
      case LaunchFault::Action::kCorruption:
        throw DataCorruption(spec_.name, f.buffer, f.detail);
      case LaunchFault::Action::kNone:
        break;  // no fault, or a silent bit flip already applied
    }
  }

  // Memoized replay (vgpu/memo.hpp): the metering for this launch is
  // cached — compute y through the launch's value kernel and return the
  // cached record. A metered launch never calls `value`. A session is
  // never active while the sanitizer, profiler, reference metering or a
  // byte-flipping fault plan own the run (memo::plane_bypassed()).
  if (memo_session_ != nullptr &&
      memo_session_->kind == memo::Session::Kind::kReplay) [[unlikely]]
    return memo_replay(cfg, value);

  KernelEnv env;
  env.spec = &spec_;
  env.group_l2 = group_l2;
  env.sm_issue_cycles.assign(static_cast<std::size_t>(spec_.sm_count), 0.0);

  // Size each warp's cache share from the grid's occupancy.
  const long long warps_per_block = (cfg.block_dim + 31) / 32;
  const long long grid_warps = cfg.grid_dim * warps_per_block;
  const long long resident = std::min<long long>(
      grid_warps, static_cast<long long>(spec_.sm_count) *
                      spec_.max_resident_warps_per_sm);
  auto pow2_floor_clamped = [](double v, std::size_t lo, std::size_t hi) {
    std::size_t w = lo;
    while (w * 2 <= hi && static_cast<double>(w * 2) <= v) w *= 2;
    return w;
  };
  env.gmem_cache_ways = pow2_floor_clamped(
      static_cast<double>(spec_.l2_bytes) /
          (32.0 * static_cast<double>(std::max<long long>(1, resident))),
      4, 256);
  const long long resident_per_sm = std::min<long long>(
      (grid_warps + spec_.sm_count - 1) / spec_.sm_count,
      spec_.max_resident_warps_per_sm);
  env.tex_cache_ways = pow2_floor_clamped(
      static_cast<double>(spec_.tex_cache_bytes_per_sm) /
          (32.0 *
           static_cast<double>(std::max<long long>(1, resident_per_sm))),
      8, 256);

  // Sanitizer epoch: one racecheck write-set spans the parent grid and all
  // of its dynamic-parallelism descendants (they are one logical launch).
  // The decision is captured once here; Warp reads env.sanitize instead of
  // consulting the singleton per access.
  Sanitizer& san = Sanitizer::instance();
  const bool sanitize = san.enabled();
  env.sanitize = sanitize;
  env.fast_path = !sanitize && !reference_metering();
  if (sanitize) san.begin_launch(cfg.name);

  // Profiler capture. Strictly observational: lane tallies go to a side
  // structure (never into env.counters), and the sample is recorded after
  // finalize() so the KernelRun it stores is the one the caller gets.
  const bool profiling = prof::profiler_enabled();
  prof::LaneCounters lanes;
  std::vector<prof::ChildGrid> child_info;
  std::uint64_t t0_ns = 0;
  if (profiling) [[unlikely]] {
    env.lane_prof = &lanes;
    t0_ns = prof::host_now_ns();
  }

  auto run_grid = [&](const LaunchConfig& gc, const KernelRef& gf) {
    for (long long b = 0; b < gc.grid_dim; ++b) {
      const int sm =
          static_cast<int>(env.next_block_seq++ %
                           static_cast<long long>(spec_.sm_count));
      Block blk(env, b, gc.block_dim, gc.grid_dim, sm);
      gf(blk);
    }
  };

  // Work list of device-side launches enqueued by the parent grid or its
  // descendants. The parent runs directly through the non-owning KernelRef
  // (no KernelFn copy); children are *moved* off pending_children, so each
  // enqueued KernelFn is materialised exactly once (at launch_child).
  std::vector<ChildLaunch> work;
  auto drain_children = [&] {
    if (env.pending_children.empty()) return;
    work.reserve(work.size() + env.pending_children.size());
    for (auto& ch : env.pending_children) work.push_back(std::move(ch));
    env.pending_children.clear();
  };

  if (sanitize) san.begin_grid(0, cfg.name);
  run_grid(cfg, fn);
  drain_children();
  // Index-based loop because execution appends to `work`.
  for (std::size_t wi = 0; wi < work.size(); ++wi) {
    // Move out: executing the grid may reallocate `work`.
    const ChildLaunch item = std::move(work[wi]);
    if (sanitize) san.begin_grid(static_cast<int>(wi) + 1, item.cfg.name);
    ACSR_CHECK_MSG(spec_.supports_dynamic_parallelism(),
                   "device-side launch on " << spec_.name << " (CC < 3.5)");
    env.counters.child_blocks +=
        static_cast<std::uint64_t>(item.cfg.grid_dim);
    if (profiling) [[unlikely]]
      child_info.push_back(
          {item.cfg.name, item.cfg.grid_dim, item.cfg.block_dim});
    run_grid(item.cfg, KernelRef(item.fn));
    drain_children();
  }

  KernelRun run = finalize(cfg, spec_, env);
  if (sanitize)
    run.sanitizer_reports = static_cast<std::uint64_t>(san.end_launch());
  if (profiling) [[unlikely]] {
    std::vector<double> sm_s(env.sm_issue_cycles.size());
    for (std::size_t i = 0; i < sm_s.size(); ++i)
      sm_s[i] = env.sm_issue_cycles[i] / spec_.issue_slots_per_sm /
                spec_.clock_hz();
    prof::Profiler::instance().record_launch(
        spec_.name, run, lanes, std::move(child_info),
        prof::host_now_ns() - t0_ns, std::move(sm_s));
  }
  if (memo_session_ != nullptr) [[unlikely]]
    memo_session_->entry->launches.push_back(
        {cfg.name, cfg.grid_dim, cfg.block_dim, run});
  return run;
}

KernelRun Device::memo_replay(const LaunchConfig& cfg,
                              const ValueRef& value) {
  memo::Session& sess = *memo_session_;
  ACSR_CHECK_MSG(sess.cursor < sess.entry->launches.size(),
                 "memo replay has no record left for kernel '" << cfg.name
                                                               << "'");
  const memo::LaunchRecord& rec = sess.entry->launches[sess.cursor++];
  ACSR_CHECK_MSG(rec.name == cfg.name && rec.grid_dim == cfg.grid_dim &&
                     rec.block_dim == cfg.block_dim,
                 "memo replay mismatch: cached '"
                     << rec.name << "' (" << rec.grid_dim << 'x'
                     << rec.block_dim << ") vs launched '" << cfg.name
                     << "' (" << cfg.grid_dim << 'x' << cfg.block_dim
                     << ')');

  // The launch's host value kernel stores what the grid (children
  // included) stores, in the same floating-point order.
  value();
  return rec.run;
}

}  // namespace acsr::vgpu
