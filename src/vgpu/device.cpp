#include "vgpu/device.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <condition_variable>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "common/check.hpp"
#include "prof/prof.hpp"
#include "vgpu/memo.hpp"
#include "vgpu/sanitizer.hpp"

namespace acsr::vgpu {

namespace {

BlockParallelism default_block_parallelism() {
  BlockParallelism p;
  p.threads = static_cast<int>(std::clamp(
      std::thread::hardware_concurrency(), 1u,
      static_cast<unsigned>(ScopedBlockParallelism::kMaxBlockWorkers)));
  return p;
}

BlockParallelism g_block_parallelism = default_block_parallelism();
std::atomic<std::uint64_t> g_parallel_launches{0};
std::atomic<std::uint64_t> g_pooled_value_kernels{0};

/// One worker's private metering state, kept across launches: its Counters,
/// per-SM issue cycles, sector-tag arrays and shared-memory arena (all in
/// `env`), the group-L2 sectors its warps missed, and the first block it
/// saw throw.
struct Shard {
  KernelEnv env;
  SectorSet l2;
  long long failed_block = -1;
  std::exception_ptr error;

  /// Ready for a launch whose own env is `launch`: empty counters and
  /// group set, the launch's cache shares, deferred group charges.
  void reset(const KernelEnv& launch) {
    env.spec = launch.spec;
    env.counters = {};
    env.sm_issue_cycles.assign(launch.sm_issue_cycles.size(), 0.0);
    env.max_warp_latency_cycles = 0.0;
    env.tex_footprint_bytes = 0;
    env.gmem_cache_ways = launch.gmem_cache_ways;
    env.tex_cache_ways = launch.tex_cache_ways;
    env.sanitize = false;
    env.fast_path = true;
    env.lane_prof = nullptr;
    env.independent = launch.independent;
    l2.clear();
    env.group_l2 = launch.group_l2 != nullptr ? &l2 : nullptr;
    env.group_deferred = true;
    failed_block = -1;
    error = nullptr;
  }
};

/// The persistent host pool that runs block-independent grids and
/// row-parallel value kernels (run_chunks). run(n, job) calls job(0) on
/// the calling thread and offers job(w), 0 < w < n, to pool threads,
/// started on first use and joined when the process exits. A pool thread
/// that wakes after the caller's job(0) has returned does not run it and
/// is not waited for: a sleeping thread's wake-up stays off the critical
/// path, so every job must be able to finish the run's work alone (a claim
/// loop does). run returns once every worker that ran job has returned,
/// with the set of them. One launch or value kernel holds the pool (and
/// its shards) at a time: one that finds it held — by another host thread
/// — runs in order instead.
class BlockPool {
 public:
  using Job = void (*)(void* ctx, int worker);

  static BlockPool& instance() {
    static BlockPool pool;
    return pool;
  }

  ~BlockPool() {
    {
      const std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    start_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  Shard& shard(int worker) {
    return *shards_[static_cast<std::size_t>(worker)];
  }

  bool try_acquire() {
    return !busy_.exchange(true, std::memory_order_acquire);
  }
  void release() { busy_.store(false, std::memory_order_release); }

  /// Needs the pool held (try_acquire). Returns the workers that ran
  /// job, bit w for worker w (bit 0 always set).
  std::uint32_t run(int n, Job job, void* ctx) {
    while (static_cast<int>(shards_.size()) < n)
      shards_.push_back(std::make_unique<Shard>());
    {
      const std::lock_guard<std::mutex> lk(mu_);
      while (static_cast<int>(threads_.size()) < n - 1) {
        const int id = static_cast<int>(threads_.size()) + 1;
        threads_.emplace_back([this, id] { work(id); });
      }
      job_ = job;
      ctx_ = ctx;
      active_ = n;
      open_ = true;
      joined_ = 1;
      ++generation_;
    }
    start_cv_.notify_all();
    job(ctx, 0);
    std::unique_lock<std::mutex> lk(mu_);
    open_ = false;
    done_cv_.wait(lk, [this] { return running_ == 0; });
    return joined_;
  }

 private:
  BlockPool() = default;

  void work(int id) {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      start_cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      if (id >= active_ || !open_) continue;
      ++running_;
      joined_ |= 1u << id;
      const Job job = job_;
      void* const ctx = ctx_;
      lk.unlock();
      job(ctx, id);
      lk.lock();
      if (--running_ == 0) done_cv_.notify_one();
    }
  }

  std::atomic<bool> busy_{false};
  std::vector<std::unique_ptr<Shard>> shards_;  // touched only while held
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> threads_;
  std::uint64_t generation_ = 0;
  Job job_ = nullptr;
  void* ctx_ = nullptr;
  int active_ = 0;
  int running_ = 0;          // workers inside this generation's job
  std::uint32_t joined_ = 0;  // workers that ran it, bit per worker
  bool open_ = false;        // pool threads may still join
  bool stop_ = false;
};

/// The pool's claim loop, shared by grids and value kernels: each worker
/// takes `grain` consecutive items at a time from an atomic cursor and
/// runs them in order. An item that throws is recorded in the worker's
/// shard with its index, and no worker takes a run that starts past the
/// lowest index recorded so far.
struct Claims {
  long long n;
  long long grain;
  std::atomic<long long> cursor{0};
  std::atomic<long long> failed{std::numeric_limits<long long>::max()};

  template <class Item>
  void run(Shard& s, const Item& item) {
    for (;;) {
      const long long i0 = cursor.fetch_add(grain, std::memory_order_relaxed);
      // Items past one that threw need not run: its exception wins.
      if (i0 >= n || i0 > failed.load(std::memory_order_relaxed)) return;
      for (long long i = i0; i < std::min(n, i0 + grain); ++i) {
        try {
          item(i);
        } catch (...) {
          s.error = std::current_exception();
          s.failed_block = i;
          long long cur = failed.load(std::memory_order_relaxed);
          while (i < cur && !failed.compare_exchange_weak(cur, i)) {
          }
          return;
        }
      }
    }
  }
};

/// After a pooled run: rethrows the exception of the lowest-numbered item
/// that threw among the `joined` workers' shards — the one an in-order run
/// would have thrown, since every lower item did run.
void rethrow_first_error(BlockPool& pool, std::uint32_t joined) {
  const Shard* first_error = nullptr;
  for (std::uint32_t m = joined; m != 0; m &= m - 1) {
    const Shard& s = pool.shard(std::countr_zero(m));
    if (s.error && (first_error == nullptr ||
                    s.failed_block < first_error->failed_block))
      first_error = &s;
  }
  if (first_error != nullptr) std::rethrow_exception(first_error->error);
}

/// Holds the pool for a scope (BlockPool::try_acquire succeeded).
struct PoolHold {
  BlockPool& pool;
  ~PoolHold() { pool.release(); }
};

/// Runs the grid of a blocks_independent launch on `workers` pool workers
/// and merges their shards into `env`: exactly what running its blocks in
/// order into `env` leaves there (docs/PERF.md, "Block-parallel
/// metering"). Block b runs on SM b % sm_count, as in order. A throwing
/// block's exception is rethrown — the lowest-numbered one's, the one an
/// in-order run would have thrown. False, with nothing run, when the pool
/// is busy.
bool run_blocks_parallel(int workers, const LaunchConfig& cfg,
                         const KernelRef& fn, KernelEnv& env) {
  BlockPool& pool = BlockPool::instance();
  if (!pool.try_acquire()) return false;
  const PoolHold held{pool};
  struct Ctx {
    BlockPool* pool;
    const LaunchConfig* cfg;
    const KernelRef* fn;
    const KernelEnv* env;
    Claims claims;
  } ctx{&pool, &cfg, &fn, &env,
        {cfg.grid_dim,
         std::max<long long>(1, cfg.grid_dim / (8LL * workers))}};
  const auto job = [](void* p, int w) {
    Ctx& c = *static_cast<Ctx*>(p);
    Shard& s = c.pool->shard(w);
    s.reset(*c.env);
    const long long grid = c.cfg->grid_dim;
    const auto sm_count = static_cast<long long>(c.env->sm_issue_cycles.size());
    c.claims.run(s, [&](long long b) {
      Block blk(s.env, b, c.cfg->block_dim, grid,
                static_cast<int>(b % sm_count));
      (*c.fn)(blk);
    });
  };
  const std::uint32_t joined = pool.run(workers, job, &ctx);
  g_parallel_launches.fetch_add(1, std::memory_order_relaxed);
  rethrow_first_error(pool, joined);

  // Worker order. Counters are integer sums; per-SM issue cycles are
  // integers below 2^53 held in doubles, so their sums are exact in any
  // order; the latency and footprint are maxima. A warp's group-L2 misses
  // do not depend on which warps ran before it (each starts with an empty
  // sector cache), and the launch's DRAM sectors are the distinct ones new
  // to the group's set: the sectors each shard adds on merge.
  for (std::uint32_t m = joined; m != 0; m &= m - 1) {
    const Shard& shard = pool.shard(std::countr_zero(m));
    const KernelEnv& se = shard.env;
    env.counters += se.counters;
    for (std::size_t i = 0; i < env.sm_issue_cycles.size(); ++i)
      env.sm_issue_cycles[i] += se.sm_issue_cycles[i];
    env.max_warp_latency_cycles =
        std::max(env.max_warp_latency_cycles, se.max_warp_latency_cycles);
    env.tex_footprint_bytes =
        std::max(env.tex_footprint_bytes, se.tex_footprint_bytes);
    if (env.group_l2 != nullptr) {
      const auto fresh =
          static_cast<std::uint64_t>(env.group_l2->merge(shard.l2));
      env.counters.gmem_transactions += fresh;
      env.counters.gmem_bytes += fresh * 32;  // 32 B sectors
    }
  }
  return true;
}

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

std::uint64_t block_parallel_launches() {
  return g_parallel_launches.load(std::memory_order_relaxed);
}

std::uint64_t pooled_value_kernels() {
  return g_pooled_value_kernels.load(std::memory_order_relaxed);
}

ScopedBlockParallelism::ScopedBlockParallelism(int threads,
                                               long long min_blocks_per_worker,
                                               long long min_nnz_per_worker)
    : saved_(g_block_parallelism) {
  ACSR_CHECK(threads >= 1 && threads <= kMaxBlockWorkers);
  ACSR_CHECK(min_blocks_per_worker >= 1);
  ACSR_CHECK(min_nnz_per_worker >= 1);
  g_block_parallelism = {threads, min_blocks_per_worker, min_nnz_per_worker};
}

ScopedBlockParallelism::~ScopedBlockParallelism() {
  g_block_parallelism = saved_;
}

int value_kernel_workers(long long work) {
  const BlockParallelism par = g_block_parallelism;
  if (par.threads < 2 || sanitizer_enabled()) return 1;
  return static_cast<int>(std::min<long long>(
      par.threads, std::max<long long>(1, work / par.min_nnz_per_worker)));
}

void run_chunks(int workers, long long n_chunks, ChunkRef chunk) {
  BlockPool& pool = BlockPool::instance();
  if (workers < 2 || n_chunks < 2 || !pool.try_acquire()) {
    for (long long c = 0; c < n_chunks; ++c) chunk(c);
    return;
  }
  const PoolHold held{pool};
  struct Ctx {
    BlockPool* pool;
    const ChunkRef* chunk;
    Claims claims;
  } ctx{&pool, &chunk, {n_chunks, 1}};
  const auto job = [](void* p, int w) {
    Ctx& c = *static_cast<Ctx*>(p);
    Shard& s = c.pool->shard(w);
    s.error = nullptr;
    s.failed_block = -1;
    c.claims.run(s, *c.chunk);
  };
  workers = static_cast<int>(std::min<long long>(workers, n_chunks));
  const std::uint32_t joined = pool.run(workers, job, &ctx);
  g_pooled_value_kernels.fetch_add(1, std::memory_order_relaxed);
  rethrow_first_error(pool, joined);
}

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
  if (cfg.blocks_independent) env.independent = &cfg.name;
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

  // A blocks_independent grid may run on the host pool. The sanitizer,
  // the profiler and reference metering keep every launch in order, so
  // they stay independent oracles of the merge.
  if (sanitize) san.begin_grid(0, cfg.name);
  const BlockParallelism par = g_block_parallelism;
  const bool parallel =
      cfg.blocks_independent && env.fast_path && !profiling &&
      par.threads > 1 &&
      cfg.grid_dim >= par.min_blocks_per_worker * par.threads &&
      run_blocks_parallel(par.threads, cfg, fn, env);
  if (!parallel) run_grid(cfg, fn);
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
