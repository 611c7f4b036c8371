#include "analysis/charge_models.hpp"

#include "common/check.hpp"
#include "core/engine_registry.hpp"

namespace acsr::analysis {
namespace {

// ---------------------------------------------------------------------
// In-core engine models. Every in-core engine runs its launch sequence
// on the device's single compute queue (Device::launch_warps charges the
// caller synchronously), so the model is one stream plus the engine's
// kernel-launch list. The lists mirror each engine's simulate():
// zero_y precedes any kernel that accumulates into y instead of
// overwriting it (coo, bccoo, tcoo, merge-csr).
// ---------------------------------------------------------------------

void charge_kernels(ChargeGraph& g, const std::vector<std::string>& kernels) {
  const auto compute = g.stream("compute");
  for (const std::string& k : kernels) {
    g.declare_work(k, "kernel " + k);
    g.charge(compute, k);
  }
}

std::vector<std::string> in_core_kernels(const std::string& canon,
                                         const vgpu::DeviceSpec& spec) {
  if (canon == "csr-scalar") return {"csr_scalar"};
  if (canon == "csr-vector" || canon == "csr") return {"csr_vector"};
  if (canon == "ell") return {"ell"};
  if (canon == "coo") return {"zero_y", "coo_segmented"};
  if (canon == "hyb") return {"hyb_ell", "hyb_coo"};
  if (canon == "brc") return {"brc"};
  if (canon == "bccoo") return {"zero_y", "bccoo"};
  if (canon == "tcoo") return {"zero_y", "tcoo_tiles"};
  if (canon == "sic") return {"sic"};
  if (canon == "merge-csr") return {"zero_y", "merge_csr"};
  if (canon == "sell") return {"sell"};
  if (canon == "bcsr") return {"bcsr"};
  if (canon == "acsr" || canon == "acsr-binning") {
    // Binned execution: one launch per non-empty row bin. The DP tail
    // (acsr only, DP-capable devices) adds a parent launch whose child
    // grids are charged as part of the parent's run — one charge, not
    // one per child (vgpu meters children inside the parent's KernelRun).
    std::vector<std::string> ks = {"bin0", "bin1", "bin2"};
    if (canon == "acsr" && spec.supports_dynamic_parallelism())
      ks.push_back("dp_parent");
    return ks;
  }
  return {};
}

// ---------------------------------------------------------------------
// ooc-csr: the one engine with a private StreamTimeline. Mirrors
// core/ooc_engine.hpp simulate() with n slabs: drive reads prefetched
// through the storage tier, slab uploads on h2d, bin compute on compute,
// and the double-buffer reuse fence wait(h2d, comp[i-2]).
// ---------------------------------------------------------------------

void model_ooc(ChargeGraph& g, int n_slabs) {
  const auto drive = g.stream("drive0");
  const auto h2d = g.stream("h2d");
  const auto compute = g.stream("compute");

  auto submit_read = [&](int i) {
    const std::string w = "read:" + std::to_string(i);
    g.declare_work(w, "drive read of slab " + std::to_string(i));
    g.charge(drive, w);
    g.record(drive, w);
  };

  submit_read(0);
  for (int i = 0; i < n_slabs; ++i) {
    const std::string si = std::to_string(i);
    if (i + 1 < n_slabs) submit_read(i + 1);
    // Double buffer: reusing the oldest slab set's device space requires
    // its compute to have retired (ooc_engine.hpp: wait on comp_done[i-2]).
    if (i >= 2) g.wait(h2d, "comp:" + std::to_string(i - 2));
    g.declare_work("meta:" + si, "bin-metadata upload for slab " + si);
    g.charge(h2d, "meta:" + si);
    g.wait(h2d, "read:" + si);
    g.declare_work("h2d:" + si, "slab upload " + si);
    g.charge(h2d, "h2d:" + si);
    g.record(h2d, "up:" + si);
    g.wait(compute, "up:" + si);
    g.declare_work("spmv:" + si, "slab SpMV " + si);
    g.charge(compute, "spmv:" + si);
    g.record(compute, "comp:" + si);
  }
}

// ---------------------------------------------------------------------
// Cross-plane models.
// ---------------------------------------------------------------------

// storage/tier.hpp: a bounded in-flight window (max_inflight). Submitting
// request k with the window full first retires the oldest outstanding
// request — the submit is ordered after that completion.
void model_storage_inflight(ChargeGraph& g) {
  const auto drive = g.stream("drive0");
  const auto host = g.stream("host");
  const int window = 2, n = 5;
  for (int k = 0; k < n; ++k) {
    const std::string sk = std::to_string(k);
    if (k >= window) g.wait(host, "done:" + std::to_string(k - window));
    g.declare_work("io:" + sk, "extent read " + sk);
    g.charge(drive, "io:" + sk);
    g.record(drive, "done:" + sk);
  }
  // drain(): the host retires every remaining completion in order.
  for (int k = 0; k < n; ++k) g.wait(host, "done:" + std::to_string(k));
}

// core/multi_gpu.hpp simulate_once(): one stream per device engine, the
// host merge fence joins both device completions before the inter-device
// sync term is charged.
void model_multi_gpu(ChargeGraph& g) {
  const auto host = g.stream("host");
  for (int d = 0; d < 2; ++d) {
    const std::string sd = std::to_string(d);
    const auto dev = g.stream("dev" + sd);
    g.declare_work("spmv@dev" + sd, "partition SpMV on device " + sd);
    g.charge(dev, "spmv@dev" + sd);
    g.record(dev, "part:" + sd);
  }
  g.wait(host, "part:0");
  g.wait(host, "part:1");
  g.overhead(host, "multi_gpu_sync");
}

// vgpu/memo.hpp: capture runs the real launch sequence and charges it
// once; replay charges the captured records once on the replay path —
// never both for the same iteration (the double-charge memoization would
// otherwise introduce).
void model_memo_replay(ChargeGraph& g) {
  const auto capture = g.stream("capture");
  const auto replay = g.stream("replay");
  for (const char* k : {"csr_vector"}) {
    g.declare_work(std::string("capture:") + k, "captured launch of " + std::string(k));
    g.charge(capture, std::string("capture:") + k);
  }
  g.record(capture, "captured");
  // Replay validates against the capture — ordered after it — then
  // charges the recorded durations on its own iteration.
  g.wait(replay, "captured");
  g.declare_work("replay:csr_vector", "replayed launch of csr_vector");
  g.charge(replay, "replay:csr_vector");
}

// spmv/engine.hpp batched SpMM: width-w block tiled by kSpmmTile columns;
// one kernel launch per column tile, all on the compute queue.
void model_spmm_batch(ChargeGraph& g) {
  const auto compute = g.stream("compute");
  const int width = 20, tile = 8;
  for (int c0 = 0; c0 < width; c0 += tile) {
    const std::string w = "spmm:cols" + std::to_string(c0);
    g.declare_work(w, "SpMM tile at column " + std::to_string(c0));
    g.charge(compute, w);
  }
}

// core/resilient.hpp + storage/tier.hpp service(): each failed attempt
// charges exponential backoff as overhead (not metered work) before the
// retry's real charge; the final attempt's work is charged exactly once.
void model_resilient_backoff(ChargeGraph& g) {
  const auto drive = g.stream("drive0");
  g.declare_work("io:0", "extent read 0 (succeeds on attempt 3)");
  for (int attempt = 0; attempt < 2; ++attempt)
    g.overhead(drive, "backoff:" + std::to_string(attempt));
  g.charge(drive, "io:0");
}

// ---------------------------------------------------------------------
// Seeded defect corpus: the broken shapes the auditor must flag.
// ---------------------------------------------------------------------

void defect_free_work(ChargeGraph& g) {
  const auto compute = g.stream("compute");
  g.declare_work("spmv", "the SpMV kernel");
  g.declare_work("h2d", "the x upload");  // metered but never charged
  g.charge(compute, "spmv");
}

void defect_double_charge(ChargeGraph& g) {
  const auto h2d = g.stream("h2d");
  const auto compute = g.stream("compute");
  g.declare_work("h2d:0", "slab upload");
  g.charge(h2d, "h2d:0");
  g.charge(compute, "h2d:0");  // charged again on the wrong stream
}

// The real OOC loop waits on comp_done[i-2]; this one waits on
// comp_done[i] — a completion value read before the compute is enqueued.
void defect_inverted_join(ChargeGraph& g) {
  const auto h2d = g.stream("h2d");
  const auto compute = g.stream("compute");
  for (int i = 0; i < 3; ++i) {
    const std::string si = std::to_string(i);
    g.wait(h2d, "comp:" + si);  // inverted: recorded only below
    g.declare_work("h2d:" + si, "slab upload " + si);
    g.charge(h2d, "h2d:" + si);
    g.record(h2d, "up:" + si);
    g.wait(compute, "up:" + si);
    g.declare_work("spmv:" + si, "slab SpMV " + si);
    g.charge(compute, "spmv:" + si);
    g.record(compute, "comp:" + si);
  }
}

void defect_negative_charge(ChargeGraph& g) {
  const auto compute = g.stream("compute");
  g.declare_work("spmv", "the SpMV kernel");
  // Modeled after charging `t_end - t_start` where nothing proves the
  // difference non-negative.
  g.charge(compute, "spmv", /*nonneg=*/false);
}

void defect_dangling_wait(ChargeGraph& g) {
  const auto compute = g.stream("compute");
  g.declare_work("spmv", "the SpMV kernel");
  g.charge(compute, "spmv");
  g.wait(compute, "upload-done");  // never recorded by anyone
}

}  // namespace

const std::vector<std::string>& audit_device_keys() {
  static const std::vector<std::string> keys = {"gtx580", "k10", "titan"};
  return keys;
}

std::vector<AuditFinding> audit_engine_charges(const std::string& engine,
                                               const vgpu::DeviceSpec& spec) {
  const char* canon_p = core::canonical_engine_name(engine);
  ACSR_REQUIRE(canon_p != nullptr,
               "audit: unknown engine '" << engine << "'");
  const std::string canon = canon_p;
  ChargeGraph g;
  if (canon == "ooc-csr") {
    model_ooc(g, /*n_slabs=*/4);
  } else {
    const std::vector<std::string> ks = in_core_kernels(canon, spec);
    ACSR_REQUIRE(!ks.empty(), "audit: engine '"
                                  << canon
                                  << "' is registered but has no charge model");
    charge_kernels(g, ks);
  }
  return g.audit("charge:" + canon + "@" + spec.name);
}

const std::vector<std::string>& charge_plane_names() {
  static const std::vector<std::string> names = {
      "ooc-double-buffer", "storage-inflight",  "multi-gpu-merge",
      "memo-replay",       "spmm-batch",        "resilient-backoff",
  };
  return names;
}

std::vector<AuditFinding> audit_charge_plane(const std::string& plane) {
  ChargeGraph g;
  if (plane == "ooc-double-buffer")
    model_ooc(g, /*n_slabs=*/6);
  else if (plane == "storage-inflight")
    model_storage_inflight(g);
  else if (plane == "multi-gpu-merge")
    model_multi_gpu(g);
  else if (plane == "memo-replay")
    model_memo_replay(g);
  else if (plane == "spmm-batch")
    model_spmm_batch(g);
  else if (plane == "resilient-backoff")
    model_resilient_backoff(g);
  else
    ACSR_REQUIRE(false, "audit: unknown charge plane '" << plane << "'");
  return g.audit("plane:" + plane);
}

const std::vector<ChargeDefect>& all_charge_defects() {
  static const std::vector<ChargeDefect> defects = {
      {"free-work", AuditKind::kFreeWork,
       "metered transfer never charged to a timeline"},
      {"double-charge", AuditKind::kDoubleCharge,
       "one upload charged on two streams"},
      {"inverted-join", AuditKind::kCausalityInversion,
       "double-buffer fence waits on comp_done[i] instead of comp_done[i-2]"},
      {"negative-charge", AuditKind::kNonMonotone,
       "charge computed as an unproven difference"},
      {"dangling-wait", AuditKind::kDanglingWait,
       "wait on an event no stream records"},
  };
  return defects;
}

std::vector<AuditFinding> run_charge_defect(const std::string& name) {
  ChargeGraph g;
  if (name == "free-work")
    defect_free_work(g);
  else if (name == "double-charge")
    defect_double_charge(g);
  else if (name == "inverted-join")
    defect_inverted_join(g);
  else if (name == "negative-charge")
    defect_negative_charge(g);
  else if (name == "dangling-wait")
    defect_dangling_wait(g);
  else
    ACSR_REQUIRE(false, "audit: unknown charge defect '" << name << "'");
  return g.audit("defect:" + name);
}

}  // namespace acsr::analysis
