// Resilient SpMV driver (the recovery layer over the fault model).
//
// The paper's evaluation already meets real failure modes — HYB/BCCOO
// report Ø (OOM) on several matrices (Table III) — and production SpMV
// serving must additionally survive transient launch faults, ECC events,
// and whole-device loss without aborting the workload. ResilientEngine
// wraps any factory engine with the standard recovery ladder:
//
//   TransientFault   bounded retry with exponential backoff, the backoff
//                    charged to the simulated clock (timeline entries)
//   DataCorruption   re-upload scrub: the engine is rebuilt from host
//                    data, refreshing every device-resident buffer
//   DeviceOom        format fallback: walk a degradation chain
//                    (ACSR -> CSR-vector -> CSR-scalar; padded formats
//                    -> CSR-scalar), so the paper's Ø entries become a
//                    degraded-mode result instead of a bench abort. The
//                    terminal rung is the out-of-core streaming tier
//                    ("ooc-csr", src/core/ooc_engine.hpp): when even the
//                    raw CSR arrays don't fit, the matrix streams from
//                    the simulated storage plane in budget-sized slabs
//                    and the solve completes instead of throwing
//   DeviceLost       failover: rebuild the active format on the next
//                    surviving device of the provided set
//
// Every fault and every recovery action is recorded on a StreamTimeline
// ("fault:..." / "recovery:..." tags), so tests and benches can assert
// the exact sequence of events. With ACSR_FAULTS unset none of this code
// runs differently from a plain factory engine: the injector hooks are a
// single never-taken branch (see src/vgpu/fault.hpp) and the wrapper adds
// one virtual hop per SpMV.
//
// Silent (undetected) corruption is, by definition, invisible at this
// layer; the checkpointed solvers (src/apps/checkpoint.hpp) add the
// application-level residual/mass guards that catch it. docs/RESILIENCE.md
// has the full protocol.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/factory.hpp"
#include "prof/prof.hpp"
#include "vgpu/fault.hpp"
#include "vgpu/timeline.hpp"

namespace acsr::core {

struct RetryPolicy {
  int max_retries = 3;          // per simulate / per build
  double backoff_s = 1.0e-4;    // first retry's wait, charged to the clock
  double backoff_growth = 2.0;  // exponential
};

struct ResilienceOptions {
  RetryPolicy retry;
  /// Re-upload scrubs allowed per simulate before the corruption is
  /// reported to the caller.
  int max_scrubs = 2;
  /// Override the format degradation chain (first entry is the preferred
  /// format). Empty = default_fallback_chain(preferred).
  std::vector<std::string> fallback_chain;
};

/// The default degradation chain for a format: ACSR degrades through the
/// CSR kernels it was built from; padded/preprocessed formats (the Ø rows
/// of Table III) degrade straight to CSR-scalar, which allocates no more
/// than the raw CSR arrays. Every chain ends at the out-of-core streaming
/// tier, whose resident footprint is two budget-sized slabs — the rung
/// that still works when the matrix itself doesn't fit.
inline std::vector<std::string> default_fallback_chain(
    const std::string& preferred) {
  if (preferred == "ooc-csr") return {preferred};
  if (preferred == "acsr" || preferred == "acsr-binning")
    return {preferred, "csr-vector", "csr-scalar", "ooc-csr"};
  if (preferred == "csr-scalar") return {preferred, "ooc-csr"};
  return {preferred, "csr-scalar", "ooc-csr"};
}

template <class T>
class ResilientEngine final : public spmv::SpmvEngine<T> {
 public:
  /// `devices[0]` is the primary; the rest are standbys used, in order,
  /// after whole-device loss. The engine is built on construction and the
  /// same recovery ladder applies to construction-time faults (BCCOO's
  /// auto-tuner launches trial kernels; every format uploads buffers).
  ResilientEngine(std::vector<vgpu::Device*> devices, const mat::Csr<T>& a,
                  const std::string& preferred, EngineConfig cfg = {},
                  ResilienceOptions opt = {})
      : host_(a),
        cfg_(cfg),
        opt_(std::move(opt)),
        devices_(std::move(devices)) {
    ACSR_REQUIRE(!devices_.empty(), "ResilientEngine needs >= 1 device");
    if (opt_.fallback_chain.empty())
      opt_.fallback_chain = default_fallback_chain(preferred);
    // Named "recovery": its retry backoff enqueues are execution spans
    // and the profiler's retry attribution (docs/SLO.md).
    stream_ = timeline_.create_stream("recovery");
    rebuild("initial build");
  }

  // --- SpmvEngine interface ------------------------------------------------
  const std::string& name() const override { return inner_->name(); }
  vgpu::Device& device() override { return inner_->device(); }
  mat::index_t rows() const override { return host_.rows; }
  mat::index_t cols() const override { return host_.cols; }
  mat::offset_t nnz() const override { return host_.nnz(); }
  const spmv::EngineReport& report() const override {
    return inner_->report();
  }

  /// Host functional path: pure host arithmetic, no device involvement,
  /// hence no fault exposure.
  void apply(const std::vector<T>& x, std::vector<T>& y) const override {
    inner_->apply(x, y);
  }

  /// One SpMV through the device path, recovered per the ladder above.
  /// Returns the successful attempt's simulated seconds plus any backoff
  /// charged while recovering.
  double simulate(const std::vector<T>& x, std::vector<T>& y) override {
    return recovered([&] { return inner_->simulate(x, y); });
  }

  void apply_batch(const mat::DenseBlock<T>& x_block,
                   mat::DenseBlock<T>& y_block) const override {
    inner_->apply_batch(x_block, y_block);
  }

  /// Batched SpMM through the same recovery ladder: a fault mid-batch
  /// retries/rebuilds and re-runs the whole block (the block kernels
  /// overwrite or clear-then-accumulate every output slot, so a re-run is
  /// idempotent). After a fallback the degraded format serves the batch
  /// via its own simulate_batch — at worst the column loop.
  double simulate_batch(const mat::DenseBlock<T>& x_block,
                        mat::DenseBlock<T>& y_block) override {
    return recovered([&] { return inner_->simulate_batch(x_block, y_block); });
  }

  // --- recovery observability ----------------------------------------------
  /// Format currently serving SpMVs (the chain entry recovery settled on).
  const std::string& active_format() const {
    return opt_.fallback_chain[chain_pos_];
  }
  vgpu::Device& active_device() const { return *devices_[device_pos_]; }
  /// The engine instance currently serving (the active chain rung). The
  /// reference is invalidated by any recovery rebuild — read, don't keep.
  spmv::SpmvEngine<T>& active_engine() { return *inner_; }
  int retries() const { return retries_; }
  int scrubs() const { return scrubs_; }
  int fallbacks() const { return fallbacks_; }
  int failovers() const { return failovers_; }

  /// Every "fault:..." / "recovery:..." mark in order, as plain strings —
  /// the typed evidence trail callers assert on without walking the
  /// timeline log (which interleaves backoff/checkpoint entries).
  const std::vector<std::string>& recovery_log() const {
    return recovery_log_;
  }

  /// Every fault and recovery action, in order, as timeline entries
  /// ("fault:...", "recovery:...", plus solver "checkpoint..."/"restart..."
  /// marks added via note_event).
  const vgpu::StreamTimeline& timeline() const { return timeline_; }
  /// Record an application-level event (checkpoint, restart) alongside the
  /// driver's own fault/recovery marks. `duration_s` is charged to the
  /// simulated clock.
  void note_event(const std::string& tag, double duration_s = 0.0) {
    timeline_.enqueue(stream_, duration_s, tag);
  }

  /// Rebuild the active format's device state from host data (the
  /// re-upload scrub). Public so solvers can scrub when an application
  /// guard — not the hardware — detects corruption.
  void scrub() {
    ++scrubs_;
    rebuild("scrub");
  }

 private:
  /// The recovery ladder around one device-path attempt (shared by the
  /// scalar and batched entry points). Returns the successful attempt's
  /// simulated seconds plus any backoff charged while recovering.
  template <class Fn>
  double recovered(Fn&& attempt) {
    int retries_left = opt_.retry.max_retries;
    int scrubs_left = opt_.max_scrubs;
    double backoff = opt_.retry.backoff_s;
    double penalty_s = 0.0;
    for (;;) {
      try {
        return attempt() + penalty_s;
      } catch (const vgpu::TransientFault& e) {
        if (retries_left-- == 0) throw;
        note("fault:transient " + where_of(e));
        penalty_s += backoff;
        timeline_.enqueue(stream_, backoff,
                          "recovery:retry backoff " + where_of(e));
        ++retries_;
        backoff *= opt_.retry.backoff_growth;
      } catch (const vgpu::DataCorruption& e) {
        if (scrubs_left-- == 0) throw;
        note("fault:corruption " + where_of(e));
        scrub_and_note();
      } catch (const acsr::InvariantError&) {
        // A silently flipped index sends a kernel out of bounds. Only
        // convert the abort into a scrub when the injector actually
        // recorded a flip since the device copies were last refreshed —
        // a genuine engine bug must stay loud.
        if (!flips_since_scrub() || scrubs_left-- == 0) throw;
        note("fault:corruption (bounds failure after undetected flip)");
        scrub_and_note();
      } catch (const vgpu::DeviceOom& e) {
        note(std::string("fault:oom ") + e.what());
        fall_back_or_rethrow();  // noreturn on exhausted chain
      } catch (const vgpu::DeviceLost& e) {
        note("fault:lost " + where_of(e));
        fail_over_or_rethrow();
      }
    }
  }

  static std::string where_of(const vgpu::DeviceFault& e) {
    return "'" + e.where() + "' on device '" + e.device() + "'";
  }

  void note(const std::string& tag) {
    timeline_.enqueue(stream_, 0.0, tag);
    recovery_log_.push_back(tag);
    // Mirror fault/recovery marks into the trace as instant events.
    if (prof::profiler_enabled()) [[unlikely]]
      prof::Profiler::instance().instant(tag);
  }

  void scrub_and_note() {
    ++scrubs_;
    rebuild("scrub");
    note("recovery:scrub re-uploaded " + active_format() + " from host");
  }

  /// The one place the degradation chain advances (shared by the simulate
  /// ladder and the build ladder): rethrows the in-flight exception when
  /// the chain is exhausted, otherwise steps to the next rung and logs it.
  /// Callers decide whether a rebuild follows (the build ladder is already
  /// inside its retry loop; the simulate ladder rebuilds explicitly).
  void advance_chain_or_rethrow() {
    if (chain_pos_ + 1 >= opt_.fallback_chain.size()) throw;
    ++chain_pos_;
    ++fallbacks_;
    note("recovery:fallback to " + active_format());
  }

  void fall_back_or_rethrow() {
    advance_chain_or_rethrow();
    rebuild("fallback");
  }

  void fail_over_or_rethrow() {
    std::size_t next = device_pos_ + 1;
    while (next < devices_.size() && devices_[next]->lost()) ++next;
    if (next >= devices_.size()) throw;
    device_pos_ = next;
    ++failovers_;
    rebuild("failover");
    note("recovery:failover to device '" +
         active_device().spec().name + "'");
  }

  /// Count of ECC / transfer bit-flip events the injector has recorded;
  /// flips newer than the last rebuild mean device copies may differ from
  /// host truth.
  bool flips_since_scrub() const {
    if (!vgpu::fault_injection_enabled()) return false;
    return flip_events() > flips_seen_;
  }
  static std::size_t flip_events() {
    const auto& inj = vgpu::FaultInjector::instance();
    return inj.count(vgpu::FaultKind::kEccFlip) +
           inj.count(vgpu::FaultKind::kTransferCorrupt);
  }

  /// (Re)build the active format on the active device. Construction itself
  /// walks the same ladder: preprocessing OOM falls down the chain,
  /// transient faults in tuner launches retry, detected corruption during
  /// upload retries the build (a fresh build *is* the scrub), device loss
  /// fails over.
  void rebuild(const char* why) {
    inner_.reset();  // free the old replica before re-allocating
    int retries_left = opt_.retry.max_retries;
    int scrubs_left = opt_.max_scrubs;
    double backoff = opt_.retry.backoff_s;
    for (;;) {
      if (devices_[device_pos_]->lost()) {
        // The active device died before we got here (e.g. loss during a
        // transfer of the build we are retrying).
        std::size_t next = device_pos_ + 1;
        while (next < devices_.size() && devices_[next]->lost()) ++next;
        if (next >= devices_.size())
          throw vgpu::DeviceLost(devices_[device_pos_]->spec().name, why,
                                 "no surviving device to rebuild on");
        device_pos_ = next;
        ++failovers_;
        note("recovery:failover to device '" +
             active_device().spec().name + "'");
      }
      try {
        inner_ = make_engine<T>(active_format(), active_device(), host_,
                                cfg_);
        flips_seen_ = flip_events();
        this->invalidate_cache();
        return;
      } catch (const vgpu::DeviceOom& e) {
        note(std::string("fault:oom ") + e.what());
        advance_chain_or_rethrow();
      } catch (const acsr::InputError&) {
        // A format's own refusal (pure ELL's expansion bound): degraded
        // mode, same as preprocessing OOM — unless nothing is left to
        // degrade to.
        advance_chain_or_rethrow();
      } catch (const vgpu::TransientFault& e) {
        if (retries_left-- == 0) throw;
        note("fault:transient " + where_of(e));
        timeline_.enqueue(stream_, backoff, "recovery:retry backoff (build)");
        ++retries_;
        backoff *= opt_.retry.backoff_growth;
      } catch (const vgpu::DataCorruption& e) {
        if (scrubs_left-- == 0) throw;
        note("fault:corruption " + where_of(e));
        ++scrubs_;
        note("recovery:scrub rebuilding " + active_format());
      } catch (const vgpu::DeviceLost& e) {
        note("fault:lost " + where_of(e));
        // Loop top advances to the next surviving device (the lost_ flag
        // is already set on the struck device).
        if (!devices_[device_pos_]->lost()) throw;  // not ours: propagate
      }
    }
  }

  mat::Csr<T> host_;
  EngineConfig cfg_;
  ResilienceOptions opt_;
  std::vector<vgpu::Device*> devices_;
  std::size_t device_pos_ = 0;
  std::size_t chain_pos_ = 0;
  std::unique_ptr<spmv::SpmvEngine<T>> inner_;
  vgpu::StreamTimeline timeline_;
  vgpu::StreamTimeline::StreamId stream_ = 0;
  std::size_t flips_seen_ = 0;
  int retries_ = 0;
  int scrubs_ = 0;
  int fallbacks_ = 0;
  int failovers_ = 0;
  std::vector<std::string> recovery_log_;
};

}  // namespace acsr::core
