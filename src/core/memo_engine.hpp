// Memoizing SpMV engine decorator (ACSR_MEMO=1).
//
// make_engine wraps every engine it builds in a MemoEngine when the memo
// plane is on. The first simulate() captures the engine's launch sequence
// (per-launch Counters, roofline terms and duration); every later
// simulate() replays it — each launch computes the numeric y through its
// exact-order value kernel (or, for an engine without one, a value-only
// grid walk), metering comes from the cache. Static engines have a fixed
// structure, so the only key material beyond the identity is the
// per-instance tag: a rebuilt engine (e.g. the resilient driver's
// scrub/fallback/failover paths recreate engines through make_engine)
// starts cold and its predecessor's entries are erased by the Memoizer
// destructor — stale metering cannot be replayed. apply() and every query
// delegate untouched.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "slo/trace.hpp"
#include "spmv/engine.hpp"
#include "vgpu/memo.hpp"

namespace acsr::core {

template <class T>
class MemoEngine final : public spmv::SpmvEngine<T> {
 public:
  explicit MemoEngine(std::unique_ptr<spmv::SpmvEngine<T>> inner)
      : inner_(std::move(inner)),
        memo_(vgpu::memo::spec_fingerprint(inner_->device().spec()) + "|" +
              inner_->name() + "|" + identity(*inner_)) {}

  const std::string& name() const override { return inner_->name(); }
  vgpu::Device& device() override { return inner_->device(); }
  mat::index_t rows() const override { return inner_->rows(); }
  mat::index_t cols() const override { return inner_->cols(); }
  mat::offset_t nnz() const override { return inner_->nnz(); }

  void apply(const std::vector<T>& x, std::vector<T>& y) const override {
    inner_->apply(x, y);
  }

  double simulate(const std::vector<T>& x, std::vector<T>& y) override {
    annotate_span("spmv");
    return memo_.run(inner_->device(), "spmv",
                     [&] { return inner_->simulate(x, y); });
  }

  void apply_batch(const mat::DenseBlock<T>& x_block,
                   mat::DenseBlock<T>& y_block) const override {
    inner_->apply_batch(x_block, y_block);
  }

  /// Batched launches are memoized per batch width: a static engine's
  /// SpMM launch sequence is fixed for a given k, and the engines keep
  /// per-width scratch so replay addresses stay stationary. Width 0 never
  /// launches (nothing to capture); width 1 routes to the scalar engines'
  /// SpMV path, so it shares the "spmv" key with simulate() — the memo
  /// cache is warm either way round.
  double simulate_batch(const mat::DenseBlock<T>& x_block,
                        mat::DenseBlock<T>& y_block) override {
    if (x_block.width == 0) return inner_->simulate_batch(x_block, y_block);
    const std::string subkey =
        x_block.width == 1 ? "spmv" : "spmm/k" + std::to_string(x_block.width);
    annotate_span(subkey);
    return memo_.run(inner_->device(), subkey,
                     [&] { return inner_->simulate_batch(x_block, y_block); });
  }

  const spmv::EngineReport& report() const override {
    return inner_->report();
  }

  spmv::SpmvEngine<T>& inner() { return *inner_; }
  const vgpu::memo::Memoizer& memoizer() const { return memo_; }

 private:
  /// Tracing hook: mark the enclosing execution span with what
  /// Memoizer::run is about to do — capture, replay, or bypass (another
  /// plane owns the run, or a session is already active on the device).
  /// Annotate-ONLY — the memo plane must never create spans, or span
  /// trees (and their histograms) would differ between ACSR_MEMO=0/1
  /// (tests/test_slo.cpp pins that determinism).
  void annotate_span(const std::string& subkey) const {
    if (slo::slo_enabled()) [[unlikely]] {
      if (!vgpu::memo::memo_enabled()) return;
      const char* what = "bypass";
      if (vgpu::memo::Memoizer::would_memoize(inner_->device()))
        what = vgpu::memo::MemoCache::instance().contains(memo_.key(subkey))
                   ? "replay"
                   : "capture";
      slo::Tracer::instance().annotate_open("memo", what);
    }
  }

  static std::string identity(const spmv::SpmvEngine<T>& e) {
    return std::to_string(e.rows()) + "x" + std::to_string(e.cols()) + "/" +
           std::to_string(e.nnz()) + "/w" + std::to_string(sizeof(T));
  }

  std::unique_ptr<spmv::SpmvEngine<T>> inner_;
  vgpu::memo::Memoizer memo_;
};

}  // namespace acsr::core
