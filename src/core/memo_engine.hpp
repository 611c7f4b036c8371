// Memoizing SpMV engine decorator (ACSR_MEMO=1).
//
// make_engine wraps every engine it builds in a MemoEngine when the memo
// plane is on. A simulate() whose key is cached replays — each launch
// computes the numeric y through its exact-order value kernel, the same
// kernel as the engine's apply(), and takes its metering from the cache —
// and any other simulate() captures. The key is what the
// engine's metering depends on (vgpu/memo.hpp):
//   - the recipe make_engine computed (core/factory.hpp's memo_recipe:
//     spec, engine name and config, element width, arena capacity,
//     operand digest),
//   - the arena offset the engine's build started at, which with the
//     recipe fixes where every resident buffer sits relative to the
//     arena's base,
//   - where the scratch the call touches sits (scratch_layout: x and y,
//     or the block scratch of the call's batch width, and ooc-csr's slab
//     set mark), read at the call's first launch — after the call has
//     staged its scratch, so an engine's first call and its later ones
//     key alike — and
//   - the subkey ("spmv", "spmm/k<width>").
// So a second engine over the same operand, built the same way on a fresh
// device, replays from its first call, while a rebuild on the same device
// (the resilient driver's scrub and fallback paths rebuild through
// make_engine) starts at a later arena offset and captures. apply() and
// every query delegate untouched.
#pragma once

#include <cstdint>
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
  /// `recipe`: memo_recipe of the build; `build_offset`: the arena offset
  /// the build started at.
  MemoEngine(std::unique_ptr<spmv::SpmvEngine<T>> inner,
             const std::string& recipe, std::uint64_t build_offset)
      : inner_(std::move(inner)),
        memo_(recipe + "|build@" + std::to_string(build_offset)) {}

  const std::string& name() const override { return inner_->name(); }
  vgpu::Device& device() override { return inner_->device(); }
  mat::index_t rows() const override { return inner_->rows(); }
  mat::index_t cols() const override { return inner_->cols(); }
  mat::offset_t nnz() const override { return inner_->nnz(); }

  void apply(const std::vector<T>& x, std::vector<T>& y) const override {
    inner_->apply(x, y);
  }

  double simulate(const std::vector<T>& x, std::vector<T>& y) override {
    return run(1, [&] { return inner_->simulate(x, y); });
  }

  void apply_batch(const mat::DenseBlock<T>& x_block,
                   mat::DenseBlock<T>& y_block) const override {
    inner_->apply_batch(x_block, y_block);
  }

  /// Batched launches are memoized per batch width: a static engine's
  /// SpMM launch sequence is fixed for a given k. Width 0 never launches
  /// (nothing to capture); width 1 routes to the scalar engines' SpMV
  /// path, so it shares the "spmv" subkey with simulate().
  double simulate_batch(const mat::DenseBlock<T>& x_block,
                        mat::DenseBlock<T>& y_block) override {
    if (x_block.width == 0) return inner_->simulate_batch(x_block, y_block);
    return run(x_block.width,
               [&] { return inner_->simulate_batch(x_block, y_block); });
  }

  const spmv::EngineReport& report() const override {
    return inner_->report();
  }

  spmv::SpmvEngine<T>& inner() { return *inner_; }

 private:
  /// One memoized run of `fn`, a call of batch width `width` (1: an
  /// SpMV). The key's tail — the scratch the call touches, then the
  /// subkey — is read when the run's first launch resolves it, after the
  /// inner engine has staged its scratch for the call.
  template <class Fn>
  double run(int width, Fn&& fn) {
    vgpu::Device& dev = inner_->device();
    const auto tail = [&] {
      return inner_->scratch_layout(width) + "|" +
             (width == 1 ? std::string("spmv")
                         : "spmm/k" + std::to_string(width));
    };
    if (!slo::slo_enabled()) [[likely]]
      return memo_.run(dev, tail, fn);
    // Tracing: mark the enclosing execution span with what the run does —
    // capture, replay, or bypass (another plane owns the run, or a
    // session is already active on the device). Annotate-ONLY — the memo
    // plane must never create spans, or span trees (and their histograms)
    // would differ between ACSR_MEMO=0/1 (tests/test_slo.cpp pins that
    // determinism).
    const auto annotate = [](const char* what) {
      if (vgpu::memo::memo_enabled())
        slo::Tracer::instance().annotate_open("memo", what);
    };
    if (!vgpu::memo::Memoizer::would_memoize(dev)) annotate("bypass");
    return memo_.run(dev, tail, fn, [&](bool replay) {
      annotate(replay ? "replay" : "capture");
    });
  }

  std::unique_ptr<spmv::SpmvEngine<T>> inner_;
  vgpu::memo::Memoizer memo_;
};

}  // namespace acsr::core
