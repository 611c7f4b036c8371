// Engine factory: build any SpMV engine by name. Sits in core (the top of
// the library stack) because it knows both the baselines and ACSR.
#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>

#include "analysis/verify.hpp"
#include "common/fields.hpp"
#include "core/acsr_engine.hpp"
#include "core/engine_registry.hpp"
#include "core/memo_engine.hpp"
#include "core/ooc_engine.hpp"
#include "spmv/bccoo_engine.hpp"
#include "spmv/bcsr_engine.hpp"
#include "spmv/brc_engine.hpp"
#include "spmv/coo_engine.hpp"
#include "spmv/csr_scalar.hpp"
#include "spmv/csr_vector.hpp"
#include "spmv/ell_engine.hpp"
#include "spmv/hyb_engine.hpp"
#include "spmv/merge_csr_engine.hpp"
#include "spmv/sell_engine.hpp"
#include "spmv/sic_engine.hpp"
#include "spmv/tcoo_engine.hpp"

namespace acsr::core {

struct EngineConfig {
  /// HYB's ELL/COO split threshold population (4096 on real hardware;
  /// benches scale it with the corpus).
  mat::index_t hyb_breakeven = 4096;
  /// BCSR tile edge length.
  int bcsr_block = 2;
  /// SELL-C-sigma sorting-window size (multiple of 32).
  mat::index_t sell_sigma = 256;
  AcsrOptions acsr;
  /// Out-of-core streaming tier (budget, storage array, retry policy).
  OocOptions ooc;

  /// Every field, for a memo key (vgpu/memo.hpp), ooc's budget as
  /// resolved on `dev`.
  void print_key(std::ostream& os, const vgpu::Device& dev) const {
    os << "hyb" << hyb_breakeven << ",bcsr" << bcsr_block << ",sell"
       << sell_sigma << "|acsr";
    acsr.print_key(os);
    os << "|ooc";
    ooc.print_key(os, dev);
  }
};
static_assert(field_count<EngineConfig>() == 5,
              "print a new EngineConfig field in print_key");

/// Everything an engine's metering depends on apart from where its
/// buffers sit (the memo key's recipe, vgpu/memo.hpp): the canonical
/// engine name, every EngineConfig field (ooc's budget resolved), the
/// element width, the device spec, the arena capacity, and a digest of the
/// operand — its dims, row_off, col_idx and vals. Values move metering
/// too: bccoo skips the x load of an explicit zero, and its autotuner
/// picks the block width from trial kernel times. Two builds with
/// equal recipes that start at the same arena offset lay their buffers
/// out identically relative to their arenas' bases.
template <class T>
std::string memo_recipe(const std::string& canon, const vgpu::Device& dev,
                        const mat::Csr<T>& a, const EngineConfig& cfg) {
  std::ostringstream os = vgpu::memo::key_stream();
  os << canon << "|w" << sizeof(T) << '|'
     << vgpu::memo::spec_fingerprint(dev.spec()) << "|cap"
     << dev.arena().capacity() << '|';
  cfg.print_key(os, dev);
  std::uint64_t h = storage::stored_checksum(a.row_off, 0, a.row_off.size());
  h = storage::stored_checksum(a.col_idx, 0, a.col_idx.size(), h);
  h = storage::stored_checksum(a.vals, 0, a.vals.size(), h);
  os << '|' << a.rows << 'x' << a.cols << '/' << a.nnz() << '#' << h;
  return os.str();
}

/// Known names: csr-scalar, csr (cuSPARSE warp-per-row), csr-vector
/// (CUSP-adaptive), ell, coo, hyb, brc, bccoo, tcoo, sic, bcsr, sell
/// (SELL-C-sigma), merge-csr (Merrill-Garland style), acsr, acsr-binning
/// (dynamic parallelism off), ooc-csr (out-of-core streaming tier).
template <class T>
std::unique_ptr<spmv::SpmvEngine<T>> make_engine(const std::string& name,
                                                 vgpu::Device& dev,
                                                 const mat::Csr<T>& a,
                                                 EngineConfig cfg = {}) {
  // The registry (engine_registry.hpp) is the single source of truth for
  // factory names: unknown names are rejected here, aliases collapse to
  // their canonical spelling, and the verifier/audit proof matrices
  // enumerate the same table — an engine cannot exist for dispatch but be
  // skipped by the proofs.
  const char* canon_p = canonical_engine_name(name);
  ACSR_REQUIRE(canon_p != nullptr, "unknown SpMV engine '" << name << "'");
  const std::string canon = canon_p;
  // Opt-in pre-launch gate (ACSR_VERIFY=1): statically prove the engine's
  // kernels safe for its whole shape class on this device before building
  // it. Costs one cached-bool branch when the variable is unset.
  if (analysis::verify_enabled()) [[unlikely]]
    analysis::verify_engine_or_throw(canon, dev.spec());
  auto build = [&]() -> std::unique_ptr<spmv::SpmvEngine<T>> {
    if (canon == "csr-scalar")
      return std::make_unique<spmv::CsrScalarEngine<T>>(dev, a);
    if (canon == "csr-vector")
      return std::make_unique<spmv::CsrVectorEngine<T>>(dev, a);
    // The paper's "CSR" series: cuSPARSE-era csrmv with a fixed warp (32
    // lanes) per row, which refetches sectors shared by adjacent short rows
    // from different warps — the real penalty on power-law matrices.
    if (canon == "csr")
      return std::make_unique<spmv::CsrVectorEngine<T>>(dev, a, 32);
    if (canon == "ell") return std::make_unique<spmv::EllEngine<T>>(dev, a);
    if (canon == "coo") return std::make_unique<spmv::CooEngine<T>>(dev, a);
    if (canon == "hyb")
      return std::make_unique<spmv::HybEngine<T>>(dev, a, cfg.hyb_breakeven);
    if (canon == "brc") return std::make_unique<spmv::BrcEngine<T>>(dev, a);
    if (canon == "bccoo")
      return std::make_unique<spmv::BccooEngine<T>>(dev, a);
    if (canon == "tcoo") return std::make_unique<spmv::TcooEngine<T>>(dev, a);
    if (canon == "sic") return std::make_unique<spmv::SicEngine<T>>(dev, a);
    if (canon == "merge-csr")
      return std::make_unique<spmv::MergeCsrEngine<T>>(dev, a);
    if (canon == "sell")
      return std::make_unique<spmv::SellEngine<T>>(dev, a, cfg.sell_sigma);
    if (canon == "bcsr")
      return std::make_unique<spmv::BcsrEngine<T>>(dev, a, cfg.bcsr_block);
    if (canon == "acsr")
      return std::make_unique<AcsrEngine<T>>(dev, a, cfg.acsr);
    if (canon == "acsr-binning") {
      AcsrOptions o = cfg.acsr;
      o.binning.enable_dp = false;
      return std::make_unique<AcsrEngine<T>>(dev, a, o);
    }
    if (canon == "ooc-csr")
      return std::make_unique<OocCsrEngine<T>>(dev, a, cfg.ooc);
    ACSR_REQUIRE(false, "engine '" << canon
                                   << "' is registered but has no builder");
  };
  const std::uint64_t build_offset = dev.arena().offset();
  auto engine = build();
  // Memo plane (ACSR_MEMO=1): wrap the engine so a simulate() whose key is
  // cached replays its metering (vgpu/memo.hpp). One cached-bool branch
  // when the variable is unset.
  if (vgpu::memo::memo_enabled()) [[unlikely]]
    return std::make_unique<MemoEngine<T>>(
        std::move(engine), memo_recipe(canon, dev, a, cfg), build_offset);
  return engine;
}

}  // namespace acsr::core
