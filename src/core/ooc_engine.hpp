// Out-of-core streaming CSR engine (docs/OOC.md).
//
// The semi-external-memory tier of ROADMAP item 1: the matrix does NOT
// live in device memory. It is partitioned at build time into row-slabs
// sized to a device-memory budget; each simulate() streams the slabs
// from a fault-tolerant simulated storage tier (storage/tier.hpp)
// straight into a double-buffered pair of device slab sets — each drive
// read delivers into the set it fills, one copy per slab, verified
// against the checksum stored with the slab at partition time —
// overlapping the next slab's drive read and bin-metadata upload with
// the current slab's compute on a private StreamTimeline (drive streams
// + h2d stream + compute stream). Every call allocates the slab sets from
// the same arena mark (MemoryArena::Rewind), so they sit at the same
// addresses, and meter the same, on every call.
//
// The slab kernel is csr_vector_warp with a *per-row* vector size: slab
// rows are binned by choose_vector_size(row length) — the ACSR binning
// discipline — and each bin launches one grid over its slab-local row
// map, all bins concurrent (ConcurrentGroup, shared L2). Because a
// row's reduction order depends only on its own length, never on where
// a slab boundary falls, the engine's results are bitwise identical for
// every memory budget — which is what lets the differential fuzz
// compare out-of-core against in-core solves, the memo plane replay
// iterations, and the resilient driver swap the engine in mid-solve.
//
// This engine is the terminal rung of ResilientEngine's degradation
// ladder: when every in-core format has failed with DeviceOom, the
// driver rebuilds as "ooc-csr" and the solve completes — slower, but
// within budget — instead of throwing.
#pragma once

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/shape.hpp"
#include "prof/metrics.hpp"
#include "slo/trace.hpp"
#include "spmv/csr_vector.hpp"
#include "spmv/engine.hpp"
#include "storage/tier.hpp"
#include "vgpu/timeline.hpp"

namespace acsr::core {

struct OocOptions {
  /// Device-memory budget for the streamed matrix. 0 derives it from the
  /// device: capacity / 8 — a function of the spec, not of the current
  /// allocation state, so rebuilt engines partition identically.
  std::size_t budget_bytes = 0;
  storage::TierConfig tier{};
  bool use_texture = true;

  /// The budget an engine on `dev` streams under.
  std::size_t resolved_budget(const vgpu::Device& dev) const {
    return budget_bytes != 0 ? budget_bytes : dev.arena().capacity() / 8;
  }

  /// Every field, for a memo key (vgpu/memo.hpp), the budget as
  /// resolved on `dev`.
  void print_key(std::ostream& os, const vgpu::Device& dev) const {
    os << resolved_budget(dev) << ',' << use_texture << ',';
    tier.print_key(os);
  }
};
static_assert(field_count<OocOptions>() == 3,
              "print a new OocOptions field in print_key");

template <class T>
class OocCsrEngine final : public spmv::EngineBase<T> {
 public:
  OocCsrEngine(vgpu::Device& dev, const mat::Csr<T>& a, OocOptions opt = {})
      : spmv::EngineBase<T>(dev, "OOC-CSR"), host_(a), opt_(opt) {
    budget_ = opt_.resolved_budget(dev);
    ACSR_REQUIRE(budget_ > 0, "out-of-core budget must be positive");
    partition();
    // Resident footprint: what the largest two consecutive slab sets take
    // from the arena, since sets i and i+1 are live together while
    // streaming (double buffer).
    this->report_.device_bytes = two_set_peak(
        [this](std::size_t i) { return set_footprint(i); });
  }

  std::size_t budget_bytes() const { return budget_; }
  /// What the budget caps: the matrix slices and bin maps of the largest
  /// two consecutive slab sets. report().device_bytes adds each set's y
  /// buffer and the arena's rounding.
  std::size_t streamed_bytes() const {
    return two_set_peak([this](std::size_t i) {
      return slabs_[i].bytes + slabs_[i].meta_bytes;
    });
  }
  std::size_t num_slabs() const { return slabs_.size(); }
  /// Storage/streaming accounting of the last simulate() (io.* metrics).
  const prof::IoAgg& io_stats() const { return last_io_; }
  /// End-to-end streamed makespan of the last simulate().
  double last_makespan() const { return last_makespan_; }
  /// Slab kernel seconds the last simulate() ran, summed over slabs.
  double last_kernel_s() const { return last_kernel_s_; }
  /// The staged x, and the arena offset the call's slab sets are
  /// allocated from.
  std::string scratch_layout(int width) const override {
    return spmv::EngineBase<T>::scratch_layout(width) + "sets@" +
           std::to_string(sets_at_) + ',';
  }
  /// Every private-timeline entry this engine has enqueued while the slo
  /// plane was enabled, rebased to absolute trace time (each timeline's
  /// origin) — including entries from attempts a fault aborted, whose
  /// timelines the resilient driver discards but whose spans were already
  /// recorded. The span charge-parity test compares per-stream span
  /// charges against it (tests/test_slo.cpp, docs/SLO.md), and the
  /// timeline conformance test checks it against the engine's own
  /// accounting (tests/test_ooc.cpp). Accrues only while tracing.
  const std::vector<vgpu::StreamTimeline::LogEntry>& trace_timeline_log()
      const {
    return trace_log_;
  }

  mat::index_t rows() const override { return host_.rows; }
  mat::index_t cols() const override { return host_.cols; }
  mat::offset_t nnz() const override { return host_.nnz(); }

  /// Host-side functional SpMV in exactly the kernel's reduction order:
  /// each row's spmv::vector_row_value on V = choose_vector_size(length)
  /// lanes. simulate() == apply() element-for-element, independent of the
  /// slab partition.
  void apply(const std::vector<T>& x, std::vector<T>& y) const override {
    ACSR_CHECK(static_cast<mat::index_t>(x.size()) == host_.cols);
    y.assign(static_cast<std::size_t>(host_.rows), T{0});
    const auto ci = vgpu::host_span(host_.col_idx);
    const auto va = vgpu::host_span(host_.vals);
    const auto x_at = spmv::x_reader(vgpu::host_span(x));
    for (std::size_t r = 0; r < y.size(); ++r) {
      const mat::offset_t start = host_.row_off[r];
      const mat::offset_t end = host_.row_off[r + 1];
      if (start == end) continue;  // unbinned: the slab's y stays 0
      const int v =
          spmv::choose_vector_size(static_cast<double>(end - start));
      y[r] = spmv::vector_row_value<T>(v, ci, va, start, end, x_at);
    }
  }

  /// One streamed SpMV. Returns the end-to-end makespan of the private
  /// timeline — drive reads, slab uploads and bin compute with their
  /// overlap — because for an out-of-core solve the transfers ARE the
  /// iteration cost (unlike the in-core engines, whose matrix upload is
  /// a one-time charge outside the measured loop).
  double simulate(const std::vector<T>& x, std::vector<T>& y) override {
    ACSR_CHECK(static_cast<mat::index_t>(x.size()) == host_.cols);
    auto x_dev = this->stage_x(x);
    y.assign(static_cast<std::size_t>(host_.rows), T{0});
    last_io_ = prof::IoAgg{};
    last_makespan_ = 0.0;
    last_kernel_s_ = 0.0;
    if (slabs_.empty()) return 0.0;

    // A private timeline per simulate; its named streams are the span
    // source for this run's upload/compute/drive work (docs/SLO.md).
    const bool traced = slo::slo_enabled();
    vgpu::StreamTimeline tl;
    storage::StorageTier tier(tl, opt_.tier);
    const auto h2d = tl.create_stream("h2d");
    const auto compute = tl.create_stream("compute");

    // The slab sets are allocated from the same arena mark on every call
    // (and on the retry after a fault unwinds one), so each slab's set
    // sits at the same addresses every call: its collisions with the
    // staged x in the sector caches, and with them the metering, repeat
    // exactly. `sets` is declared after the mark, so it is freed first.
    sets_at_ = this->dev_.arena().offset();
    vgpu::MemoryArena::Rewind rewind(this->dev_.arena());
    const std::size_t n = slabs_.size();
    // Slab i's drive read and compute completions, indexed by slab: a
    // fence on one not yet produced is an InvariantError.
    vgpu::StreamTimeline::Completions read_done(n), comp_done(n);
    std::vector<SlabDev> sets(n);
    double stall_s = 0.0;
    vgpu::KernelRun agg{};
    std::uint64_t launches = 0;

    try {
    read_done.push_back(submit_read(tier, sets, 0));
    for (std::size_t i = 0; i < n; ++i) {
      // Prefetch the next slab: its device set is allocated and its drive
      // read delivered into it now. The tier's drive streams advance
      // independently of h2d/compute, bounded by its in-flight window.
      // Double buffer: at most two device slab sets live, so slab i-1's
      // set is released first.
      if (i + 1 < n) {
        if (i >= 1) sets[i - 1] = SlabDev{};
        read_done.push_back(submit_read(tier, sets, i + 1));
      }

      // Re-using the oldest set's space means its compute must have
      // finished before this slab's upload starts.
      if (i >= 2) tl.wait(h2d, comp_done[i - 2]);
      SlabDev& bufs = sets[i];

      // Bin metadata is preprocessing state, not tier data: prefetch its
      // upload ahead of the slab's arrival.
      if (bufs.meta_bytes > 0)
        tl.enqueue(h2d, charge_transfer(bufs.meta_bytes),
                   "prefetch:bins:slab" + std::to_string(i));
      tl.wait(h2d, read_done[i]);
      const auto up_done = tl.enqueue(h2d, charge_transfer(slabs_[i].bytes),
                                      "h2d:slab" + std::to_string(i));

      const double before = tl.now(compute);
      if (up_done.at_s() > before) stall_s += up_done.at_s() - before;
      tl.wait(compute, up_done);
      const double kernel_s = run_slab(i, bufs, x_dev, agg, launches);
      last_kernel_s_ += kernel_s;
      comp_done.push_back(
          tl.enqueue(compute, kernel_s, "spmv:slab" + std::to_string(i)));

      const auto& yh = bufs.y.host();
      std::copy(yh.begin(), yh.end(),
                y.begin() + static_cast<std::ptrdiff_t>(slabs_[i].row_begin));
      tier.poll(tl.now(compute));
    }
    tier.drain();
    } catch (...) {
      // A fault aborts this attempt and the resilient driver retries on a
      // fresh timeline — but the aborted work's spans are already in the
      // tracer, so its log is retained for charge parity too.
      if (traced) [[unlikely]] retain_trace(tl);
      throw;
    }
    const double busy = tl.busy_seconds();
    last_makespan_ = tl.synchronize();
    if (traced) [[unlikely]] retain_trace(tl);

    last_io_ = tier.stats();
    last_io_.stall_s = stall_s;
    // Work minus span: > 0 iff any two streams were ever busy at the
    // same instant — the prefetch/compute overlap the tier exists for.
    last_io_.overlap_s = std::max(0.0, busy - last_makespan_);

    agg.name = "ooc-csr";
    this->report_.last_run = agg;
    return last_makespan_;
  }

 private:
  /// One row-slab of the on-"disk" slab-packed layout: the slab's
  /// row_off slice, col_idx slice and vals slice stored contiguously at
  /// file_offset, with the checksum stored when the slab was written.
  struct Slab {
    mat::index_t row_begin = 0;
    mat::index_t row_end = 0;
    std::size_t file_offset = 0;
    std::size_t bytes = 0;       ///< row_off + col_idx + vals slices
    std::size_t meta_bytes = 0;  ///< bin row maps
    std::uint64_t checksum = 0;  ///< storage::stored_checksum of the slices
    /// Slab-local row ids binned by vector size: bin b holds rows run
    /// with V = 2 << b lanes (the ACSR discipline at slab granularity).
    std::array<std::vector<mat::index_t>, 5> bins;
  };

  /// The double-buffered device-resident set for one slab.
  struct SlabDev {
    vgpu::DeviceBuffer<mat::offset_t> row_off;
    vgpu::DeviceBuffer<mat::index_t> col_idx;
    vgpu::DeviceBuffer<T> vals;
    std::array<vgpu::DeviceBuffer<mat::index_t>, 5> bins;
    vgpu::DeviceBuffer<T> y;
    std::size_t meta_bytes = 0;
  };

  static std::size_t slab_data_bytes(mat::index_t rows, mat::offset_t nz) {
    return (static_cast<std::size_t>(rows) + 1) * sizeof(mat::offset_t) +
           static_cast<std::size_t>(nz) *
               (sizeof(mat::index_t) + sizeof(T));
  }

  /// Greedy row partition: consecutive rows until the slab set would
  /// exceed half the budget (two sets are resident while streaming). A
  /// single row heavier than the cap still gets its own slab — it must
  /// run somewhere.
  void partition() {
    const std::size_t cap = std::max<std::size_t>(budget_ / 2, 4096);
    std::size_t file_offset = 0;
    mat::index_t r = 0;
    while (r < host_.rows) {
      mat::index_t e = r;
      while (e < host_.rows) {
        const mat::offset_t nz =
            host_.row_off[static_cast<std::size_t>(e) + 1] -
            host_.row_off[static_cast<std::size_t>(r)];
        if (e > r && slab_data_bytes(e + 1 - r, nz) > cap) break;
        ++e;
      }
      Slab s;
      s.row_begin = r;
      s.row_end = e;
      s.file_offset = file_offset;
      const mat::offset_t nz = host_.row_off[static_cast<std::size_t>(e)] -
                               host_.row_off[static_cast<std::size_t>(r)];
      s.bytes = slab_data_bytes(e - r, nz);
      // The checksum the slab is written with, chained over its slices in
      // the order submit_read delivers them.
      const auto first = static_cast<std::size_t>(r);
      const auto nz0 = static_cast<std::size_t>(host_.row_off[first]);
      const auto n_nz = static_cast<std::size_t>(nz);
      s.checksum = storage::stored_checksum(
          host_.row_off, first, static_cast<std::size_t>(e - r) + 1);
      s.checksum =
          storage::stored_checksum(host_.col_idx, nz0, n_nz, s.checksum);
      s.checksum = storage::stored_checksum(host_.vals, nz0, n_nz, s.checksum);
      for (mat::index_t row = r; row < e; ++row) {
        const mat::offset_t len =
            host_.row_off[static_cast<std::size_t>(row) + 1] -
            host_.row_off[static_cast<std::size_t>(row)];
        if (len == 0) continue;  // empty rows store nothing; y stays 0
        const int v = spmv::choose_vector_size(static_cast<double>(len));
        int b = 0;
        while ((2 << b) != v) ++b;
        s.bins[static_cast<std::size_t>(b)].push_back(row - r);
      }
      for (const auto& bin : s.bins)
        s.meta_bytes += bin.size() * sizeof(mat::index_t);
      file_offset += s.bytes;
      slabs_.push_back(std::move(s));
      r = e;
    }
  }

  /// Allocate slab i's device set into sets[i] and issue its chunk read
  /// on the tier, delivering straight into the set's buffers; the row
  /// offsets are then rebased in place to the slab's value window.
  /// Returns the read's completion.
  vgpu::StreamTimeline::Event submit_read(storage::StorageTier& tier,
                                          std::vector<SlabDev>& sets,
                                          std::size_t i) {
    const Slab& s = slabs_[i];
    SlabDev& d = sets[i] = make_buffers(i);
    const auto nrows = static_cast<std::size_t>(s.row_end - s.row_begin);
    const auto base = static_cast<std::size_t>(s.row_begin);
    const auto nz0 = static_cast<std::size_t>(host_.row_off[base]);
    const std::size_t nz = d.vals.size();
    auto& row_off = d.row_off.host();
    std::vector<storage::Segment> segs;
    auto add = [&segs](storage::Segment seg) {
      if (seg.bytes > 0) segs.push_back(seg);
    };
    add(storage::make_segment(host_.row_off, base, row_off, nrows + 1));
    add(storage::make_segment(host_.col_idx, nz0, d.col_idx.host(), nz));
    add(storage::make_segment(host_.vals, nz0, d.vals.host(), nz));
    const auto done = tier.read_chunk("slab" + std::to_string(i),
                                      s.file_offset, std::move(segs),
                                      s.checksum);
    const mat::offset_t rebase = row_off.front();
    for (mat::offset_t& o : row_off) o -= rebase;
    return done;
  }

  /// Largest bytes(i) + bytes(i + 1) over consecutive slabs (one slab:
  /// bytes(0)).
  template <class F>
  std::size_t two_set_peak(F bytes) const {
    std::size_t peak = 0;
    for (std::size_t i = 0; i < slabs_.size(); ++i)
      peak = std::max(peak, bytes(i) + (i + 1 < slabs_.size() ? bytes(i + 1)
                                                              : 0));
    return peak;
  }

  /// Arena bytes of the set make_buffers(i) allocates.
  std::size_t set_footprint(std::size_t i) const {
    const Slab& s = slabs_[i];
    const auto nrows = static_cast<std::size_t>(s.row_end - s.row_begin);
    const auto nz = static_cast<std::size_t>(
        host_.row_off[static_cast<std::size_t>(s.row_end)] -
        host_.row_off[static_cast<std::size_t>(s.row_begin)]);
    auto fp = [](std::size_t bytes) {
      return vgpu::MemoryArena::footprint(bytes);
    };
    std::size_t total = fp((nrows + 1) * sizeof(mat::offset_t)) +
                        fp(nz * sizeof(mat::index_t)) + fp(nz * sizeof(T)) +
                        fp(nrows * sizeof(T));
    for (const auto& bin : s.bins)
      if (!bin.empty()) total += fp(bin.size() * sizeof(mat::index_t));
    return total;
  }

  /// Allocate slab i's device set; the tier read fills its matrix slices.
  SlabDev make_buffers(std::size_t i) {
    const Slab& s = slabs_[i];
    const std::string tag = "ooc.slab" + std::to_string(i);
    const auto nrows = static_cast<std::size_t>(s.row_end - s.row_begin);
    const auto nz = static_cast<std::size_t>(
        host_.row_off[static_cast<std::size_t>(s.row_end)] -
        host_.row_off[static_cast<std::size_t>(s.row_begin)]);
    SlabDev d;
    d.row_off = this->dev_.template alloc<mat::offset_t>(nrows + 1,
                                                         tag + ".row_off");
    d.col_idx = this->dev_.template alloc<mat::index_t>(nz, tag + ".col_idx");
    d.vals = this->dev_.template alloc<T>(nz, tag + ".vals");
    for (std::size_t b = 0; b < s.bins.size(); ++b) {
      if (s.bins[b].empty()) continue;
      d.bins[b] = this->dev_.template alloc<mat::index_t>(
          s.bins[b].size(), tag + ".bin" + std::to_string(2 << b));
      d.bins[b].host() = s.bins[b];
    }
    d.y = this->dev_.template alloc<T>(
        static_cast<std::size_t>(s.row_end - s.row_begin), tag + ".y");
    d.meta_bytes = s.meta_bytes;
    return d;
  }

  /// Append this timeline's log, rebased to absolute trace time (see
  /// trace_timeline_log()).
  void retain_trace(const vgpu::StreamTimeline& tl) {
    const double o = tl.origin();
    for (const vgpu::StreamTimeline::LogEntry& e : tl.log())
      trace_log_.push_back({e.stream, o + e.start_s, o + e.end_s, e.tag});
  }

  /// Charge one H2D transfer to the device/report; returns its duration
  /// for the h2d stream.
  double charge_transfer(std::size_t bytes) {
    const vgpu::TransferRun tr = this->dev_.note_transfer(bytes);
    this->report_.h2d_bytes += tr.bytes;
    this->report_.h2d_s += tr.duration_s;
    return tr.duration_s;
  }

  /// Launch slab i's per-bin grids concurrently; returns the group's
  /// combined simulated seconds.
  double run_slab(std::size_t i, SlabDev& d,
                  vgpu::DeviceSpan<const T> x_dev, vgpu::KernelRun& agg,
                  std::uint64_t& launches) {
    const Slab& s = slabs_[i];
    const auto nrows = static_cast<std::size_t>(s.row_end - s.row_begin);
    if (nrows == 0) return 0.0;
    auto rs = d.row_off.cspan().subspan(0, nrows);
    auto re = d.row_off.cspan().subspan(1, nrows);
    auto ci = d.col_idx.cspan();
    auto va = d.vals.cspan();
    auto ys = d.y.span();
    vgpu::ConcurrentGroup group(this->dev_);
    for (std::size_t b = 0; b < s.bins.size(); ++b) {
      if (s.bins[b].empty()) continue;
      const int v = 2 << b;
      const int rows_per_warp = vgpu::kWarpSize / v;
      const long long n_slots =
          static_cast<long long>(s.bins[b].size());
      const long long warps = (n_slots + rows_per_warp - 1) / rows_per_warp;
      vgpu::LaunchConfig cfg;
      cfg.name = "ooc_slab_bin" + std::to_string(v);
      cfg.block_dim = 128;
      cfg.grid_dim = std::max<long long>(1, (warps + 3) / 4);
      cfg.blocks_independent = true;  // injective bin row map, as ACSR's
      auto row_map = d.bins[b].cspan();
      const bool tex = opt_.use_texture;
      const vgpu::KernelRun run = group.launch_warps(
          cfg,
          [&](vgpu::Warp& w) {
            const long long first = w.global_warp() * rows_per_warp;
            if (first >= n_slots) return;
            spmv::csr_vector_warp<T>(w, v, rs, re, ci, va, x_dev, ys,
                                     row_map, n_slots, first, tex);
          },
          [&] {
            spmv::csr_vector_rows<T>(v, rs, re, ci, va, row_map, n_slots,
                                     spmv::x_reader(x_dev), ys);
          });
      if (launches == 0) {
        agg = run;
      } else {
        agg.counters += run.counters;
        agg.duration_s += run.duration_s;
      }
      ++launches;
    }
    return group.runs().empty() ? 0.0 : group.seconds();
  }

  mat::Csr<T> host_;
  OocOptions opt_;
  std::size_t budget_ = 0;
  std::vector<Slab> slabs_;
  prof::IoAgg last_io_;
  double last_makespan_ = 0.0;
  double last_kernel_s_ = 0.0;
  std::uint64_t sets_at_ = 0;  ///< arena offset of the slab-set mark
  std::vector<vgpu::StreamTimeline::LogEntry> trace_log_;
};

/// Shape class of the slab bin grids: the csr_vector structure over a
/// slab-local injective row map (each slab row in at most one bin), with
/// slab-local extent arrays and a slab-local y — the same soundness
/// grounds as the ACSR bin grids (docs/ANALYSIS.md). n_rows here is the
/// *slab* height; col_idx stays global because x is fully resident.
inline analysis::ShapeClass ooc_shape_class() {
  namespace an = acsr::analysis;
  const an::Sym n_rows = an::Sym::param("n_rows");
  const an::Sym n_cols = an::Sym::param("n_cols");
  const an::Sym nnz = an::Sym::param("nnz");
  const an::Sym n_slots = an::Sym::param("n_slots");
  an::ShapeClass sc;
  sc.engine = "ooc-csr";
  sc.params = {an::param("n_rows", 0, "slab rows"),
               an::param("n_cols", 0, "matrix columns"),
               an::param("nnz", 0, "slab non-zeros"),
               an::param("n_slots", 0, "rows in the launched bin"),
               an::param("grid", 1, "launch grid dim")};
  sc.spans = {
      an::index_span("row_start", n_rows, {an::Sym(0), nnz},
                     "slab-rebased per-row begin offsets", true),
      an::index_span("row_end", n_rows, {an::Sym(0), nnz},
                     "slab-rebased per-row end offsets", true),
      an::index_span("col_idx", nnz, {an::Sym(0), n_cols - an::Sym(1)},
                     "column indices (global: x is resident)"),
      an::data_span("vals", nnz, "slab non-zero values"),
      an::data_span("x", n_cols, "input vector"),
      an::data_span("y", n_rows, "slab output vector",
                    /*initialized=*/false),
      an::index_span("ooc.bin_rows", n_slots,
                     {an::Sym(0), n_rows - an::Sym(1)},
                     "slab-local bin row maps (each row in at most one bin)",
                     false, true),
  };
  return sc;
}

}  // namespace acsr::core
