// Self-tests of the benchmark's measurement code (run with
// `python3 perfbench/run.py --selftest`).
//
//   * The forwarding timing wrapper is transparent: through it, y, the
//     simulated seconds and the Counters are bit-identical to the
//     unwrapped engine's, for the scalar and the batched entry points. A
//     wrapper that fell back to the base class's column loop would run k
//     scalar SpMVs instead of one SpMM; the test tells the two apart.
//   * Tail-percentile selection leaves at least 10 samples beyond.
//   * Span self time subtracts the union of the children's intervals.
#include <cstdio>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "bench.hpp"
#include "core/factory.hpp"
#include "core/memo_engine.hpp"
#include "graph/corpus.hpp"
#include "vgpu/memo.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);      \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

using acsr::mat::Csr;
using acsr::mat::DenseBlock;
using acsr::vgpu::Counters;
using acsr::vgpu::Device;
using acsr::vgpu::DeviceSpec;
using perfbench::Span;
using perfbench::Spans;
using perfbench::TimedEngine;

static_assert(std::has_unique_object_representations_v<Counters>,
              "Counters compared bytewise");

bool same(const Counters& a, const Counters& b) {
  return std::memcmp(&a, &b, sizeof(Counters)) == 0;
}

bool same(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

const Csr<double>& matrix() {
  static const Csr<double> a =
      acsr::graph::build_matrix(acsr::graph::corpus_entry("WIK"), 1024, 3);
  return a;
}

DeviceSpec spec() { return DeviceSpec::by_name("titan").scaled_for_corpus(1024); }

DenseBlock<double> block(int width) {
  DenseBlock<double> x(matrix().cols, width);
  perfbench::SplitMix rng(11);
  for (int c = 0; c < width; ++c)
    for (acsr::mat::index_t r = 0; r < x.rows; ++r) x.at(r, c) = rng.unit();
  return x;
}

void wrapper_is_transparent() {
  const Csr<double>& a = matrix();
  Device dev_plain(spec()), dev_wrapped(spec());
  auto plain = acsr::core::make_engine<double>("acsr", dev_plain, a);
  auto inner = acsr::core::make_engine<double>("acsr", dev_wrapped, a);
  Spans spans;
  spans.enabled = true;
  TimedEngine timed(*inner, spans);

  CHECK(timed.name() == plain->name());
  CHECK(&timed.device() == &dev_wrapped);
  CHECK(timed.rows() == a.rows && timed.cols() == a.cols);
  CHECK(timed.nnz() == a.nnz());
  CHECK(&timed.report() == &inner->report());

  // Scalar path.
  const std::vector<double> x = block(1).column(0);
  std::vector<double> y_plain, y_timed;
  const double s_plain = plain->simulate(x, y_plain);
  const double s_timed = timed.simulate(x, y_timed);
  CHECK(s_plain == s_timed);
  CHECK(same(y_plain, y_timed));
  CHECK(same(plain->report().last_run.counters,
             timed.report().last_run.counters));
  plain->apply(x, y_plain);
  timed.apply(x, y_timed);
  CHECK(same(y_plain, y_timed));

  // Batched path: one SpMM, not k scalar SpMVs.
  const int k = 8;
  const DenseBlock<double> xb = block(k);
  DenseBlock<double> yb_plain, yb_timed;
  const double b_plain = plain->simulate_batch(xb, yb_plain);
  const Counters c_plain = plain->report().last_run.counters;
  const double b_timed = timed.simulate_batch(xb, yb_timed);
  CHECK(b_plain == b_timed);
  CHECK(same(yb_plain.data, yb_timed.data));
  CHECK(same(c_plain, timed.report().last_run.counters));
  CHECK(timed.report().last_run.name == "acsr_spmm");
  double loop_s = 0.0;  // what the base class's column loop would charge
  std::vector<double> y;
  for (int c = 0; c < k; ++c) loop_s += plain->simulate(xb.column(c), y);
  CHECK(loop_s != b_timed);
  plain->apply_batch(xb, yb_plain);
  timed.apply_batch(xb, yb_timed);
  CHECK(same(yb_plain.data, yb_timed.data));

  // The wrapper's own accounting: two simulated calls, 1 + k vectors.
  const perfbench::EngineStats& st = timed.stats();
  CHECK(st.calls == 2);
  CHECK(st.vectors == 1 + static_cast<std::uint64_t>(k));
  CHECK(st.sim_s == s_timed + b_timed);
  CHECK(spans.spans().size() == 2);
  CHECK(spans.spans()[1].name == "engine.simulate_batch");
}

void wrapper_classifies_memo_calls() {
  namespace memo = acsr::vgpu::memo;
  memo::MemoCache::instance().clear();
  memo::set_memo_enabled(true);
  Device dev(spec());
  auto e = acsr::core::make_engine<double>("acsr", dev, matrix());
  CHECK(dynamic_cast<acsr::core::MemoEngine<double>*>(e.get()) != nullptr);
  Spans spans;
  TimedEngine timed(*e, spans);
  const std::vector<double> x = block(1).column(0);
  std::vector<double> y1, y2;
  const double t1 = timed.simulate(x, y1);
  const double t2 = timed.simulate(x, y2);
  memo::set_memo_enabled(false);
  CHECK(t1 == t2);
  CHECK(same(y1, y2));
  CHECK(timed.stats().capture_calls == 1);
  CHECK(timed.stats().replay_calls == 1);
}

void tail_selection() {
  using perfbench::samples_beyond;
  using perfbench::tail_quantile;
  CHECK(tail_quantile(10000) == 0.999);
  CHECK(tail_quantile(1000) == 0.99);
  CHECK(tail_quantile(999) == 0.98);
  CHECK(tail_quantile(200) == 0.95);
  CHECK(tail_quantile(100) == 0.9);
  CHECK(tail_quantile(99) == 0.8);
  CHECK(tail_quantile(5) == 0.5);
  for (std::size_t n = 20; n < 5000; n += 7)
    CHECK(samples_beyond(n, tail_quantile(n)) >= 10);
  std::vector<double> v;
  for (int i = 10; i >= 1; --i) v.push_back(i);
  CHECK(perfbench::percentile(v, 0.5) == 5.0);
  CHECK(perfbench::percentile(v, 0.9) == 9.0);
  CHECK(perfbench::percentile(v, 1.0) == 10.0);
  CHECK(perfbench::median({}) == 0.0);
}

void self_time_subtracts_children() {
  // root [0,100] with children [10,30] and [20,50] (overlapping) and
  // [90,120] (clipped to the root); a grandchild [12,14] counts against
  // its parent only.
  const std::vector<Span> s = {
      {"root", 0, 100, -1}, {"a", 10, 30, 0}, {"b", 20, 50, 0},
      {"c", 90, 120, 0},    {"a.x", 12, 14, 1},
  };
  const std::vector<std::int64_t> self = perfbench::self_times(s);
  CHECK(self[0] == 100 - 40 - 10);
  CHECK(self[1] == 20 - 2);
  CHECK(self[2] == 30);
  CHECK(self[3] == 30);
  CHECK(self[4] == 2);

  // The recorder nests by call order; disabled, it records nothing.
  Spans rec;
  rec.open("x");
  rec.close();
  CHECK(rec.spans().empty());
  rec.enabled = true;
  {
    perfbench::ScopedSpan outer(rec, "outer");
    perfbench::ScopedSpan inner(rec, "inner");
  }
  CHECK(rec.spans().size() == 2);
  CHECK(rec.spans()[0].parent == -1 && rec.spans()[1].parent == 0);
  CHECK(rec.spans()[1].start_ns >= rec.spans()[0].start_ns);
  CHECK(rec.spans()[1].end_ns <= rec.spans()[0].end_ns);
}

}  // namespace

int main() {
  wrapper_is_transparent();
  wrapper_classifies_memo_calls();
  tail_selection();
  self_time_subtracts_children();
  if (g_failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
