// Multi-user personalization serving: build a web-scale R-MAT graph,
// answer many Random-Walk-with-Restart queries as one batched workload
// (rwr_many over the ACSR SpMM kernels), then serve one-shot queries from
// three tenants through the admission-controlled batch scheduler and
// print the per-tenant bill.
//
//   ./examples/rwr_batch [--scale-log2=12] [--users=32] [--device=titan]
#include <iostream>

#include "apps/rwr_batch.hpp"
#include "common/cli.hpp"
#include "core/acsr_engine.hpp"
#include "graph/rmat.hpp"
#include "prof/report.hpp"

int main(int argc, char** argv) {
  using namespace acsr;
  const Cli cli(argc, argv);

  graph::RmatParams p;
  p.scale = static_cast<int>(cli.get_int("scale-log2", 12));
  p.edges_per_vertex = 12.0;
  p.seed = 2014;
  const mat::Csr<double> adj = mat::Csr<double>::from_coo(graph::rmat(p));
  const mat::Csr<double> w = apps::rwr_matrix(adj);  // built once, shared
  std::cout << "graph: " << w.rows << " vertices, " << w.nnz()
            << " edges\n";

  vgpu::Device dev(
      vgpu::DeviceSpec::by_name(cli.get_or("device", "titan"))
          .scaled_for_corpus(cli.get_int("scale", 64)));
  core::AcsrEngine<double> engine(dev, w);

  // --- batched iterative personalization ---------------------------------
  const int users = static_cast<int>(cli.get_int("users", 32));
  std::vector<mat::index_t> sources;
  for (int u = 0; u < users; ++u)
    sources.push_back((u * 97) % w.rows);
  const auto batch = apps::rwr_batch(engine, sources);
  int converged = 0;
  for (const auto& q : batch.queries) converged += q.converged ? 1 : 0;
  std::cout << users << " RWR queries, " << converged
            << " converged; one batched sweep "
            << batch.spmm_per_iter_s * 1e3 << " ms vs " << users
            << " scalar sweeps " << batch.seq_per_iter_s * 1e3
            << " ms -> amortization " << batch.speedup() << "x\n\n";

  // --- one-shot serving with per-tenant billing --------------------------
  serve::ServeOptions opt;
  opt.max_batch_width = static_cast<int>(cli.get_int("batch-width", 32));
  serve::BatchScheduler<double> sched(engine, opt);
  apps::run_tenant_scenario(sched, w.rows);
  std::cout << "scheduler: " << sched.served_requests() << " requests in "
            << sched.batches() << " batches (avg width "
            << sched.batch_width_avg() << "), simulated makespan "
            << sched.clock_s() * 1e3 << " ms\n";
  prof::print_metric_table(sched.tenants(), 20);
  return 0;
}
