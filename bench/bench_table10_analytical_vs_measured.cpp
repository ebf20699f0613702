// Reproduces paper Table 10: "Analytical versus measured question speedup"
// at 4/8/12 nodes. The analytical side is the intra-question model
// parameterized with THIS workload's averages (so the model and the
// simulator describe the same questions); the measured side comes from the
// low-load runs of Table 8.
//
// Shape to reproduce: measured < analytical, gap widening with node count
// (uneven partition granularity — PR has only 8 sub-collections).

#include <cstdio>

#include "benches.hpp"
#include "common/table.hpp"
#include "model/intra_question.hpp"
#include "support/bench_report.hpp"
#include "support/bench_world.hpp"

int qadist::bench::run_table10_analytical_vs_measured(const BenchCli& /*cli*/) {
  const auto& world = bench::bench_world();
  constexpr std::size_t kQuestions = 40;

  // Parameterize the analytical model from the benchmark plans.
  model::IntraQuestionParams params;
  params.t_qp = world.cost->anchors().t_qp;
  params.t_po = world.cost->anchors().t_po;
  double cpu = 0.0, io = 0.0, shipped = 0.0;
  for (const auto& plan : world.plans) {
    for (const auto& u : plan.pr_units) {
      cpu += u.demand.cpu_seconds + u.ps.cpu_seconds;
      io += u.demand.disk_bytes;
      shipped += static_cast<double>(u.bytes_out);
    }
    for (const auto& u : plan.ap_units) {
      cpu += u.demand.cpu_seconds;
      shipped += static_cast<double>(u.bytes_in + u.answer_bytes_out);
    }
  }
  const auto n_plans = static_cast<double>(world.plans.size());
  params.t_cpu_parallel = cpu / n_plans;
  params.v_io = io / n_plans;
  params.w_partition_bytes = shipped / n_plans;
  params.net = Bandwidth::from_mbps(100);
  params.disk = world.cost->anchors().reference_disk;
  const model::IntraQuestionModel analytical(params);

  const auto one = bench::run_low_load(world, 1, kQuestions);

  bench::BenchReport report("table10_analytical_vs_measured");
  report.config("questions", std::int64_t{kQuestions});
  report.config("protocol", "low-load serial (paper Sec. 6.2)");

  const char* paper[] = {"3.84 vs 3.67", "7.34 vs 5.85", "10.60 vs 7.48"};
  const double paper_analytical[] = {3.84, 7.34, 10.60};
  const double paper_measured[] = {3.67, 5.85, 7.48};
  TextTable table({"", "Analytical", "Measured", "paper (analytical vs measured)"});
  const std::size_t node_counts[] = {4, 8, 12};
  for (int row = 0; row < 3; ++row) {
    const std::size_t nodes = node_counts[row];
    const auto m = bench::run_low_load(world, nodes, kQuestions);
    const double measured = one.latencies.mean() / m.latencies.mean();
    table.add_row({std::to_string(nodes) + " processors",
                   cell(analytical.speedup(static_cast<double>(nodes)), 2),
                   cell(measured, 2), paper[row]});
    const obs::Labels labels = {{"nodes", std::to_string(nodes)}};
    report.metric("analytical_speedup", labels,
                  analytical.speedup(static_cast<double>(nodes)),
                  paper_analytical[row]);
    report.metric("measured_speedup", labels, measured, paper_measured[row]);
  }

  std::printf(
      "Table 10 — Analytical vs measured question speedup (low load)\n%s",
      table.render().c_str());
  std::printf(
      "Expected shape: measured below analytical, gap growing with nodes "
      "(uneven partition granularity; only 8 PR sub-collections).\n");
  report.write();
  return 0;
}
