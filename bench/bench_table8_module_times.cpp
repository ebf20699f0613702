// Reproduces paper Table 8: "Observed module times and average question
// response times" at low load with intra-question (RECV) partitioning, on
// 1/4/8/12 nodes. One question at a time (Sec. 6.2 protocol).
//
// Shape to reproduce: PR and AP shrink with nodes; QP and PO stay flat; PR
// stops improving once nodes exceed the sub-collection count (paper: 8
// sub-collections, so 12 nodes = 8-node PR time).

#include <cstdio>

#include "benches.hpp"
#include "common/table.hpp"
#include "support/bench_report.hpp"
#include "support/bench_world.hpp"

int qadist::bench::run_table8_module_times(const BenchCli& /*cli*/) {
  const auto& world = bench::bench_world();
  constexpr std::size_t kQuestions = 40;

  bench::BenchReport report("table8_module_times");
  report.config("questions", std::int64_t{kQuestions});
  report.config("protocol", "low-load (paper Sec. 6.2), RECV partitioning");

  const char* paper[] = {
      "0.81 38.01 2.06 0.02 117.55 | 158.47",
      "0.81  9.78 0.54 0.02  31.51 |  43.13",
      "0.81  7.34 0.41 0.02  17.86 |  27.07",
      "0.81  7.34 0.41 0.02  11.90 |  21.17",
  };
  const double paper_vals[4][6] = {
      {0.81, 38.01, 2.06, 0.02, 117.55, 158.47},
      {0.81, 9.78, 0.54, 0.02, 31.51, 43.13},
      {0.81, 7.34, 0.41, 0.02, 17.86, 27.07},
      {0.81, 7.34, 0.41, 0.02, 11.90, 21.17},
  };

  TextTable table({"", "QP", "PR", "PS", "PO", "AP", "Response time",
                   "paper QP PR PS PO AP | total"});
  const std::size_t node_counts[] = {1, 4, 8, 12};
  for (int row = 0; row < 4; ++row) {
    const std::size_t nodes = node_counts[row];
    const auto m = bench::run_low_load(world, nodes, kQuestions);
    table.add_row({std::to_string(nodes) + " processors",
                   cell(m.t_qp.mean(), 2), cell(m.t_pr.mean(), 2),
                   cell(m.t_ps.mean(), 2), cell(m.t_po.mean(), 2),
                   cell(m.t_ap.mean(), 2), cell(m.latencies.mean(), 2),
                   paper[row]});
    const std::string n = std::to_string(nodes);
    report.metric("stage_seconds", {{"nodes", n}, {"stage", "qp"}}, m.t_qp,
                  paper_vals[row][0]);
    report.metric("stage_seconds", {{"nodes", n}, {"stage", "pr"}}, m.t_pr,
                  paper_vals[row][1]);
    report.metric("stage_seconds", {{"nodes", n}, {"stage", "ps"}}, m.t_ps,
                  paper_vals[row][2]);
    report.metric("stage_seconds", {{"nodes", n}, {"stage", "po"}}, m.t_po,
                  paper_vals[row][3]);
    report.metric("stage_seconds", {{"nodes", n}, {"stage", "ap"}}, m.t_ap,
                  paper_vals[row][4]);
    report.metric("response_seconds", {{"nodes", n}}, m.latencies,
                  paper_vals[row][5]);
  }

  std::printf(
      "Table 8 — Observed module times at low load, RECV partitioning "
      "(%zu questions, seconds)\n%s",
      kQuestions, table.render().c_str());
  std::printf(
      "Expected shape: PR/PS/AP shrink with nodes, QP/PO constant, PR "
      "saturates at the 8 sub-collections.\n");
  report.write();
  return 0;
}
