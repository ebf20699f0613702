// Reproduces paper Tables 5, 6 and 7 from one Sec. 6.1 sweep: the DNS /
// INTER / DQA load-balancing policies on 4, 8 and 12 nodes under sustained
// 2x overload, seed-averaged. Every (nodes, policy) cell runs once and
// feeds all three tables:
//
//   Table 5 "System throughput (questions/minute)" — shape to reproduce:
//     DQA > INTER > DNS at every node count, and throughput scaling with
//     nodes;
//   Table 6 "Average question response times (seconds)" — DQA < INTER <
//     DNS at every node count;
//   Table 7 "Number of migrated questions at the three scheduling points"
//     — how often each dispatcher disagreed with the previous placement,
//     for INTER (QA dispatcher only) and DQA (QA + PR + AP), at 32/64/96
//     questions. The embedded PR and AP dispatchers are *active*: they
//     override the question dispatcher's placement for a large fraction of
//     questions (paper: 10/32, 34/64, 43/96 for PR).
//
// Absolute rates differ (simulated hardware, synthetic corpus).

#include <cstdio>

#include "benches.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "support/bench_report.hpp"
#include "support/bench_world.hpp"

int qadist::bench::run_table5_7_high_load(const BenchCli& /*cli*/) {
  using cluster::Policy;
  const auto& world = bench_world();
  constexpr int kSeeds = 10;
  const std::size_t node_counts[] = {4, 8, 12};
  const Policy policies[] = {Policy::kDns, Policy::kInter, Policy::kDqa};

  PolicyResult results[3][3];
  for (int row = 0; row < 3; ++row) {
    for (int col = 0; col < 3; ++col) {
      results[row][col] = run_policy_averaged(world, policies[col],
                                              node_counts[row], kSeeds);
    }
  }

  const auto make_report = [](const char* name) {
    BenchReport report(name);
    report.config("seeds", std::int64_t{kSeeds});
    report.config("protocol", "high-load 2x (paper Sec. 6.1)");
    return report;
  };
  const auto paper_cells = [](const double (&row)[3], int precision) {
    return format_double(row[0], precision) + " / " +
           format_double(row[1], precision) + " / " +
           format_double(row[2], precision);
  };

  // ---- Table 5: throughput --------------------------------------------
  {
    const double paper[3][3] = {
        {2.64, 3.45, 4.18}, {5.04, 5.52, 7.77}, {7.89, 9.71, 12.09}};
    BenchReport report = make_report("table5_throughput");
    TextTable table({"", "DNS", "INTER", "DQA", "paper DNS/INTER/DQA"});
    for (int row = 0; row < 3; ++row) {
      const std::string nodes = std::to_string(node_counts[row]);
      std::vector<std::string> cells{nodes + " processors"};
      for (int col = 0; col < 3; ++col) {
        const PolicyResult& r = results[row][col];
        cells.push_back(cell(r.throughput_qpm, 2));
        report.metric(
            "throughput_qpm",
            {{"nodes", nodes},
             {"policy", std::string(cluster::to_string(policies[col]))}},
            r.throughput_qpm, paper[row][col]);
      }
      cells.push_back(paper_cells(paper[row], 2));
      table.add_row(cells);
    }
    std::printf(
        "Table 5 — System throughput (questions/minute), %d seeds "
        "averaged\n%s",
        kSeeds, table.render().c_str());
    std::printf("Expected shape: DQA > INTER > DNS at every node count.\n\n");
    report.write();
  }

  // ---- Table 6: mean response time -------------------------------------
  {
    const double paper[3][3] = {{143.88, 122.51, 111.85},
                                {135.30, 118.82, 113.53},
                                {132.45, 115.29, 106.03}};
    BenchReport report = make_report("table6_latency");
    TextTable table({"", "DNS", "INTER", "DQA", "paper DNS/INTER/DQA"});
    for (int row = 0; row < 3; ++row) {
      const std::string nodes = std::to_string(node_counts[row]);
      std::vector<std::string> cells{nodes + " processors"};
      for (int col = 0; col < 3; ++col) {
        const PolicyResult& r = results[row][col];
        cells.push_back(cell(r.mean_latency, 1));
        const obs::Labels labels{
            {"nodes", nodes},
            {"policy", std::string(cluster::to_string(policies[col]))}};
        report.metric("mean_latency_seconds", labels, r.mean_latency,
                      paper[row][col]);
        report.metric("p95_latency_seconds", labels, r.p95_latency);
      }
      cells.push_back(paper_cells(paper[row], 1));
      table.add_row(cells);
    }
    std::printf(
        "Table 6 — Average question response times (seconds), %d seeds\n%s",
        kSeeds, table.render().c_str());
    std::printf("Expected shape: DQA < INTER < DNS at every node count.\n\n");
    report.write();
  }

  // ---- Table 7: migrations at the three scheduling points --------------
  {
    const char* paper[] = {"8; 17/10/10", "15; 26/34/33", "23; 37/43/41"};
    const double paper_vals[3][4] = {
        {8, 17, 10, 10}, {15, 26, 34, 33}, {23, 37, 43, 41}};
    BenchReport report = make_report("table7_migrations");
    TextTable table({"Questions (nodes)", "INTER QA", "DQA QA", "DQA PR",
                     "DQA AP", "paper (INTER QA; DQA QA/PR/AP)"});
    for (int row = 0; row < 3; ++row) {
      const std::size_t nodes = node_counts[row];
      const PolicyResult& inter = results[row][1];
      const PolicyResult& dqa = results[row][2];
      table.add_row({std::to_string(8 * nodes) + " (" +
                         std::to_string(nodes) + " processors)",
                     cell(inter.migrations_qa, 1), cell(dqa.migrations_qa, 1),
                     cell(dqa.migrations_pr, 1), cell(dqa.migrations_ap, 1),
                     paper[row]});
      const std::string n = std::to_string(nodes);
      report.metric("migrations",
                    {{"nodes", n}, {"policy", "INTER"}, {"stage", "qa"}},
                    inter.migrations_qa, paper_vals[row][0]);
      report.metric("migrations",
                    {{"nodes", n}, {"policy", "DQA"}, {"stage", "qa"}},
                    dqa.migrations_qa, paper_vals[row][1]);
      report.metric("migrations",
                    {{"nodes", n}, {"policy", "DQA"}, {"stage", "pr"}},
                    dqa.migrations_pr, paper_vals[row][2]);
      report.metric("migrations",
                    {{"nodes", n}, {"policy", "DQA"}, {"stage", "ap"}},
                    dqa.migrations_ap, paper_vals[row][3]);
    }
    std::printf(
        "Table 7 — Migrated questions at the three scheduling points "
        "(%d-seed averages)\n%s",
        kSeeds, table.render().c_str());
    std::printf(
        "Expected shape: PR and AP dispatchers frequently override the "
        "question dispatcher's node choice.\n");
    report.write();
  }
  return 0;
}
