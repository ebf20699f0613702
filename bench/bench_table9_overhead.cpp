// Reproduces paper Table 9: "Measured distribution overhead per question"
// — the time spent shipping keywords, paragraphs and answers between nodes
// during intra-question partitioning, at low load on 4/8/12 nodes.
//
// Shape to reproduce: paragraph traffic dominates; the total stays a small
// fraction (< 3%) of the question response time.

#include <cstdio>

#include "benches.hpp"
#include "common/table.hpp"
#include "support/bench_report.hpp"
#include "support/bench_world.hpp"

int qadist::bench::run_table9_overhead(const BenchCli& /*cli*/) {
  const auto& world = bench::bench_world();
  constexpr std::size_t kQuestions = 40;

  bench::BenchReport report("table9_overhead");
  report.config("questions", std::int64_t{kQuestions});
  report.config("protocol", "low-load (paper Sec. 6.2)");

  const char* paper[] = {"0.04 0.19 0.15 0.05 0.01 | 0.44",
                         "0.08 0.24 0.19 0.09 0.01 | 0.61",
                         "0.08 0.24 0.22 0.12 0.01 | 0.67"};
  const double paper_vals[3][6] = {{0.04, 0.19, 0.15, 0.05, 0.01, 0.44},
                                   {0.08, 0.24, 0.19, 0.09, 0.01, 0.61},
                                   {0.08, 0.24, 0.22, 0.12, 0.01, 0.67}};

  TextTable table({"", "Keyword send", "Paragraph recv", "Paragraph send",
                   "Answer recv", "Answer sort", "Total", "% of response",
                   "paper"});
  const std::size_t node_counts[] = {4, 8, 12};
  for (int row = 0; row < 3; ++row) {
    const std::size_t nodes = node_counts[row];
    const auto m = bench::run_low_load(world, nodes, kQuestions);
    const auto& oh = m.overhead;
    const double total = oh.total_mean();
    table.add_row({std::to_string(nodes) + " processors",
                   cell(oh.keyword_send.mean(), 3),
                   cell(oh.paragraph_receive.mean(), 3),
                   cell(oh.paragraph_send.mean(), 3),
                   cell(oh.answer_receive.mean(), 3),
                   cell(oh.answer_sort.mean(), 3), cell(total, 3),
                   cell_percent(total / m.latencies.mean()), paper[row]});
    const std::string n = std::to_string(nodes);
    report.metric("overhead_seconds", {{"component", "keyword_send"},
                                       {"nodes", n}},
                  oh.keyword_send, paper_vals[row][0]);
    report.metric("overhead_seconds", {{"component", "paragraph_receive"},
                                       {"nodes", n}},
                  oh.paragraph_receive, paper_vals[row][1]);
    report.metric("overhead_seconds", {{"component", "paragraph_send"},
                                       {"nodes", n}},
                  oh.paragraph_send, paper_vals[row][2]);
    report.metric("overhead_seconds", {{"component", "answer_receive"},
                                       {"nodes", n}},
                  oh.answer_receive, paper_vals[row][3]);
    report.metric("overhead_seconds", {{"component", "answer_sort"},
                                       {"nodes", n}},
                  oh.answer_sort, paper_vals[row][4]);
    report.metric("overhead_total_seconds", {{"nodes", n}}, total,
                  paper_vals[row][5]);
    report.metric("overhead_fraction_of_response", {{"nodes", n}},
                  total / m.latencies.mean());
  }

  std::printf(
      "Table 9 — Distribution overhead per question at low load (seconds)\n%s",
      table.render().c_str());
  std::printf(
      "Expected shape: paragraph traffic dominates; total < ~3%% of the "
      "question response time.\n");
  report.write();
  return 0;
}
