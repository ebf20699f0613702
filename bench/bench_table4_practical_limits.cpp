// Reproduces paper Table 4: "Practical upper limits on the number of
// processors and the corresponding speedups" — the analytical intra-question
// model evaluated over the disk x network bandwidth grid.
//
// Pure analytics: with the TREC-9-calibrated parameters the model should
// land within a few percent of every paper cell (tested in test_models.cpp).

#include <cstdio>

#include "benches.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "model/intra_question.hpp"
#include "support/bench_report.hpp"

int qadist::bench::run_table4_practical_limits(const BenchCli& /*cli*/) {
  using model::IntraQuestionModel;
  using model::IntraQuestionParams;

  struct PaperCell {
    int n;
    double s;
  };
  // Paper Table 4, rows = disk bandwidth, columns = network bandwidth.
  const PaperCell paper[4][4] = {
      {{17, 8.65}, {64, 32.84}, {89, 45.75}, {93, 47.73}},
      {{13, 6.61}, {49, 25.30}, {68, 35.33}, {71, 36.87}},
      {{12, 6.01}, {43, 22.49}, {61, 31.81}, {64, 33.28}},
      {{11, 5.59}, {41, 21.35}, {57, 29.90}, {60, 31.34}},
  };
  const double disks[] = {100, 250, 500, 1000};
  const double nets[] = {1, 10, 100, 1000};

  bench::BenchReport report("table4_practical_limits");
  report.config("protocol", "analytical intra-question model (Eq. 34)");

  TextTable table({"disk \\ net", "1 Mbps", "10 Mbps", "100 Mbps", "1 Gbps"});
  for (int d = 0; d < 4; ++d) {
    std::vector<std::string> n_row{format_double(disks[d], 0) + " Mbps"};
    std::vector<std::string> s_row{"  (paper)"};
    for (int n = 0; n < 4; ++n) {
      IntraQuestionParams p;
      p.disk = Bandwidth::from_mbps(disks[d]);
      p.net = Bandwidth::from_mbps(nets[n]);
      const IntraQuestionModel m(p);
      n_row.push_back("N=" + format_double(m.n_max(), 0) +
                      " S=" + format_double(m.speedup_at_n_max(), 2));
      s_row.push_back("N=" + std::to_string(paper[d][n].n) +
                      " S=" + format_double(paper[d][n].s, 2));
      const obs::Labels labels = {{"disk_mbps", format_double(disks[d], 0)},
                                  {"net_mbps", format_double(nets[n], 0)}};
      report.metric("n_max", labels, m.n_max(),
                    static_cast<double>(paper[d][n].n));
      report.metric("speedup_at_n_max", labels, m.speedup_at_n_max(),
                    paper[d][n].s);
    }
    table.add_row(n_row);
    table.add_row(s_row);
    if (d < 3) table.add_separator();
  }

  std::printf(
      "Table 4 — Practical upper limits on processors (model vs paper)\n%s",
      table.render().c_str());
  std::printf(
      "N_max = T_par/T_seq (Eq. 34); S at N_max = T_1/(2 T_seq). More network "
      "helps; more disk bandwidth *reduces* the useful processor count.\n");
  report.write();
  return 0;
}
