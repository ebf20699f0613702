// Reproduces paper Figure 9: analytical individual-question speedup vs
// processor count: (a) disk fixed at 1 Gbps, network swept over
// 1 Mbps - 1 Gbps; (b) network fixed at 1 Gbps, disk swept over
// 100 Mbps - 1 Gbps.
//
// Shape to reproduce: speedup grows with network bandwidth (a) and
// *shrinks* with disk bandwidth (b) — faster disks shrink the
// parallelizable part, making the constant overhead relatively larger.

#include <cstdio>

#include "benches.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "model/intra_question.hpp"
#include "support/bench_report.hpp"

namespace {

qadist::model::IntraQuestionModel make_model(double disk_mbps,
                                             double net_mbps) {
  qadist::model::IntraQuestionParams p;
  p.disk = qadist::Bandwidth::from_mbps(disk_mbps);
  p.net = qadist::Bandwidth::from_mbps(net_mbps);
  return qadist::model::IntraQuestionModel(p);
}

}  // namespace

int qadist::bench::run_fig9_intra_speedup(const BenchCli& /*cli*/) {
  const double n_values[] = {20, 40, 60, 80, 100, 120, 140, 160, 180, 200};

  bench::BenchReport report("fig9_intra_speedup");
  report.config("protocol", "analytical intra-question model (paper Sec. 5.2)");

  {
    const double nets[] = {1, 10, 100, 1000};
    TextTable table({"Processors", "1 Mbps", "10 Mbps", "100 Mbps", "1 Gbps"});
    for (double n : n_values) {
      std::vector<std::string> row{format_double(n, 0)};
      for (double net : nets) {
        const double speedup = make_model(1000, net).speedup(n);
        row.push_back(cell(speedup, 2));
        report.metric("speedup",
                      {{"processors", format_double(n, 0)},
                       {"disk_mbps", "1000"},
                       {"net_mbps", format_double(net, 0)}},
                      speedup);
      }
      table.add_row(row);
    }
    std::printf(
        "Figure 9(a) — Question speedup, disk 1 Gbps, network swept\n%s\n",
        table.render().c_str());
  }
  {
    const double disks[] = {100, 250, 500, 1000};
    TextTable table(
        {"Processors", "100 Mbps", "250 Mbps", "500 Mbps", "1 Gbps"});
    for (double n : n_values) {
      std::vector<std::string> row{format_double(n, 0)};
      for (double disk : disks) {
        const double speedup = make_model(disk, 1000).speedup(n);
        row.push_back(cell(speedup, 2));
        report.metric("speedup",
                      {{"processors", format_double(n, 0)},
                       {"disk_mbps", format_double(disk, 0)},
                       {"net_mbps", "1000"}},
                      speedup);
      }
      table.add_row(row);
    }
    std::printf(
        "Figure 9(b) — Question speedup, network 1 Gbps, disk swept\n%s",
        table.render().c_str());
  }
  std::printf(
      "Expected: columns grow left-to-right in (a) and shrink left-to-right "
      "in (b); every column saturates (Eq. 31's sequential floor).\n");
  report.write();
  return 0;
}
