// Reproduces paper Table 2: "Analysis of Q/A modules" — the percentage of
// the Q/A task time spent in each module, plus whether the module is an
// iterative task and at what granularity.
//
// Two measurements are shown:
//  * simulated — module times from the calibrated cost model at the
//    reference hardware (the 2001-scale system the paper profiles);
//  * host wall — the raw host pipeline, where a modern NVMe-and-GHz
//    machine makes retrieval nearly free and shifts weight onto the
//    text-scanning stages. The contrast is itself the point: the paper's
//    bottleneck profile is a property of its hardware generation, which is
//    why the cost model is calibrated rather than host-measured.

#include <cstdio>

#include "benches.hpp"
#include "common/table.hpp"
#include "support/bench_report.hpp"
#include "support/bench_world.hpp"

int qadist::bench::run_table2_module_breakdown(const BenchCli& /*cli*/) {
  const auto& world = bench::bench_world();
  const double disk_bw =
      world.cost->anchors().reference_disk.bytes_per_second;

  // Simulated breakdown from the plans.
  double sim_qp = 0.0, sim_pr = 0.0, sim_ps = 0.0, sim_po = 0.0,
         sim_ap = 0.0;
  for (const auto& plan : world.plans) {
    sim_qp += plan.qp.cpu_seconds;
    sim_po += plan.po.cpu_seconds;
    for (const auto& u : plan.pr_units) {
      sim_pr += u.demand.cpu_seconds + u.demand.disk_bytes / disk_bw;
      sim_ps += u.ps.cpu_seconds;
    }
    for (const auto& u : plan.ap_units) {
      sim_ap += u.demand.cpu_seconds + u.demand.disk_bytes / disk_bw;
    }
  }
  const double sim_total = sim_qp + sim_pr + sim_ps + sim_po + sim_ap;

  // Host wall-clock breakdown.
  qa::ModuleTimes host;
  for (const auto& q : world.questions) {
    host += world.engine->answer(q).times;
  }
  const double host_total = host.total();

  bench::BenchReport report("table2_module_breakdown");
  report.config("questions",
                static_cast<std::int64_t>(world.questions.size()));
  const auto emit = [&report](const char* module, double sim_share,
                              double host_share, double paper) {
    report.metric("simulated_time_share", {{"module", module}}, sim_share,
                  paper);
    report.metric("micro_host_time_share", {{"module", module}}, host_share);
  };
  emit("QP", sim_qp / sim_total, host.qp / host_total, 0.012);
  emit("PR", sim_pr / sim_total, host.pr / host_total, 0.265);
  emit("PS", sim_ps / sim_total, host.ps / host_total, 0.022);
  emit("PO", sim_po / sim_total, host.po / host_total, 0.001);
  emit("AP", sim_ap / sim_total, host.ap / host_total, 0.697);

  TextTable table({"Module", "Simulated", "Host wall", "Paper (TREC-9)",
                   "Iterative Task?", "Granularity"});
  table.add_row({"QP", cell_percent(sim_qp / sim_total),
                 cell_percent(host.qp / host_total), "1.2 %", "No", ""});
  table.add_row({"PR", cell_percent(sim_pr / sim_total),
                 cell_percent(host.pr / host_total), "26.5 %", "Yes",
                 "Collection"});
  table.add_row({"PS", cell_percent(sim_ps / sim_total),
                 cell_percent(host.ps / host_total), "2.2 %", "Yes",
                 "Paragraph"});
  table.add_row({"PO", cell_percent(sim_po / sim_total),
                 cell_percent(host.po / host_total), "0.1 %", "No", ""});
  table.add_row({"AP", cell_percent(sim_ap / sim_total),
                 cell_percent(host.ap / host_total), "69.7 %", "Yes",
                 "Paragraph"});

  std::printf(
      "Table 2 — Analysis of Q/A modules (%zu questions)\n%s",
      world.questions.size(), table.render().c_str());
  std::printf(
      "Expected shape (simulated column): AP dominates, PR second, QP/PO "
      "negligible; PR, PS and AP are the iterative (partitionable) "
      "modules. The host column shows how 2026 hardware erases the disk "
      "bottleneck — the reason the cost model is calibrated to the paper's "
      "platform.\n");
  report.write();
  return 0;
}
