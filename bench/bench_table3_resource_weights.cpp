// Reproduces paper Table 3: "Average resource weights measured for the
// TREC-9 question set" — the CPU/disk split of the whole Q/A task, the PR
// module, and the AP module (the weights behind load functions Eq. 4-6).
//
// Our measurement: per-module simulated resource demand composition from
// the calibrated cost model applied to the benchmark plans, evaluated at
// the reference disk bandwidth.

#include <cstdio>

#include "benches.hpp"
#include "common/table.hpp"
#include "support/bench_report.hpp"
#include "support/bench_world.hpp"

int qadist::bench::run_table3_resource_weights(const BenchCli& /*cli*/) {
  const auto& world = bench::bench_world();
  const double disk_bw =
      world.cost->anchors().reference_disk.bytes_per_second;

  double qa_cpu = 0.0, qa_disk = 0.0;
  double pr_cpu = 0.0, pr_disk = 0.0;
  double ap_cpu = 0.0, ap_disk = 0.0;
  for (const auto& plan : world.plans) {
    qa_cpu += plan.qp.cpu_seconds + plan.po.cpu_seconds +
              plan.answer_sort.cpu_seconds;
    for (const auto& u : plan.pr_units) {
      pr_cpu += u.demand.cpu_seconds;
      pr_disk += u.demand.disk_bytes / disk_bw;
      qa_cpu += u.demand.cpu_seconds + u.ps.cpu_seconds;
      qa_disk += u.demand.disk_bytes / disk_bw;
    }
    for (const auto& u : plan.ap_units) {
      ap_cpu += u.demand.cpu_seconds;
      ap_disk += u.demand.disk_bytes / disk_bw;
      qa_cpu += u.demand.cpu_seconds;
      qa_disk += u.demand.disk_bytes / disk_bw;
    }
  }

  const auto fraction = [](double a, double b) { return a / (a + b); };

  bench::BenchReport report("table3_resource_weights");
  report.config("plans", static_cast<std::int64_t>(world.plans.size()));
  report.config("reference_disk_mbps",
                world.cost->anchors().reference_disk.mbps());
  const auto emit = [&](const char* module, double cpu, double disk,
                        double paper_cpu) {
    report.metric("cpu_weight", {{"module", module}}, fraction(cpu, disk),
                  paper_cpu);
    report.metric("disk_weight", {{"module", module}}, fraction(disk, cpu),
                  1.0 - paper_cpu);
  };
  emit("QA", qa_cpu, qa_disk, 0.79);
  emit("PR", pr_cpu, pr_disk, 0.20);
  emit("AP", ap_cpu, ap_disk, 1.00);

  TextTable table({"Module", "CPU", "DISK", "Paper CPU", "Paper DISK"});
  table.add_row({"QA", cell(fraction(qa_cpu, qa_disk)),
                 cell(fraction(qa_disk, qa_cpu)), "0.79", "0.21"});
  table.add_row({"PR", cell(fraction(pr_cpu, pr_disk)),
                 cell(fraction(pr_disk, pr_cpu)), "0.20", "0.80"});
  table.add_row({"AP", cell(fraction(ap_cpu, ap_disk)),
                 cell(fraction(ap_disk, ap_cpu)), "1.00", "0.00"});

  std::printf("Table 3 — Average resource weights (reference disk %.0f Mbps)\n%s",
              world.cost->anchors().reference_disk.mbps(),
              table.render().c_str());
  std::printf(
      "Expected shape: the whole task leans CPU, PR is disk-dominated, AP is "
      "pure CPU — the asymmetry the specialized dispatchers exploit.\n");
  report.write();
  return 0;
}
