// Fault injection: what does losing a node mid-run cost each AP
// partitioning strategy? Not a paper exhibit — the paper's cluster ran
// for months (Sec. 5) and the strategies differ in how much work a crash
// strands: SEND/ISEND lose the whole partition of the dead node and
// re-partition it over the survivors, RECV loses only the in-flight
// chunk (the shared deque keeps the rest).
//
// Scenario: an 8-node DQA cluster under sustained 2x overload; two nodes
// crash (no restart) at 1/4 and 1/2 of the expected run. Each strategy is
// run fault-free and faulted with an identical question sequence.

#include <cstdio>

#include "benches.hpp"
#include "cluster/workload.hpp"
#include "workload/driver.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "support/bench_report.hpp"
#include "support/bench_world.hpp"

int qadist::bench::run_fault_recovery(const BenchCli& cli) {
  using cluster::Policy;
  using parallel::Strategy;
  const auto& world = bench::bench_world();
  const std::size_t nodes = cli.nodes_or(cli.smoke ? 4 : 8);
  // Message drops compound the crash scenario: the reliability envelope
  // retries them, so every question still completes, at a latency cost.
  const double drop_rate = cli.drop_rate_or(0.0);

  // Work-bound makespan estimate: 8*N questions over N nodes.
  const double est_makespan = 8.0 * world.mean_service_seconds();

  const auto run = [&](Strategy strategy, bool faulted) {
    simnet::Simulation sim;
    cluster::SystemConfig cfg;
    cfg.nodes = nodes;
    cfg.dispatch.policy = Policy::kDqa;
    cfg.partition.ap_strategy = strategy;
    cfg.partition.ap_chunk = bench::scaled_chunk(world);
    cfg.net.faults.drop_probability = drop_rate;
    if (faulted) {
      cfg.faults.crashes.push_back(cluster::FaultEvent{
          static_cast<sched::NodeId>(nodes - 2), 0.25 * est_makespan});
      cfg.faults.crashes.push_back(cluster::FaultEvent{
          static_cast<sched::NodeId>(nodes - 1), 0.50 * est_makespan});
    }
    cluster::System system(sim, cfg);
    workload::RunSpec spec;
    spec.shape = workload::WorkloadShape::kOverload;
    spec.overload.seed = cli.seed_or(7);
    spec.overload.reference_disk = world.cost->anchors().reference_disk;
    return workload::Driver(system, world.plans).run(spec).metrics;
  };

  bench::BenchReport report("fault_recovery");
  report.config("nodes", static_cast<std::int64_t>(nodes));
  report.config("crashes", std::int64_t{2});
  report.config("drop_rate", drop_rate);
  report.config("protocol", "high-load 2x, 2 crashes, no restart");

  TextTable table({"AP strategy", "Run", "Makespan (s)", "Mean lat (s)",
                   "p95 (s)", "Legs lost", "Items recov",
                   "Recov legs", "Q restarts", "Detect (s)"});
  std::printf("Two crashes at t=%.0fs and t=%.0fs, no restart (8 -> 6 nodes)\n",
              0.25 * est_makespan, 0.50 * est_makespan);
  for (const Strategy strategy :
       {Strategy::kSend, Strategy::kIsend, Strategy::kRecv}) {
    const auto clean = run(strategy, false);
    const auto fault = run(strategy, true);
    if (clean.completed != clean.submitted ||
        fault.completed != fault.submitted) {
      std::printf("ERROR: questions lost (%zu/%zu clean, %zu/%zu faulted)\n",
                  clean.completed, clean.submitted, fault.completed,
                  fault.submitted);
      return 1;
    }
    table.add_row({std::string(to_string(strategy)), "fault-free",
                   cell(clean.makespan, 0), cell(clean.latencies.mean(), 1),
                   cell(clean.latencies.quantile(0.95), 1), "-", "-", "-", "-",
                   "-"});
    table.add_row({"", "2 crashes", cell(fault.makespan, 0),
                   cell(fault.latencies.mean(), 1),
                   cell(fault.latencies.quantile(0.95), 1),
                   std::to_string(fault.legs_lost),
                   std::to_string(fault.items_recovered),
                   std::to_string(fault.recovery_legs),
                   std::to_string(fault.question_restarts),
                   cell(fault.recovery_latency.mean(), 2)});
    const double overhead =
        100.0 * (fault.makespan - clean.makespan) / clean.makespan;
    table.add_row({"", "overhead", cell(overhead, 1) + "%", "", "", "", "", "",
                   "", ""});
    const std::string strat{to_string(strategy)};
    report.metric("makespan_seconds", {{"run", "clean"}, {"strategy", strat}},
                  clean.makespan);
    report.metric("makespan_seconds", {{"run", "faulted"}, {"strategy", strat}},
                  fault.makespan);
    report.metric("latency_seconds", {{"run", "faulted"}, {"strategy", strat}},
                  fault.latencies);
    report.metric("legs_lost", {{"strategy", strat}},
                  static_cast<double>(fault.legs_lost));
    report.metric("items_recovered", {{"strategy", strat}},
                  static_cast<double>(fault.items_recovered));
    report.metric("recovery_legs", {{"strategy", strat}},
                  static_cast<double>(fault.recovery_legs));
    report.metric("question_restarts", {{"strategy", strat}},
                  static_cast<double>(fault.question_restarts));
    report.metric("recovery_latency_seconds", {{"strategy", strat}},
                  fault.recovery_latency);
    report.metric("makespan_overhead_percent", {{"strategy", strat}},
                  overhead);
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "Expected shape: every question completes in every run; RECV strands "
      "only the in-flight chunk per lost leg while SEND/ISEND strand the "
      "dead node's whole partition, so RECV recovers fewer items; most of "
      "the faulted slowdown is capacity loss (6 survivors), not recovery.\n");
  report.write();
  return 0;
}
