// Membership dynamics (paper Sec. 3's flexibility goal: "processors must
// be able to dynamically join or leave the system pool", with membership
// driven purely by load broadcasts). Not a paper exhibit — a demonstration
// that the pool shrinks and grows mid-run and the schedulers follow.
//
// Scenario: a 12-node DQA cluster under sustained 2x overload; at 1/4 of
// the expected run, four nodes leave (gracefully: their in-flight work
// drains, they receive nothing new); at 1/2, they rejoin.

#include <cstdio>

#include "benches.hpp"
#include "cluster/workload.hpp"
#include "workload/driver.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "support/bench_report.hpp"
#include "support/bench_world.hpp"

int qadist::bench::run_elastic_membership(const BenchCli& /*cli*/) {
  using cluster::Policy;
  const auto& world = bench::bench_world();
  constexpr std::size_t kNodes = 12;

  const auto run = [&](bool elastic) {
    simnet::Simulation sim;
    cluster::SystemConfig cfg;
    cfg.nodes = kNodes;
    cfg.dispatch.policy = Policy::kDqa;
    cfg.partition.ap_chunk = bench::scaled_chunk(world);
    cluster::System system(sim, cfg);
    if (elastic) {
      for (sched::NodeId node = 8; node < 12; ++node) {
        system.schedule_leave(node, 300.0);
        system.schedule_join(node, 900.0);
      }
    }
    workload::RunSpec spec;
    spec.shape = workload::WorkloadShape::kOverload;
    spec.overload.seed = 7;
    spec.overload.reference_disk = world.cost->anchors().reference_disk;
    workload::Driver(system, world.plans).submit(spec);
    struct Result {
      cluster::Metrics metrics;
      std::vector<double> node_work;
    };
    auto metrics = system.run();
    return Result{std::move(metrics), {}};
  };

  const auto stable = run(false);
  const auto elastic = run(true);

  bench::BenchReport report("elastic_membership");
  report.config("nodes", std::int64_t{kNodes});
  report.config("protocol", "DQA 2x overload; 4 nodes out for [300s, 900s]");

  TextTable table({"Scenario", "Throughput (q/min)", "Mean latency (s)",
                   "p95 (s)"});
  table.add_row({"stable 12 nodes",
                 cell(stable.metrics.throughput_qpm(), 2),
                 cell(stable.metrics.latencies.mean(), 1),
                 cell(stable.metrics.latencies.quantile(0.95), 1)});
  table.add_row({"4 nodes out for [300s, 900s]",
                 cell(elastic.metrics.throughput_qpm(), 2),
                 cell(elastic.metrics.latencies.mean(), 1),
                 cell(elastic.metrics.latencies.quantile(0.95), 1)});
  const auto emit = [&report](const char* scenario,
                              const cluster::Metrics& m) {
    const obs::Labels labels = {{"scenario", scenario}};
    report.metric("throughput_qpm", labels, m.throughput_qpm());
    report.metric("mean_latency_seconds", labels, m.latencies.mean());
    report.metric("p95_latency_seconds", labels, m.latencies.quantile(0.95));
  };
  emit("stable", stable.metrics);
  emit("elastic", elastic.metrics);
  std::printf("Elastic membership under sustained overload (96 questions)\n%s",
              table.render().c_str());

  // Per-node work: the leavers must have served visibly less.
  TextTable nodes({"Node", "stable CPU-s", "elastic CPU-s"});
  for (std::size_t n = 0; n < kNodes; ++n) {
    nodes.add_row({"N" + std::to_string(n + 1),
                   cell(stable.metrics.node_cpu_work[n], 0),
                   cell(elastic.metrics.node_cpu_work[n], 0)});
  }
  std::printf("%s", nodes.render().c_str());
  std::printf(
      "Expected shape: throughput/latency degrade gracefully (all questions "
      "still complete); nodes 9-12 serve far less CPU in the elastic run; "
      "no work is lost.\n");
  // The demonstration's core claim: the leavers served visibly less CPU.
  double stable_out = 0.0, elastic_out = 0.0;
  for (std::size_t n = 8; n < kNodes; ++n) {
    stable_out += stable.metrics.node_cpu_work[n];
    elastic_out += elastic.metrics.node_cpu_work[n];
  }
  report.metric("leaver_cpu_work_fraction_of_stable", {},
                stable_out > 0.0 ? elastic_out / stable_out : 0.0);
  report.write();
  return 0;
}
