// Unreliable network: what does a lossy interconnect cost the DQA
// dispatch policy, and does the reliability envelope (retries + failure
// detector + degraded answers) keep the cluster live? Not a paper exhibit
// — the paper's cluster ran on a dedicated Myrinet-class LAN; this sweeps
// the message drop rate well past anything such a fabric would show and
// adds a scripted partition.
//
// Scenario: a 12-node DQA cluster under the standard high-load protocol.
// Sweep drop rate x AP strategy; each faulted run reuses the fault-free
// run's question sequence. Duplicates arrive at half the drop rate and
// every message jitters by 1-10 ms. The per-question deadline is set from
// the fault-free run (10x its p95 latency), so "degraded" means the
// network made a question pathologically slow, not that the cluster was
// merely busy.
//
// Acceptance (checked here, non-zero exit on violation): at drop rates up
// to 5% every question completes and >= 99% complete non-degraded.

#include <cstdio>
#include <string>
#include <vector>

#include "benches.hpp"
#include "cluster/workload.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "support/bench_report.hpp"
#include "support/bench_world.hpp"

int qadist::bench::run_network_faults(const BenchCli& cli) {
  using cluster::Policy;
  using parallel::Strategy;
  const auto& world = bench::bench_world();
  const std::size_t nodes = cli.nodes_or(cli.smoke ? 4 : 12);
  const std::uint64_t seed = cli.seed_or(7);
  const Policy policy = cli.policy_or(Policy::kDqa);

  const std::vector<double> drop_rates =
      cli.drop_rate.has_value() ? std::vector<double>{*cli.drop_rate}
      : cli.smoke               ? std::vector<double>{0.0, 0.05}
                  : std::vector<double>{0.0, 0.01, 0.02, 0.05, 0.10};

  const auto run = [&](Strategy strategy, double drop_rate,
                       double deadline) {
    cluster::SystemConfig cfg;
    cfg.partition.ap_strategy = strategy;
    cfg.partition.ap_chunk = bench::scaled_chunk(world);
    cfg.net.faults.drop_probability = drop_rate;
    cfg.net.faults.duplicate_probability = drop_rate / 2.0;
    if (drop_rate > 0.0) {
      cfg.net.faults.jitter_min = 0.001;
      cfg.net.faults.jitter_max = 0.010;
    }
    cfg.net.reliability.question_deadline = deadline;
    return bench::run_high_load(world, policy, nodes, seed, &cfg);
  };

  bench::BenchReport report("network_faults");
  report.config("nodes", static_cast<std::int64_t>(nodes));
  report.config("policy", std::string(to_string(policy)));
  report.config("seed", static_cast<std::int64_t>(seed));
  report.config("protocol",
                "high-load 2x; duplicate = drop/2; jitter 1-10 ms; "
                "deadline = 10x fault-free p95");

  TextTable table({"AP strategy", "Drop", "Makespan (s)", "Mean lat (s)",
                   "p95 (s)", "Drops", "Retries", "Fails", "Unreach",
                   "Suspects", "Degraded", "Non-degr"});
  bool acceptance_ok = true;
  for (const Strategy strategy :
       {Strategy::kSend, Strategy::kIsend, Strategy::kRecv}) {
    const std::string strat{to_string(strategy)};
    // Fault-free calibration run: no injector at all (bit-identical to the
    // plain benches) — its p95 anchors the deadline for the faulted runs.
    const auto clean = run(strategy, 0.0, 0.0);
    const double deadline = 10.0 * clean.latencies.quantile(0.95);
    for (const double rate : drop_rates) {
      const auto m = rate == 0.0 ? clean : run(strategy, rate, deadline);
      const double non_degraded = m.non_degraded_fraction();
      table.add_row(
          {strat, cell(100.0 * rate, 0) + "%", cell(m.makespan, 0),
           cell(m.latencies.mean(), 1), cell(m.latencies.quantile(0.95), 1),
           std::to_string(m.net_drops + m.net_partition_drops),
           std::to_string(m.net_retries), std::to_string(m.net_send_failures),
           std::to_string(m.legs_unreachable),
           std::to_string(m.detector_suspicions),
           std::to_string(m.questions_degraded),
           cell(100.0 * non_degraded, 1) + "%"});
      if (m.completed != m.submitted) {
        std::printf("ERROR: %s at %.0f%% drop hung: %zu/%zu completed\n",
                    strat.c_str(), 100.0 * rate, m.completed, m.submitted);
        acceptance_ok = false;
      }
      if (rate <= 0.05 && non_degraded < 0.99) {
        std::printf(
            "ERROR: %s at %.0f%% drop: only %.1f%% non-degraded (need 99%%)\n",
            strat.c_str(), 100.0 * rate, 100.0 * non_degraded);
        acceptance_ok = false;
      }
      const obs::Labels labels = {{"strategy", strat},
                                  {"drop_rate", cell(rate, 2)}};
      report.metric("makespan_seconds", labels, m.makespan);
      report.metric("latency_seconds", labels, m.latencies);
      report.metric("completed_fraction", labels,
                    m.submitted == 0 ? 1.0
                                     : static_cast<double>(m.completed) /
                                           static_cast<double>(m.submitted));
      report.metric("non_degraded_fraction", labels, non_degraded);
      report.metric("net_drops", labels, static_cast<double>(m.net_drops));
      report.metric("net_duplicates", labels,
                    static_cast<double>(m.net_duplicates));
      report.metric("net_retries", labels, static_cast<double>(m.net_retries));
      report.metric("net_send_failures", labels,
                    static_cast<double>(m.net_send_failures));
      report.metric("legs_unreachable", labels,
                    static_cast<double>(m.legs_unreachable));
      report.metric("detector_suspicions", labels,
                    static_cast<double>(m.detector_suspicions));
      report.metric("detector_false_alarms", labels,
                    static_cast<double>(m.detector_false_alarms));
      report.metric("questions_degraded", labels,
                    static_cast<double>(m.questions_degraded));
    }
  }
  std::printf("%s", table.render().c_str());

  // Partition scenario: a lightly lossy fabric plus a scripted window that
  // isolates two nodes for a stretch mid-run. The detector must suspect
  // them (steering new work away), survivors absorb the load, and the
  // isolated pair must rejoin once the window heals.
  {
    const auto clean = run(Strategy::kRecv, 0.0, 0.0);
    const double deadline = 10.0 * clean.latencies.quantile(0.95);
    cluster::SystemConfig cfg;
    cfg.partition.ap_strategy = Strategy::kRecv;
    cfg.partition.ap_chunk = bench::scaled_chunk(world);
    cfg.net.faults.drop_probability = 0.02;
    cfg.net.faults.duplicate_probability = 0.01;
    cfg.net.faults.jitter_min = 0.001;
    cfg.net.faults.jitter_max = 0.010;
    cfg.net.reliability.question_deadline = deadline;
    cfg.net.faults.partitions.push_back(simnet::PartitionWindow{
        0.25 * clean.makespan,
        0.50 * clean.makespan,
        {static_cast<std::uint32_t>(nodes - 2),
         static_cast<std::uint32_t>(nodes - 1)}});
    const auto m = bench::run_high_load(world, policy, nodes, seed, &cfg);
    std::printf(
        "Partition (2 nodes isolated %.0fs-%.0fs): %zu/%zu completed, "
        "%zu degraded, %zu suspicions, %zu deaths, %zu rejoins, "
        "%zu partition drops\n",
        0.25 * clean.makespan, 0.50 * clean.makespan, m.completed,
        m.submitted, m.questions_degraded, m.detector_suspicions,
        m.detector_deaths, m.detector_rejoins, m.net_partition_drops);
    if (m.completed != m.submitted) {
      std::printf("ERROR: partition run hung: %zu/%zu completed\n",
                  m.completed, m.submitted);
      acceptance_ok = false;
    }
    const obs::Labels labels = {{"scenario", "partition"}};
    report.metric("completed_fraction", labels,
                  m.submitted == 0 ? 1.0
                                   : static_cast<double>(m.completed) /
                                         static_cast<double>(m.submitted));
    report.metric("non_degraded_fraction", labels, m.non_degraded_fraction());
    report.metric("net_partition_drops", labels,
                  static_cast<double>(m.net_partition_drops));
    report.metric("detector_suspicions", labels,
                  static_cast<double>(m.detector_suspicions));
    report.metric("detector_deaths", labels,
                  static_cast<double>(m.detector_deaths));
    report.metric("detector_rejoins", labels,
                  static_cast<double>(m.detector_rejoins));
    report.metric("questions_degraded", labels,
                  static_cast<double>(m.questions_degraded));
  }

  std::printf(
      "Expected shape: retries absorb moderate loss (every question "
      "completes at every rate); latency and makespan climb with the drop "
      "rate as backoffs and respawned legs accumulate; at <= 5%% drop at "
      "least 99%% of questions finish non-degraded; the partition window "
      "shows suspicion during the outage and rejoins after it heals.\n");
  report.write();
  if (!acceptance_ok) {
    std::printf("ACCEPTANCE FAILED (see errors above)\n");
    return 1;
  }
  return 0;
}
