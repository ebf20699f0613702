// Sharded-corpus scaling study (extension beyond the paper): the paper
// replicates the full TREC collection on every node's disk — fine for 12
// nodes, fatal once the collection outgrows a single disk. This bench
// measures what document-partitioned index shards with R-way replication
// cost and buy against that full-replication baseline.
//
// Three experiments:
//   1. per-node storage vs steady-state throughput across R x cluster
//      size (the acceptance bar: R=2 on 12 nodes cuts the worst node's
//      storage >= 4x while throughput stays within 15% of full
//      replication);
//   2. message loss on top of partial replication: every question still
//      completes (possibly degraded) at a 2% drop rate;
//   3. a holder crash mid-run: failover re-replicates the lost shards in
//      the background and the rejoining node re-validates its copies.
//
// Emits results/BENCH_shard_scaling.json.

#include <cstdio>
#include <string>
#include <vector>

#include "benches.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "shard/shard_map.hpp"
#include "support/bench_report.hpp"
#include "support/bench_world.hpp"

namespace {

using namespace qadist;
using cluster::Policy;

cluster::SystemConfig shard_config(std::size_t nodes, std::size_t num_shards,
                                   std::size_t replication,
                                   std::uint64_t seed,
                                   const bench::BenchWorld& world) {
  cluster::SystemConfig cfg;
  cfg.nodes = nodes;
  cfg.seed = seed;
  cfg.dispatch.policy = Policy::kDqa;
  cfg.partition.ap_chunk = bench::scaled_chunk(world);
  cfg.shard.num_shards = num_shards;
  cfg.shard.replication = replication;  // 0 = full replication baseline
  return cfg;
}

std::string replication_name(std::size_t nodes, std::size_t replication) {
  return replication == 0 || replication >= nodes
             ? std::string("full")
             : "R=" + std::to_string(replication);
}

constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

}  // namespace

int qadist::bench::run_shard_scaling(const BenchCli& cli) {
  const auto& world = bench::bench_world();
  const std::uint64_t seed = cli.seed_or(1000);

  // --smoke shrinks every axis to one tiny configuration (CI).
  const std::vector<std::size_t> node_counts =
      cli.nodes.has_value() ? std::vector<std::size_t>{*cli.nodes}
      : cli.smoke           ? std::vector<std::size_t>{4}
                            : std::vector<std::size_t>{8, 12};
  const std::vector<std::size_t> replications =
      cli.smoke ? std::vector<std::size_t>{0, 2}
                : std::vector<std::size_t>{0, 4, 2};
  // Many more shards than nodes keeps the rendezvous placement balanced
  // (the worst node's replica count approaches the mean), which is what
  // the per-node storage bound depends on.
  const std::size_t num_shards = cli.smoke ? 16 : 128;

  bench::BenchReport report("shard_scaling");
  report.config("seed", static_cast<std::int64_t>(seed));
  report.config("num_shards", static_cast<std::int64_t>(num_shards));
  report.config("smoke", cli.smoke ? std::int64_t{1} : std::int64_t{0});

  // ---- 1. Storage vs throughput across R x cluster size ----------------
  bool bar_checked = false;
  bool bar_passed = true;
  TextTable table({"", "config", "throughput q/min", "t_PR mean s",
                   "max node storage", "storage drop", "throughput vs full"});
  for (const std::size_t nodes : node_counts) {
    double full_qpm = 0.0;
    double full_storage = 0.0;
    for (const std::size_t r : replications) {
      cluster::OverloadWorkload load;
      load.seed = seed;
      load.overload_factor = 2.0;
      const auto cfg = shard_config(nodes, num_shards, r, seed, world);
      const auto m =
          bench::run_zipf_load(world, cfg, load, /*prewarm=*/false);
      const double qpm = m.throughput_qpm();
      const double storage = m.max_storage_bytes();
      const std::string name = replication_name(nodes, r);
      if (r == 0) {
        full_qpm = qpm;
        full_storage = storage;
      }
      const double storage_drop =
          storage > 0.0 ? full_storage / storage : 0.0;
      const double qpm_ratio = full_qpm > 0.0 ? qpm / full_qpm : 0.0;
      table.add_row({std::to_string(nodes) + " nodes", name, cell(qpm, 2),
                     cell(m.t_pr.mean(), 2), cell(storage / kGiB, 2) + " GiB",
                     cell(storage_drop, 2) + "x", cell(100.0 * qpm_ratio, 1) + " %"});
      const obs::Labels labels{{"nodes", std::to_string(nodes)},
                               {"config", name}};
      report.metric("throughput_qpm", labels, qpm);
      report.metric("t_pr_mean_seconds", labels, m.t_pr.mean());
      report.metric("max_node_storage_bytes", labels, storage);
      report.metric("storage_drop_vs_full", labels, storage_drop);
      report.metric("throughput_ratio_vs_full", labels, qpm_ratio);
      // The acceptance bar is stated for R=2 on the paper's 12-node pool.
      if (r == 2 && nodes == 12) {
        bar_checked = true;
        bar_passed = storage_drop >= 4.0 && qpm_ratio >= 0.85;
        std::printf(
            "Acceptance @ %zu nodes, R=2: storage drop %.2fx (>= 4x: %s), "
            "throughput %.1f %% of full (>= 85 %%: %s)\n",
            nodes, storage_drop, storage_drop >= 4.0 ? "yes" : "NO",
            100.0 * qpm_ratio, qpm_ratio >= 0.85 ? "yes" : "NO");
      }
    }
  }
  std::printf(
      "Shard scaling — storage vs throughput (%zu shards, 2x overload, "
      "DQA)\n%s\n",
      num_shards, table.render().c_str());
  if (bar_checked) {
    report.metric("acceptance_bar_passed", {},
                  bar_passed ? 1.0 : 0.0);
  }

  // ---- 2. Partial replication under message loss -----------------------
  {
    const std::size_t nodes = node_counts.front();
    TextTable drops({"", "drop rate", "completed", "degraded",
                     "units unserved", "net retries"});
    for (const std::size_t r : {std::size_t{0}, std::size_t{2}}) {
      for (const double drop : {0.0, cli.drop_rate_or(0.02)}) {
        auto cfg = shard_config(nodes, num_shards, r, seed, world);
        cfg.net.faults.drop_probability = drop;
        cfg.net.reliability.question_deadline = 240.0;
        cluster::OverloadWorkload load;
        load.seed = seed;
        load.overload_factor = 2.0;
        const auto m =
            bench::run_zipf_load(world, cfg, load, /*prewarm=*/false);
        const std::string name = replication_name(nodes, r);
        drops.add_row({name, format_double(drop, 2),
                       std::to_string(m.completed) + "/" +
                           std::to_string(m.submitted),
                       std::to_string(m.questions_degraded),
                       std::to_string(m.shard_units_unserved),
                       std::to_string(m.net_retries)});
        const obs::Labels labels{{"config", name},
                                 {"drop_rate", format_double(drop, 2)}};
        report.metric("completed", labels, static_cast<double>(m.completed));
        report.metric("non_degraded_fraction", labels,
                      m.non_degraded_fraction());
        report.metric("shard_units_unserved", labels,
                      static_cast<double>(m.shard_units_unserved));
      }
    }
    std::printf(
        "Shard scaling — lossy network (%zu nodes, deadline 240 s): every "
        "question completes, degrading rather than hanging\n%s\n",
        nodes, drops.render().c_str());
  }

  // ---- 3. Holder crash: failover, background rebuild, revalidation -----
  {
    const std::size_t nodes = node_counts.back();
    const std::size_t r = 2;
    // The system's placement is pure in (num_shards, nodes, R), so a local
    // probe map identifies a node that actually holds replicas.
    const shard::ShardMap probe(num_shards, nodes, r);
    const auto victim = *probe.ready_source(0);
    const std::size_t held = probe.shards_of(victim).size();

    auto cfg = shard_config(nodes, num_shards, r, seed, world);
    cfg.faults.crashes.push_back(
        cluster::FaultEvent{victim, 60.0, /*restart_after=*/240.0});
    cluster::OverloadWorkload load;
    load.seed = seed;
    load.overload_factor = 2.0;
    const auto m = bench::run_zipf_load(world, cfg, load, /*prewarm=*/false);
    std::printf(
        "Shard scaling — holder crash (%zu nodes, R=2, node %u lost at "
        "t=60 s holding %zu shards):\n"
        "  drained %zu/%zu questions (%zu degraded), %zu failovers, "
        "%zu rebuilds (%.2f GiB copied, mean %.1f s each), "
        "%zu replicas re-validated on rejoin\n\n",
        nodes, victim, held, m.completed, m.submitted, m.questions_degraded,
        m.shard_failovers, m.shard_rebuilds,
        static_cast<double>(m.shard_rebuild_bytes) / kGiB,
        m.shard_rebuild_seconds.mean(), m.shard_revalidations);
    report.metric("crash_drained_questions", {},
                  static_cast<double>(m.completed));
    report.metric("crash_failovers", {},
                  static_cast<double>(m.shard_failovers));
    report.metric("crash_rebuilds", {},
                  static_cast<double>(m.shard_rebuilds));
    report.metric("crash_rebuild_seconds_mean", {},
                  m.shard_rebuild_seconds.mean());
    report.metric("crash_revalidations", {},
                  static_cast<double>(m.shard_revalidations));
  }

  report.write();
  return 0;
}
