// Selective search + broker tier scaling study (extension beyond the
// paper): the paper's cluster scatter-gathers every question to every
// sub-collection over one shared LAN — fine at 12 nodes, hopeless at
// 64-256, where the coordinator's serial merge and the single wire
// saturate long before the disks do. This bench measures what CORI-style
// collection selection (route each question to the top-k shards its
// keywords actually implicate) plus a two-level broker/mediator tier
// (per-group subtree LANs, brokers that pre-merge their subtree's
// partial answers) buy against that flat exhaustive baseline.
//
// Two experiments:
//   1. throughput and latency across nodes x selectivity, flat star vs
//      brokered tier (B ~ sqrt(N) groups), same question stream;
//   2. answer divergence of selective search: for every question, the
//      real pipeline's top answer over the selected shards vs over all
//      shards (selection is only worth its speedup if the answers stay
//      put).
//
// Self-enforcing acceptance bar: at every swept cluster of >= 64 nodes,
// the brokered tier at the most aggressive selectivity must clear 2x the
// flat exhaustive throughput while the divergence stays <= 5%; the
// process exits non-zero otherwise.
//
// The bench builds its own world: 128 sub-collections (vs the shared
// bench world's 8), so there is a meaningful shard population to select
// from, and per-shard CORI term statistics extracted from the real
// indexes drive routing exactly as cfg.broker.stats does in production.
//
// Emits results/BENCH_selective_search.json.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "benches.hpp"
#include "broker/config.hpp"
#include "broker/cori.hpp"
#include "broker/stats.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "ir/shard_stats.hpp"
#include "support/bench_report.hpp"
#include "support/bench_world.hpp"

namespace {

using namespace qadist;
using cluster::Policy;

struct SelectiveWorld {
  bench::BenchWorld world;
  std::shared_ptr<const broker::CollectionStats> stats;
  std::size_t num_shards = 0;
};

SelectiveWorld build_world(bool smoke) {
  SelectiveWorld out;
  out.num_shards = smoke ? 32 : 128;

  corpus::CorpusConfig cc;
  cc.seed = 4242;
  cc.num_documents = smoke ? 600 : 1500;
  cc.vocabulary_size = smoke ? 8000 : 12000;
  cc.entities_per_type = 250;
  out.world.corpus = corpus::generate_corpus(cc);

  qa::EngineConfig ec;
  ec.subcollections = out.num_shards;
  ec.subcollection_size_ratio = 3.0;
  ec.min_paragraphs_per_subcollection = 10;
  ec.ordering.relative_threshold = 0.25;
  ec.ordering.max_accepted = 400;
  out.world.engine = std::make_unique<qa::Engine>(out.world.corpus, ec);

  out.world.questions =
      corpus::generate_questions(out.world.corpus, smoke ? 24 : 64,
                                 /*seed=*/77);
  out.world.cost =
      std::make_unique<cluster::CostModel>(cluster::CostModel::calibrate(
          *out.world.engine,
          std::span<const corpus::Question>(out.world.questions)
              .subspan(0, std::min<std::size_t>(16,
                                                out.world.questions.size()))));
  out.world.plans.reserve(out.world.questions.size());
  for (const auto& q : out.world.questions) {
    out.world.plans.push_back(
        cluster::make_plan(*out.world.engine, *out.world.cost, q));
  }

  // Per-shard CORI term statistics, extracted from the real indexes the
  // way a QASS v2 shard set persists them.
  std::vector<ir::ShardTermStats> shard_stats;
  shard_stats.reserve(out.num_shards);
  for (std::size_t s = 0; s < out.num_shards; ++s) {
    shard_stats.push_back(ir::extract_term_stats(out.world.engine->index(s)));
  }
  out.stats = std::make_shared<broker::CollectionStats>(
      broker::CollectionStats::from_shard_stats(std::move(shard_stats)));
  return out;
}

cluster::SystemConfig base_config(const SelectiveWorld& sw, std::size_t nodes,
                                  std::uint64_t seed) {
  cluster::SystemConfig cfg;
  cfg.nodes = nodes;
  cfg.seed = seed;
  cfg.dispatch.policy = Policy::kDqa;
  cfg.partition.ap_chunk = bench::scaled_chunk(sw.world);
  cfg.shard.num_shards = sw.num_shards;
  cfg.shard.replication = 2;
  return cfg;
}

cluster::Metrics run_sweep_point(const SelectiveWorld& sw,
                                 const cluster::SystemConfig& cfg,
                                 std::uint64_t seed, std::size_t count) {
  cluster::OverloadWorkload load;
  load.seed = seed;
  // Arrivals at 4x the aggregate exhaustive service rate: fast configs
  // must stay service-limited, not arrival-limited, or the measured
  // speedup would cap at the overload factor.
  load.overload_factor = 4.0;
  load.count = count;
  return bench::run_zipf_load(sw.world, cfg, load, /*prewarm=*/false);
}

/// The broker count the sweep defaults to: ~sqrt(N) groups, the split
/// that balances group fan-out against core fan-in.
std::size_t default_brokers(std::size_t nodes) {
  return std::max<std::size_t>(
      2, static_cast<std::size_t>(std::lround(std::sqrt(
             static_cast<double>(nodes)))));
}

/// Top answer (candidate string) of the real pipeline restricted to a
/// shard subset; empty when no answer survives. `scored_by_sub` caches
/// each sub-collection's scored retrieval so the exhaustive and pruned
/// variants reuse one retrieval pass.
std::string top_answer(const qa::Engine& engine,
                       const qa::ProcessedQuestion& question,
                       const std::vector<std::vector<qa::ScoredParagraph>>&
                           scored_by_sub,
                       const std::vector<std::size_t>& kept) {
  std::vector<qa::ScoredParagraph> pool;
  for (const std::size_t s : kept) {
    pool.insert(pool.end(), scored_by_sub[s].begin(), scored_by_sub[s].end());
  }
  const auto accepted = engine.order(std::move(pool));
  const auto answers = engine.answer_paragraphs(question, accepted);
  return answers.empty() ? std::string() : answers.front().candidate;
}

}  // namespace

int qadist::bench::run_selective_search(const BenchCli& cli) {
  const std::uint64_t seed = cli.seed_or(2000);
  const auto sw = build_world(cli.smoke);
  const std::size_t num_shards = sw.num_shards;

  const std::vector<std::size_t> node_counts =
      cli.nodes.has_value() ? std::vector<std::size_t>{*cli.nodes}
      : cli.smoke           ? std::vector<std::size_t>{64}
                            : std::vector<std::size_t>{12, 64, 128, 256};
  const std::vector<double> selectivities =
      cli.selectivity.has_value() ? std::vector<double>{*cli.selectivity}
      : cli.smoke                 ? std::vector<double>{1.0, 0.25}
                                  : std::vector<double>{1.0, 0.5, 0.25};
  const double aggressive =
      *std::min_element(selectivities.begin(), selectivities.end());

  bench::BenchReport report("selective_search");
  report.config("seed", static_cast<std::int64_t>(seed));
  report.config("num_shards", static_cast<std::int64_t>(num_shards));
  report.config("smoke", cli.smoke ? std::int64_t{1} : std::int64_t{0});

  // ---- 2 (computed first: it is node-independent). Answer divergence --
  // For each selectivity, the fraction of questions whose top pipeline
  // answer changes when the search is restricted to the shards CORI
  // selects — the same select_shards() call the system's router makes.
  std::vector<double> divergence(selectivities.size(), 0.0);
  {
    const qa::Engine& engine = *sw.world.engine;
    std::vector<std::size_t> all(num_shards);
    for (std::size_t s = 0; s < num_shards; ++s) all[s] = s;
    for (const auto& plan : sw.world.plans) {
      std::vector<std::vector<qa::ScoredParagraph>> scored_by_sub(num_shards);
      for (std::size_t s = 0; s < num_shards; ++s) {
        for (auto& p : engine.retrieve(s, plan.processed)) {
          scored_by_sub[s].push_back(engine.score(plan.processed,
                                                  std::move(p)));
        }
      }
      const std::string exhaustive =
          top_answer(engine, plan.processed, scored_by_sub, all);
      for (std::size_t i = 0; i < selectivities.size(); ++i) {
        broker::BrokerConfig knob;
        knob.selectivity = selectivities[i];
        const auto kept = broker::select_shards(
            *sw.stats, plan.processed.keywords,
            knob.effective_top_k(num_shards));
        const std::string pruned =
            top_answer(engine, plan.processed, scored_by_sub, kept);
        if (pruned != exhaustive) divergence[i] += 1.0;
      }
    }
    TextTable table({"selectivity", "shards searched", "answer divergence"});
    for (std::size_t i = 0; i < selectivities.size(); ++i) {
      divergence[i] /= static_cast<double>(sw.world.plans.size());
      broker::BrokerConfig knob;
      knob.selectivity = selectivities[i];
      const std::size_t k = knob.effective_top_k(num_shards);
      table.add_row({format_double(selectivities[i], 2),
                     std::to_string(k) + "/" + std::to_string(num_shards),
                     cell(100.0 * divergence[i], 1) + " %"});
      const obs::Labels labels{
          {"selectivity", format_double(selectivities[i], 2)}};
      report.metric("answer_divergence", labels, divergence[i]);
      report.metric("shards_searched", labels, static_cast<double>(k));
    }
    std::printf(
        "Selective search — answer divergence vs exhaustive (CORI over "
        "%zu shards, %zu questions)\n%s\n",
        num_shards, sw.world.plans.size(), table.render().c_str());
  }

  // ---- 1. Throughput across nodes x selectivity, flat vs brokered -----
  bool bar_checked = false;
  bool bar_passed = true;
  TextTable table({"", "config", "throughput q/min", "latency mean s",
                   "latency p95 s", "vs flat", "degraded"});
  for (const std::size_t nodes : node_counts) {
    const std::size_t count =
        std::min<std::size_t>(8 * nodes, cli.smoke ? 96 : 384);
    const std::size_t brokers = cli.brokers_or(default_brokers(nodes));

    const auto flat =
        run_sweep_point(sw, base_config(sw, nodes, seed), seed, count);
    const double flat_qpm = flat.throughput_qpm();
    table.add_row({std::to_string(nodes) + " nodes", "flat exhaustive",
                   cell(flat_qpm, 2), cell(flat.latencies.mean(), 2),
                   cell(flat.latencies.quantile(0.95), 2), "1.00x",
                   std::to_string(flat.questions_degraded)});
    const obs::Labels flat_labels{{"nodes", std::to_string(nodes)},
                                  {"config", "flat"}};
    report.metric("throughput_qpm", flat_labels, flat_qpm);
    report.metric("latency_mean_seconds", flat_labels, flat.latencies.mean());
    report.metric("non_degraded_fraction", flat_labels,
                  flat.non_degraded_fraction());

    for (const double selectivity : selectivities) {
      auto cfg = base_config(sw, nodes, seed);
      cfg.broker.brokers = brokers;
      cfg.broker.selectivity = selectivity;
      cfg.broker.stats = sw.stats;
      const auto m = run_sweep_point(sw, cfg, seed, count);
      const double qpm = m.throughput_qpm();
      const double ratio = flat_qpm > 0.0 ? qpm / flat_qpm : 0.0;
      const std::string name =
          "B=" + std::to_string(brokers) + " sel=" +
          format_double(selectivity, 2);
      table.add_row({std::to_string(nodes) + " nodes", name, cell(qpm, 2),
                     cell(m.latencies.mean(), 2),
                     cell(m.latencies.quantile(0.95), 2),
                     cell(ratio, 2) + "x",
                     std::to_string(m.questions_degraded)});
      const obs::Labels labels{{"nodes", std::to_string(nodes)},
                               {"config", name}};
      report.metric("throughput_qpm", labels, qpm);
      report.metric("latency_mean_seconds", labels, m.latencies.mean());
      report.metric("throughput_ratio_vs_flat", labels, ratio);
      report.metric("non_degraded_fraction", labels,
                    m.non_degraded_fraction());

      if (nodes >= 64 && selectivity == aggressive) {
        bar_checked = true;
        const std::size_t div_index = static_cast<std::size_t>(
            std::find(selectivities.begin(), selectivities.end(),
                      aggressive) -
            selectivities.begin());
        const bool ok = ratio >= 2.0 && divergence[div_index] <= 0.05;
        bar_passed = bar_passed && ok;
        std::printf(
            "Acceptance @ %zu nodes (%s): %.2fx flat (>= 2x: %s), "
            "divergence %.1f %% (<= 5 %%: %s)\n",
            nodes, name.c_str(), ratio, ratio >= 2.0 ? "yes" : "NO",
            100.0 * divergence[div_index],
            divergence[div_index] <= 0.05 ? "yes" : "NO");
      }
    }
  }
  std::printf(
      "Selective search + broker tier — throughput (%zu shards, R=2, 4x "
      "overload, DQA)\n%s\n",
      num_shards, table.render().c_str());
  if (bar_checked) {
    report.metric("acceptance_bar_passed", {}, bar_passed ? 1.0 : 0.0);
  }

  report.write();
  if (bar_checked && !bar_passed) {
    std::fprintf(stderr,
                 "selective_search: acceptance bar FAILED (see above)\n");
    return 1;
  }
  return 0;
}
