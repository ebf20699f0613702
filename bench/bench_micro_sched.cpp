// Micro-benchmarks of the scheduling substrate: meta-scheduler cost vs
// pool size, load-table operations, the per-period control-plane sweeps,
// CORI shard selection, and the partitioners — the per-question overheads
// Eq. 15 models as linear scans.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "broker/cori.hpp"
#include "broker/stats.hpp"
#include "common/rng.hpp"
#include "parallel/partition.hpp"
#include "sched/dispatcher.hpp"
#include "sched/failure_detector.hpp"
#include "sched/meta_scheduler.hpp"

namespace {

using namespace qadist;

sched::LoadTable make_table(std::size_t nodes, std::uint64_t seed) {
  sched::LoadTable table;
  Rng rng(seed);
  for (sched::NodeId id = 0; id < nodes; ++id) {
    table.update(id,
                 sched::ResourceLoad{rng.uniform(0.0, 4.0),
                                     rng.uniform(0.0, 4.0)},
                 0.0);
  }
  return table;
}

void BM_MetaSchedule(benchmark::State& state) {
  const auto table = make_table(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sched::meta_schedule(table, sched::kApWeights, 2.0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MetaSchedule)->Arg(4)->Arg(16)->Arg(128)->Arg(1024);

void BM_DecideMigration(benchmark::State& state) {
  const auto table = make_table(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sched::decide_migration(table, 0, sched::kQaWeights, 0.668));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DecideMigration)->Arg(4)->Arg(128)->Arg(1024);

void BM_LoadTableUpdate(benchmark::State& state) {
  auto table = make_table(64, 3);
  double t = 1.0;
  for (auto _ : state) {
    table.update(17, sched::ResourceLoad{1.0, 2.0}, t, 0.9);
    t += 1.0;
  }
}
BENCHMARK(BM_LoadTableUpdate);

// The cluster's monitor loop at N nodes: each period every node beats at
// its own phase, then sweeps the shared detector. One iteration = one
// node's beat + sweep.
void BM_DetectorSweep(benchmark::State& state) {
  const auto nodes = static_cast<sched::NodeId>(state.range(0));
  sched::FailureDetector detector;
  for (sched::NodeId id = 0; id < nodes; ++id) detector.heartbeat(id, 0.0);
  const double phase = 1.0 / static_cast<double>(nodes);
  sched::NodeId next = 0;
  double now = 0.0;
  for (auto _ : state) {
    now += phase;
    detector.heartbeat(next, now);
    benchmark::DoNotOptimize(detector.sweep(now));
    next = next + 1 == nodes ? 0 : next + 1;
  }
}
BENCHMARK(BM_DetectorSweep)->Arg(256);

// Same loop for the load table: one node's broadcast + membership expiry.
void BM_LoadTableExpire(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  auto table = make_table(nodes, 4);
  const double phase = 1.0 / static_cast<double>(nodes);
  sched::NodeId next = 0;
  double now = 0.0;
  for (auto _ : state) {
    now += phase;
    table.update(next, sched::ResourceLoad{1.0, 2.0}, now, 0.5);
    table.expire(now, 3.0);
    next = next + 1 == nodes ? 0 : next + 1;
  }
}
BENCHMARK(BM_LoadTableExpire)->Arg(256);

// CORI top-k over an S-shard collection (k = S/4): Zipf-like term presence
// over a 20k-term vocabulary, 64 questions of 3-8 keywords.
void BM_CoriSelect(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kVocabulary = 20000;
  Rng rng(5);
  std::vector<ir::ShardTermStats> shard_stats(shards);
  for (auto& shard : shard_stats) {
    for (std::size_t t = 0; t < kVocabulary; ++t) {
      if (rng.bernoulli(400.0 / (400.0 + static_cast<double>(t)))) {
        shard.df["t" + std::to_string(t)] =
            static_cast<std::uint32_t>(1 + rng.below(40));
      }
    }
    shard.words = rng.uniform_u64(20000, 60000);
  }
  const auto stats =
      broker::CollectionStats::from_shard_stats(std::move(shard_stats));
  std::vector<std::vector<std::string>> questions(64);
  for (auto& keywords : questions) {
    const std::size_t n = 3 + rng.below(6);
    for (std::size_t i = 0; i < n; ++i) {
      keywords.push_back("t" + std::to_string(rng.below(kVocabulary / 4)));
    }
  }
  const std::size_t k = shards / 4;
  std::size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(broker::select_shards(stats, questions[q], k));
    q = q + 1 == questions.size() ? 0 : q + 1;
  }
}
BENCHMARK(BM_CoriSelect)->Arg(128);

void BM_PartitionSend(benchmark::State& state) {
  const std::vector<double> weights(12, 1.0);
  const auto items = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(parallel::partition_send(items, weights));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PartitionSend)->Arg(100)->Arg(1000)->Arg(10000);

void BM_PartitionIsend(benchmark::State& state) {
  const std::vector<double> weights(12, 1.0);
  const auto items = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(parallel::partition_isend(items, weights));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PartitionIsend)->Arg(100)->Arg(1000)->Arg(10000);

void BM_MakeChunks(benchmark::State& state) {
  const auto items = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(parallel::make_chunks(items, 40));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MakeChunks)->Arg(1000)->Arg(100000);

}  // namespace
