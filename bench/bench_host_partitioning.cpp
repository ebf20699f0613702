// Host companion to Table 11 / Figure 10: evaluates the three partitioning
// strategies against the *measured* per-paragraph cost of the real answer
// processing code on this host.
//
// Wall-clock thread speedups are meaningless on a single-core container,
// so the strategies are compared by their schedule makespan: given the
// measured cost of every accepted paragraph, compute when each worker
// would finish under SEND / ISEND partitions and under RECV
// self-scheduling (greedy: a free worker takes the next chunk). Speedup =
// total work / makespan — the hardware-independent content of Table 11.
//
// The threaded execution itself is still exercised (all strategies must
// return exactly the sequential pipeline's answers).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <queue>
#include <thread>

#include "benches.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "parallel/qa_stages.hpp"
#include "support/bench_report.hpp"
#include "support/bench_world.hpp"

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Makespan of SEND/ISEND fixed partitions: max worker sum.
double partition_makespan(const std::vector<qadist::parallel::Partition>& parts,
                          const std::vector<double>& cost) {
  double makespan = 0.0;
  for (const auto& p : parts) {
    double total = 0.0;
    for (std::size_t i : p.items) total += cost[i];
    makespan = std::max(makespan, total);
  }
  return makespan;
}

/// Makespan of RECV self-scheduling: the earliest-free worker takes the
/// next chunk (classic list scheduling over the chunk sequence).
double recv_makespan(std::size_t workers, std::size_t chunk_size,
                     const std::vector<double>& cost) {
  const auto chunks =
      qadist::parallel::make_chunks(cost.size(), chunk_size);
  std::priority_queue<double, std::vector<double>, std::greater<>> free_at;
  for (std::size_t w = 0; w < workers; ++w) free_at.push(0.0);
  double makespan = 0.0;
  for (const auto& c : chunks) {
    double t = free_at.top();
    free_at.pop();
    for (std::size_t i = c.begin; i < c.end; ++i) t += cost[i];
    free_at.push(t);
    makespan = std::max(makespan, t);
  }
  return makespan;
}

}  // namespace

int qadist::bench::run_host_partitioning(const BenchCli& /*cli*/) {
  using parallel::ExecutorOptions;
  using parallel::Strategy;
  const auto& world = bench::bench_world();
  const auto& engine = *world.engine;

  // Biggest question = most AP work to spread.
  std::size_t pick = 0;
  for (std::size_t i = 0; i < world.questions.size(); ++i) {
    if (world.plans[i].ap_units.size() > world.plans[pick].ap_units.size()) {
      pick = i;
    }
  }
  const auto& q = world.questions[pick];
  auto pq = engine.process_question(q.id, q.text);
  std::vector<qa::ScoredParagraph> scored;
  for (std::size_t sub = 0; sub < engine.subcollection_count(); ++sub) {
    for (auto& p : engine.retrieve(sub, pq)) {
      scored.push_back(engine.score(pq, std::move(p)));
    }
  }
  const auto accepted = engine.order(std::move(scored));
  std::printf(
      "Host AP partitioning over %zu accepted paragraphs "
      "(hardware threads: %u; question: %s)\n",
      accepted.size(), std::thread::hardware_concurrency(), q.text.c_str());

  // Measure the real per-paragraph cost (median of 3 passes per item to
  // de-noise timer jitter on microsecond work).
  std::vector<double> item_cost(accepted.size());
  for (std::size_t i = 0; i < accepted.size(); ++i) {
    double samples[3];
    for (double& s : samples) {
      const double t0 = now_seconds();
      auto answers =
          engine.answer_processor().process_paragraph(pq, accepted[i]);
      asm volatile("" : : "r"(&answers) : "memory");
      s = now_seconds() - t0;
    }
    std::sort(std::begin(samples), std::end(samples));
    item_cost[i] = samples[1];
  }
  double total_cost = 0.0;
  for (double c : item_cost) total_cost += c;
  std::printf("measured sequential AP cost: %s ms\n",
              format_double(total_cost * 1e3, 2).c_str());

  // Schedule speedups derive from wall-clock per-paragraph costs, so they
  // carry the host-measurement "micro_" prefix (loose regression band).
  bench::BenchReport report("host_partitioning");
  report.config("paragraphs", static_cast<std::int64_t>(accepted.size()));
  report.config("protocol", "schedule makespan from measured AP costs");

  {
    TextTable table({"Workers", "SEND", "ISEND", "RECV (chunk 8)", "ideal"});
    for (std::size_t workers : {2u, 4u, 8u, 12u}) {
      const std::vector<double> weights(workers, 1.0);
      const double send = total_cost / partition_makespan(
          parallel::partition_send(item_cost.size(), weights), item_cost);
      const double isend = total_cost / partition_makespan(
          parallel::partition_isend(item_cost.size(), weights), item_cost);
      const double recv =
          total_cost / recv_makespan(workers, 8, item_cost);
      table.add_row({std::to_string(workers), cell(send, 2), cell(isend, 2),
                     cell(recv, 2), std::to_string(workers)});
      const std::string w = std::to_string(workers);
      report.metric("micro_schedule_speedup",
                    {{"strategy", "SEND"}, {"workers", w}}, send);
      report.metric("micro_schedule_speedup",
                    {{"strategy", "ISEND"}, {"workers", w}}, isend);
      report.metric("micro_schedule_speedup",
                    {{"strategy", "RECV"}, {"workers", w}, {"chunk", "8"}},
                    recv);
    }
    std::printf(
        "Schedule speedup from measured per-paragraph costs (cf. Table "
        "11):\n%s\n",
        table.render().c_str());
  }
  {
    TextTable table({"RECV chunk", "Schedule speedup @8 workers"});
    for (std::size_t chunk : {1u, 4u, 8u, 16u, 32u, 74u, 148u}) {
      const double speedup = total_cost / recv_makespan(8, chunk, item_cost);
      table.add_row({std::to_string(chunk), cell(speedup, 2)});
      report.metric("micro_schedule_speedup",
                    {{"strategy", "RECV"}, {"workers", "8"},
                     {"chunk", std::to_string(chunk)}},
                    speedup);
    }
    std::printf(
        "RECV chunk sweep — balance side of Fig. 10's U-curve (the "
        "per-chunk overhead side needs the simulated per-batch costs; see "
        "fig10_chunk_granularity):\n%s\n",
        table.render().c_str());
  }

  // Result-transparency check with the real threaded executor.
  parallel::ThreadPool pool(4);
  const auto reference = engine.answer_paragraphs(pq, accepted);
  bool all_match = true;
  for (Strategy s : {Strategy::kSend, Strategy::kIsend, Strategy::kRecv}) {
    ExecutorOptions options;
    options.strategy = s;
    options.workers = 4;
    options.chunk_size = 8;
    const auto result = parallel::parallel_answer_processing(
        engine, pq, accepted, pool, options);
    bool match = result.answers.size() == reference.size();
    for (std::size_t i = 0; match && i < reference.size(); ++i) {
      match = result.answers[i].candidate == reference[i].candidate;
    }
    if (!match) {
      all_match = false;
      std::printf("WARNING: %s diverged from the sequential answers!\n",
                  std::string(to_string(s)).c_str());
    }
  }
  std::printf(all_match
                  ? "All strategies returned exactly the sequential "
                    "pipeline's answers.\n"
                  : "ANSWER MISMATCH — see warnings above.\n");
  std::printf(
      "Expected shape: SEND below ISEND/RECV (contiguous blocks of a "
      "cost-decreasing array are structurally unbalanced); RECV degrades "
      "as chunks grow coarse.\n");
  report.metric("answers_match_sequential", {}, all_match ? 1.0 : 0.0);
  report.write();
  return 0;
}
