// Reproduces paper Figure 10: "Answer processing speedup for the RECV
// partitioning algorithm and various paragraph chunk sizes" on 4- and
// 8-node configurations.
//
// Chunk sizes are expressed in paper-equivalent units (the paper sweeps
// 5-100 paragraphs out of ~880 accepted; we scale to this corpus'
// accepted-paragraph count so the ratio of chunk to total matches).
//
// Shape to reproduce: a U-curve — tiny chunks pay per-chunk transfer
// overhead, huge chunks recreate the uneven-granularity problem; the
// optimum sits near the paper's 40.

#include <cstdio>

#include "benches.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "support/bench_report.hpp"
#include "support/bench_world.hpp"

int qadist::bench::run_fig10_chunk_granularity(const BenchCli& /*cli*/) {
  const auto& world = bench::bench_world();
  constexpr std::size_t kQuestions = 40;

  bench::BenchReport report("fig10_chunk_granularity");
  report.config("questions", std::int64_t{kQuestions});
  report.config("protocol", "low-load (paper Sec. 6.2), RECV AP");

  const auto ap_time = [&](std::size_t nodes, std::size_t chunk) {
    cluster::SystemConfig cfg;
    cfg.partition.ap_strategy = parallel::Strategy::kRecv;
    cfg.partition.ap_chunk = chunk;
    return bench::run_low_load(world, nodes, kQuestions, &cfg).t_ap.mean();
  };

  cluster::SystemConfig base;
  const double base4 = ap_time(1, bench::scaled_chunk(world));

  TextTable table({"Paper-equivalent chunk", "Scaled chunk", "4 processors",
                   "8 processors"});
  for (double paper_chunk : {5.0, 10.0, 20.0, 40.0, 60.0, 80.0, 100.0}) {
    const std::size_t chunk = bench::scaled_chunk(world, paper_chunk);
    const double speedup4 = base4 / ap_time(4, chunk);
    const double speedup8 = base4 / ap_time(8, chunk);
    table.add_row({format_double(paper_chunk, 0), std::to_string(chunk),
                   cell(speedup4, 2), cell(speedup8, 2)});
    const std::string pc = format_double(paper_chunk, 0);
    report.metric("ap_speedup",
                  {{"nodes", "4"}, {"paper_chunk", pc},
                   {"scaled_chunk", std::to_string(chunk)}},
                  speedup4);
    report.metric("ap_speedup",
                  {{"nodes", "8"}, {"paper_chunk", pc},
                   {"scaled_chunk", std::to_string(chunk)}},
                  speedup8);
  }

  std::printf(
      "Figure 10 — AP speedup vs RECV chunk granularity (low load)\n%s",
      table.render().c_str());
  std::printf(
      "Expected shape: speedup peaks at a middle chunk size (paper: ~40 of "
      "~880 paragraphs) and degrades at both extremes.\n");
  report.write();
  return 0;
}
