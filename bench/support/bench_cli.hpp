#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/names.hpp"

namespace qadist::bench {

/// The command line of the bench program, `qadist_bench [flags] NAME...`.
/// Positional arguments name the benches to run; the flags are shared by
/// all of them (no per-bench argv parsing):
///
///   --nodes N        override the node count (benches with one pool size)
///   --seed S         override the workload seed
///   --policy NAME    DNS | INTER | DQA | TWO-CHOICE (case-insensitive)
///   --drop-rate P    per-message drop probability in [0,1] (fault benches)
///   --brokers B      broker/mediator tier size (0 = flat star)
///   --selectivity F  fraction of shards searched per question, (0,1]
///   --out DIR        results directory (sets QADIST_RESULTS_DIR)
///   --smoke          tiny-config smoke run (CI): benches that honor it
///                    shrink the experiment, others ignore it
///   --help           usage and exit
///
/// Values may be attached with '=' ("--nodes=8") or follow as the next
/// argument ("--nodes 8"). Every flag is optional: a bench passes its own
/// defaults to the *_or accessors, so running a bench with no flags
/// reproduces the published experiment exactly.
struct BenchCli {
  std::vector<std::string> names;  // positional bench names, in order
  std::optional<std::size_t> nodes;
  std::optional<std::uint64_t> seed;
  std::optional<cluster::Policy> policy;
  std::optional<double> drop_rate;
  std::optional<std::size_t> brokers;
  std::optional<double> selectivity;
  std::optional<std::string> out;
  bool smoke = false;

  [[nodiscard]] std::size_t nodes_or(std::size_t fallback) const {
    return nodes.value_or(fallback);
  }
  [[nodiscard]] std::uint64_t seed_or(std::uint64_t fallback) const {
    return seed.value_or(fallback);
  }
  [[nodiscard]] cluster::Policy policy_or(cluster::Policy fallback) const {
    return policy.value_or(fallback);
  }
  [[nodiscard]] double drop_rate_or(double fallback) const {
    return drop_rate.value_or(fallback);
  }
  [[nodiscard]] std::size_t brokers_or(std::size_t fallback) const {
    return brokers.value_or(fallback);
  }
  [[nodiscard]] double selectivity_or(double fallback) const {
    return selectivity.value_or(fallback);
  }

  /// Pure parsing core (no exit, no environment writes): nullopt plus a
  /// message in `error` on a bad flag, value, or name. `args` excludes the
  /// program name.
  [[nodiscard]] static std::optional<BenchCli> try_parse(
      std::span<const char* const> args, std::string* error);
};

/// One subcommand of the bench program: a name and the function that runs
/// the bench and returns its exit status (0 when its acceptance check
/// passes).
struct BenchEntry {
  std::string_view name;
  int (*run)(const BenchCli&);
};

/// Usage text: the flag grammar followed by every bench name in `table`.
[[nodiscard]] std::string usage(std::span<const BenchEntry> table);

/// The bench program's main. `args` excludes the program name. --help
/// prints usage and returns 0; a bad flag, no bench name or an unknown
/// name prints usage and returns 2 before any bench runs. Otherwise it
/// exports --out to QADIST_RESULTS_DIR (BenchReport reads it), runs every
/// named bench in order even after one fails, and returns 1 naming the
/// failed benches on stderr, or 0 when all passed.
int bench_main(std::span<const BenchEntry> table,
               std::span<const char* const> args);

}  // namespace qadist::bench
