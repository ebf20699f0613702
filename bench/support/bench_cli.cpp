#include "support/bench_cli.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace qadist::bench {

namespace {

constexpr const char* kUsage =
    "usage: qadist_bench [--nodes N] [--seed S] [--policy NAME]\n"
    "                    [--drop-rate P] [--brokers B] [--selectivity F]\n"
    "                    [--out DIR] [--smoke] [--help] NAME...\n"
    "\n"
    "Runs the named benches in order; the flags apply to every one.\n"
    "\n"
    "  --nodes N        override the node count\n"
    "  --seed S         override the workload seed\n"
    "  --policy NAME    DNS | INTER | DQA | TWO-CHOICE\n"
    "  --drop-rate P    per-message drop probability in [0,1]\n"
    "  --brokers B      broker/mediator tier size (0 = flat star)\n"
    "  --selectivity F  fraction of shards searched per question, (0,1]\n"
    "  --out DIR        results directory (default: results)\n"
    "  --smoke          tiny-config smoke run (CI)\n";

/// Splits "--flag=value" / "--flag value" uniformly: on a match, `value`
/// holds the attached or following argument and `index` is advanced past
/// whatever was consumed. A flag that needs a value but has none is an
/// error (signalled by returning true with `value` unset).
bool match_value_flag(std::span<const char* const> args, std::size_t& index,
                      std::string_view flag,
                      std::optional<std::string_view>& value) {
  const std::string_view arg = args[index];
  if (arg == flag) {
    if (index + 1 < args.size()) {
      value = args[++index];
    }
    return true;
  }
  if (arg.size() > flag.size() + 1 && arg.substr(0, flag.size()) == flag &&
      arg[flag.size()] == '=') {
    value = arg.substr(flag.size() + 1);
    return true;
  }
  return false;
}

bool parse_count(std::string_view text, std::uint64_t& out) {
  if (text.empty()) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  out = value;
  return true;
}

bool parse_probability(std::string_view text, double& out) {
  if (text.empty()) return false;
  const std::string copy(text);  // strtod needs a terminator
  char* end = nullptr;
  const double value = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size()) return false;
  if (!(value >= 0.0 && value <= 1.0)) return false;  // rejects NaN too
  out = value;
  return true;
}

}  // namespace

std::optional<BenchCli> BenchCli::try_parse(std::span<const char* const> args,
                                            std::string* error) {
  const auto fail = [&](std::string message) -> std::optional<BenchCli> {
    if (error != nullptr) *error = std::move(message);
    return std::nullopt;
  };
  BenchCli cli;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string_view arg = args[i];
    std::optional<std::string_view> value;
    if (arg == "--help" || arg == "-h") {
      return fail("help");
    }
    if (arg == "--smoke") {
      cli.smoke = true;
      continue;
    }
    if (!arg.empty() && arg[0] != '-') {
      cli.names.emplace_back(arg);
      continue;
    }
    if (match_value_flag(args, i, "--nodes", value)) {
      std::uint64_t n = 0;
      if (!value.has_value() || !parse_count(*value, n) || n == 0) {
        return fail("--nodes expects a positive integer");
      }
      cli.nodes = static_cast<std::size_t>(n);
      continue;
    }
    if (match_value_flag(args, i, "--seed", value)) {
      std::uint64_t s = 0;
      if (!value.has_value() || !parse_count(*value, s)) {
        return fail("--seed expects a non-negative integer");
      }
      cli.seed = s;
      continue;
    }
    if (match_value_flag(args, i, "--policy", value)) {
      if (!value.has_value()) return fail("--policy expects a name");
      const auto policy = cluster::parse_policy(*value);
      if (!policy.has_value()) {
        return fail("unknown policy '" + std::string(*value) +
                    "' (DNS | INTER | DQA | TWO-CHOICE)");
      }
      cli.policy = *policy;
      continue;
    }
    if (match_value_flag(args, i, "--drop-rate", value)) {
      double p = 0.0;
      if (!value.has_value() || !parse_probability(*value, p)) {
        return fail("--drop-rate expects a probability in [0,1]");
      }
      cli.drop_rate = p;
      continue;
    }
    if (match_value_flag(args, i, "--brokers", value)) {
      std::uint64_t b = 0;
      if (!value.has_value() || !parse_count(*value, b)) {
        return fail("--brokers expects a non-negative integer");
      }
      cli.brokers = static_cast<std::size_t>(b);
      continue;
    }
    if (match_value_flag(args, i, "--selectivity", value)) {
      double f = 0.0;
      if (!value.has_value() || !parse_probability(*value, f) || f == 0.0) {
        return fail("--selectivity expects a fraction in (0,1]");
      }
      cli.selectivity = f;
      continue;
    }
    if (match_value_flag(args, i, "--out", value)) {
      if (!value.has_value() || value->empty()) {
        return fail("--out expects a directory");
      }
      cli.out = std::string(*value);
      continue;
    }
    return fail("unknown argument '" + std::string(arg) + "'");
  }
  return cli;
}

std::string usage(std::span<const BenchEntry> table) {
  std::string text = kUsage;
  text += "\nbenches:\n";
  for (const BenchEntry& entry : table) {
    text += "  ";
    text += entry.name;
    text += '\n';
  }
  return text;
}

int bench_main(std::span<const BenchEntry> table,
               std::span<const char* const> args) {
  std::string error;
  const std::optional<BenchCli> cli = BenchCli::try_parse(args, &error);
  if (!cli.has_value() && error == "help") {
    std::printf("%s", usage(table).c_str());
    return 0;
  }
  const auto usage_error = [&table](const std::string& message) {
    std::fprintf(stderr, "qadist_bench: %s\n%s", message.c_str(),
                 usage(table).c_str());
    return 2;
  };
  if (!cli.has_value()) return usage_error(error);
  if (cli->names.empty()) return usage_error("name at least one bench");
  // Resolve every name before running anything: a typo late in a long
  // list must not cost the benches before it.
  std::vector<const BenchEntry*> chosen;
  for (const std::string& name : cli->names) {
    const auto it =
        std::find_if(table.begin(), table.end(),
                     [&name](const BenchEntry& e) { return e.name == name; });
    if (it == table.end()) return usage_error("unknown bench '" + name + "'");
    chosen.push_back(&*it);
  }
  if (cli->out.has_value()) {
    // BenchReport resolves its directory from the environment, so one
    // export covers every report the benches write.
    ::setenv("QADIST_RESULTS_DIR", cli->out->c_str(), /*overwrite=*/1);
  }

  std::vector<std::string_view> failed;
  for (const BenchEntry* entry : chosen) {
    const int status = entry->run(*cli);
    // Keep each bench's table ahead of the next bench's stderr when both
    // streams go to one log.
    std::fflush(stdout);
    if (status != 0) failed.push_back(entry->name);
  }
  if (failed.empty()) return 0;
  std::fprintf(stderr, "qadist_bench: %zu of %zu bench(es) failed:",
               failed.size(), chosen.size());
  for (const std::string_view name : failed) {
    std::fprintf(stderr, " %.*s", static_cast<int>(name.size()), name.data());
  }
  std::fprintf(stderr, "\n");
  return 1;
}

}  // namespace qadist::bench
