#include "support/bench_cli.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "benches.hpp"

namespace qadist::bench {
namespace {

std::optional<BenchCli> parse(std::vector<const char*> args,
                              std::string* error = nullptr) {
  return BenchCli::try_parse(
      std::span<const char* const>(args.data(), args.size()), error);
}

TEST(BenchCliTest, NoArgumentsYieldsAllDefaults) {
  const auto cli = parse({});
  ASSERT_TRUE(cli.has_value());
  EXPECT_FALSE(cli->nodes.has_value());
  EXPECT_FALSE(cli->seed.has_value());
  EXPECT_FALSE(cli->policy.has_value());
  EXPECT_TRUE(cli->names.empty());
  EXPECT_FALSE(cli->out.has_value());
  EXPECT_FALSE(cli->smoke);
  EXPECT_EQ(cli->nodes_or(12), 12u);
  EXPECT_EQ(cli->seed_or(7), 7u);
  EXPECT_EQ(cli->policy_or(cluster::Policy::kDqa), cluster::Policy::kDqa);
}

TEST(BenchCliTest, ParsesSeparateAndAttachedValues) {
  const auto cli = parse({"--nodes", "8", "--seed=42", "--policy", "inter",
                          "--out", "tmp/results", "--smoke"});
  ASSERT_TRUE(cli.has_value());
  EXPECT_EQ(cli->nodes_or(0), 8u);
  EXPECT_EQ(cli->seed_or(0), 42u);
  EXPECT_EQ(cli->policy_or(cluster::Policy::kDns), cluster::Policy::kInter);
  EXPECT_EQ(cli->out.value_or(""), "tmp/results");
  EXPECT_TRUE(cli->smoke);
}

TEST(BenchCliTest, PolicyNamesAreCaseAndSeparatorInsensitive) {
  EXPECT_EQ(parse({"--policy", "two_choice"})->policy,
            cluster::Policy::kTwoChoice);
  EXPECT_EQ(parse({"--policy", "TWO-CHOICE"})->policy,
            cluster::Policy::kTwoChoice);
}

TEST(BenchCliTest, ParsesDropRate) {
  const auto attached = parse({"--drop-rate=0.05"});
  ASSERT_TRUE(attached.has_value());
  EXPECT_DOUBLE_EQ(attached->drop_rate_or(0.0), 0.05);
  const auto separate = parse({"--drop-rate", "0"});
  ASSERT_TRUE(separate.has_value());
  ASSERT_TRUE(separate->drop_rate.has_value());  // explicit 0, not a default
  EXPECT_DOUBLE_EQ(separate->drop_rate_or(0.5), 0.0);
  EXPECT_DOUBLE_EQ(parse({})->drop_rate_or(0.02), 0.02);
}

TEST(BenchCliTest, ParsesBrokerTierFlags) {
  const auto cli = parse({"--brokers=4", "--selectivity", "0.25"});
  ASSERT_TRUE(cli.has_value());
  EXPECT_EQ(cli->brokers_or(0), 4u);
  EXPECT_DOUBLE_EQ(cli->selectivity_or(1.0), 0.25);
  const auto flat = parse({"--brokers", "0"});
  ASSERT_TRUE(flat.has_value());
  ASSERT_TRUE(flat->brokers.has_value());  // explicit flat star, not a default
  EXPECT_EQ(flat->brokers_or(8), 0u);
  EXPECT_EQ(parse({})->brokers_or(3), 3u);
  EXPECT_DOUBLE_EQ(parse({})->selectivity_or(1.0), 1.0);
}

TEST(BenchCliTest, RejectsBadBrokerTierValues) {
  std::string error;
  EXPECT_FALSE(parse({"--brokers", "-1"}, &error).has_value());
  EXPECT_NE(error.find("--brokers"), std::string::npos);
  EXPECT_FALSE(parse({"--brokers", "many"}, &error).has_value());
  EXPECT_FALSE(parse({"--selectivity", "0"}, &error).has_value());
  EXPECT_NE(error.find("--selectivity"), std::string::npos);
  EXPECT_FALSE(parse({"--selectivity", "1.5"}, &error).has_value());
  EXPECT_FALSE(parse({"--selectivity"}, &error).has_value());
}

TEST(BenchCliTest, RejectsDropRateOutsideUnitInterval) {
  std::string error;
  EXPECT_FALSE(parse({"--drop-rate", "1.5"}, &error).has_value());
  EXPECT_NE(error.find("--drop-rate"), std::string::npos);
  EXPECT_FALSE(parse({"--drop-rate", "-0.1"}, &error).has_value());
  EXPECT_FALSE(parse({"--drop-rate", "lossy"}, &error).has_value());
  EXPECT_FALSE(parse({"--drop-rate", "nan"}, &error).has_value());
  EXPECT_FALSE(parse({"--drop-rate"}, &error).has_value());
}

TEST(BenchCliTest, RejectsBadValuesWithAMessage) {
  std::string error;
  EXPECT_FALSE(parse({"--nodes", "zero"}, &error).has_value());
  EXPECT_NE(error.find("--nodes"), std::string::npos);
  EXPECT_FALSE(parse({"--nodes", "0"}, &error).has_value());
  EXPECT_FALSE(parse({"--seed"}, &error).has_value());
  EXPECT_FALSE(parse({"--policy", "fastest"}, &error).has_value());
  EXPECT_NE(error.find("fastest"), std::string::npos);
  EXPECT_FALSE(parse({"--out="}, &error).has_value());
}

TEST(BenchCliTest, RejectsUnknownArguments) {
  std::string error;
  EXPECT_FALSE(parse({"--frobnicate"}, &error).has_value());
  EXPECT_NE(error.find("--frobnicate"), std::string::npos);
  EXPECT_FALSE(parse({"-x"}, &error).has_value());
}

TEST(BenchCliTest, PositionalArgumentsAreBenchNamesInOrder) {
  const auto cli = parse({"table9_overhead", "--nodes", "4", "fig7_traces"});
  ASSERT_TRUE(cli.has_value());
  EXPECT_EQ(cli->names,
            (std::vector<std::string>{"table9_overhead", "fig7_traces"}));
  EXPECT_EQ(cli->nodes_or(0), 4u);  // a flag's value is not a name
}

TEST(BenchCliTest, HelpIsSignalledThroughTheErrorChannel) {
  std::string error;
  EXPECT_FALSE(parse({"--help"}, &error).has_value());
  EXPECT_EQ(error, "help");
  EXPECT_FALSE(parse({"-h"}, &error).has_value());
  EXPECT_EQ(error, "help");
}

// A stand-in table: each bench counts its runs; "bad" fails.
int g_runs = 0;
int passing_bench(const BenchCli&) {
  ++g_runs;
  return 0;
}
int failing_bench(const BenchCli&) {
  ++g_runs;
  return 1;
}
constexpr BenchEntry kFakeBenches[] = {{"good", passing_bench},
                                       {"bad", failing_bench}};

int drive(std::vector<const char*> args) {
  return bench_main(kFakeBenches,
                    std::span<const char* const>(args.data(), args.size()));
}

TEST(BenchDriverTest, UnknownNameIsRejectedBeforeAnyBenchRuns) {
  g_runs = 0;
  EXPECT_EQ(drive({"good", "nope"}), 2);
  EXPECT_EQ(g_runs, 0);
  EXPECT_EQ(drive({}), 2);  // no name at all
  EXPECT_EQ(drive({"good", "--nodes", "zero"}), 2);
  EXPECT_EQ(g_runs, 0);
}

TEST(BenchDriverTest, RunsEveryNamedBenchEvenAfterAFailure) {
  g_runs = 0;
  EXPECT_EQ(drive({"good", "good"}), 0);
  EXPECT_EQ(g_runs, 2);
  g_runs = 0;
  EXPECT_EQ(drive({"bad", "good"}), 1);
  EXPECT_EQ(g_runs, 2);
}

TEST(BenchDriverTest, TableNamesAreUnique) {
  std::set<std::string_view> seen;
  for (const BenchEntry& entry : kBenches) {
    EXPECT_TRUE(seen.insert(entry.name).second) << entry.name;
  }
}

TEST(BenchDriverTest, HelpListsEveryNameInTheTable) {
  g_runs = 0;
  EXPECT_EQ(drive({"good", "--help"}), 0);  // prints usage(), runs nothing
  EXPECT_EQ(g_runs, 0);
  const std::string text = usage(kBenches);
  for (const BenchEntry& entry : kBenches) {
    EXPECT_NE(text.find("\n  " + std::string(entry.name) + "\n"),
              std::string::npos)
        << entry.name;
  }
}

}  // namespace
}  // namespace qadist::bench
