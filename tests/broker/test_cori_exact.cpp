// score_shards resolves each keyword once through the term dictionary and
// accumulates beliefs per shard from flat arrays. Routing replays depend on
// it producing the very same doubles as the straightforward per-shard loop
// over per-shard df maps, so these tests compare with EXPECT_EQ, not NEAR.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

#include "broker/cori.hpp"
#include "broker/stats.hpp"
#include "common/rng.hpp"
#include "ir/shard_stats.hpp"

namespace qadist::broker {
namespace {

/// CORI exactly as scored from per-shard df maps plus a cf map: every
/// (shard, keyword) pair looks the keyword up again.
std::vector<double> reference_scores(
    const std::vector<ir::ShardTermStats>& shards,
    const std::vector<std::string>& keywords) {
  const std::size_t num_shards = shards.size();
  std::vector<double> scores(num_shards, kCoriDefaultBelief);
  if (num_shards == 0 || keywords.empty()) return scores;
  std::unordered_map<std::string, std::uint32_t> cf_of;
  double total_words = 0.0;
  for (const auto& shard : shards) {
    total_words += static_cast<double>(shard.words);
    for (const auto& [term, df] : shard.df) {
      (void)df;
      ++cf_of[term];
    }
  }
  const double average_words = total_words / static_cast<double>(num_shards);

  const double c = static_cast<double>(num_shards);
  const double avg_cw = std::max(average_words, 1.0);
  const double log_c = std::log(c + 1.0);
  for (std::size_t s = 0; s < num_shards; ++s) {
    const ir::ShardTermStats& shard = shards[s];
    const double cw_ratio = static_cast<double>(shard.words) / avg_cw;
    double belief_sum = 0.0;
    std::size_t scored_terms = 0;
    for (const std::string& keyword : keywords) {
      const auto cf_it = cf_of.find(keyword);
      const std::size_t cf = cf_it == cf_of.end() ? 0 : cf_it->second;
      if (cf == 0) continue;
      ++scored_terms;
      const auto it = shard.df.find(keyword);
      const double df = it == shard.df.end()
                            ? 0.0
                            : static_cast<double>(it->second);
      const double t_belief = df / (df + 50.0 + 150.0 * cw_ratio);
      const double i_belief =
          std::log((c + 0.5) / static_cast<double>(cf)) / log_c;
      belief_sum += kCoriDefaultBelief +
                    (1.0 - kCoriDefaultBelief) * t_belief * i_belief;
    }
    if (scored_terms > 0) {
      scores[s] = belief_sum / static_cast<double>(scored_terms);
    }
  }
  return scores;
}

std::vector<std::size_t> reference_top_k(const std::vector<double>& scores,
                                         std::size_t top_k) {
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return scores[a] > scores[b];
                   });
  order.resize(std::min(std::max<std::size_t>(top_k, 1), order.size()));
  std::sort(order.begin(), order.end());
  return order;
}

std::string term(std::size_t i) { return "t" + std::to_string(i); }

/// Random shard statistics over a `vocabulary`-term space: a term's
/// presence probability falls with its rank, so common terms sit in most
/// shards and rare ones in a few.
std::vector<ir::ShardTermStats> random_shards(Rng& rng, std::size_t shards,
                                              std::size_t vocabulary) {
  std::vector<ir::ShardTermStats> out(shards);
  for (auto& shard : out) {
    for (std::size_t t = 0; t < vocabulary; ++t) {
      if (rng.bernoulli(1.0 / (1.0 + 0.1 * static_cast<double>(t)))) {
        shard.df[term(t)] = static_cast<std::uint32_t>(1 + rng.below(60));
      }
    }
    shard.words = rng.uniform_u64(50, 40000);
    shard.paragraphs = static_cast<std::uint32_t>(1 + rng.below(500));
  }
  return out;
}

/// Keywords drawn from the vocabulary plus some absent terms; duplicates
/// occur naturally and are forced in now and then.
std::vector<std::string> random_keywords(Rng& rng, std::size_t vocabulary) {
  std::vector<std::string> keywords;
  const std::size_t n = rng.below(9);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.bernoulli(0.15)) {
      keywords.push_back("absent" + std::to_string(rng.below(3)));
    } else {
      keywords.push_back(term(rng.below(vocabulary)));
    }
    if (rng.bernoulli(0.1)) keywords.push_back(keywords.back());
  }
  return keywords;
}

void expect_bit_identical(const std::vector<ir::ShardTermStats>& shards,
                          const CollectionStats& stats,
                          const std::vector<std::string>& keywords) {
  const auto want = reference_scores(shards, keywords);
  const auto got = score_shards(stats, keywords);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t s = 0; s < got.size(); ++s) {
    EXPECT_EQ(got[s], want[s]) << "shard " << s;
  }
  const std::size_t n = shards.size();
  for (const std::size_t k : {std::size_t{1}, n / 4, n / 2, n, n + 3}) {
    EXPECT_EQ(select_shards(stats, keywords, k), reference_top_k(want, k))
        << "k " << k;
  }
}

TEST(CoriExactTest, ScoresMatchThePerShardLoopBitForBit) {
  Rng rng(20260514);
  for (const std::size_t shards : {1, 2, 7, 32, 128}) {
    SCOPED_TRACE(shards);
    constexpr std::size_t kVocabulary = 300;
    const auto shard_stats = random_shards(rng, shards, kVocabulary);
    const auto stats = CollectionStats::from_shard_stats(shard_stats);
    for (int q = 0; q < 60; ++q) {
      expect_bit_identical(shard_stats, stats,
                           random_keywords(rng, kVocabulary));
    }
  }
}

TEST(CoriExactTest, DuplicateAndAbsentKeywordsMatchBitForBit) {
  Rng rng(7);
  const auto shard_stats = random_shards(rng, 16, 100);
  const auto stats = CollectionStats::from_shard_stats(shard_stats);
  expect_bit_identical(shard_stats, stats, {"t3", "t3", "t3"});
  expect_bit_identical(shard_stats, stats, {"absent", "t40", "absent"});
  expect_bit_identical(shard_stats, stats, {"absent", "missing"});
  expect_bit_identical(shard_stats, stats, {});
  expect_bit_identical(shard_stats, stats, {"t99", "t0", "t99", "t50", "t0"});
}

TEST(CoriExactTest, TermDictionaryListsShardsAscendingWithTheirDf) {
  Rng rng(99);
  const auto shard_stats = random_shards(rng, 24, 80);
  const auto stats = CollectionStats::from_shard_stats(shard_stats);
  ASSERT_EQ(stats.num_shards(), 24u);
  for (std::size_t t = 0; t < 80; ++t) {
    const auto list = stats.term_shards(term(t));
    std::size_t cf = 0;
    std::size_t next = 0;
    for (std::size_t s = 0; s < shard_stats.size(); ++s) {
      EXPECT_EQ(stats.shard_words(s), shard_stats[s].words);
      const auto it = shard_stats[s].df.find(term(t));
      if (it == shard_stats[s].df.end()) continue;
      ++cf;
      ASSERT_LT(next, list.size());
      EXPECT_EQ(list[next].shard, s);
      EXPECT_EQ(list[next].df, it->second);
      ++next;
    }
    EXPECT_EQ(list.size(), cf);
    EXPECT_EQ(stats.shards_containing(term(t)), cf);
  }
  EXPECT_TRUE(stats.term_shards("absent").empty());
  EXPECT_EQ(stats.shards_containing("absent"), 0u);
}

TEST(CoriExactTest, EmptyCollectionScoresNothing) {
  const CollectionStats stats = CollectionStats::from_shard_stats({});
  EXPECT_TRUE(score_shards(stats, std::vector<std::string>{"t1"}).empty());
  EXPECT_TRUE(select_shards(stats, std::vector<std::string>{"t1"}, 3).empty());
  EXPECT_EQ(stats.average_words(), 0.0);
}

}  // namespace
}  // namespace qadist::broker
