// CORI collection selection: the documented edge cases are load-bearing
// for routing correctness — an empty question or a term absent from every
// shard must not discriminate (all beliefs collapse to the default), a
// top-k at or above the shard count must be exhaustive search exactly,
// and every tie-break must be deterministic (ascending shard id) so runs
// replay bit-identically.

#include "broker/cori.hpp"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "broker/stats.hpp"
#include "ir/inverted_index.hpp"
#include "ir/shard_stats.hpp"

namespace qadist::broker {
namespace {

// Four one-document shards with mostly disjoint vocabulary: "amsen" only
// in shard 0, "lighthouse" in shards 0 and 1, "harbor" in every shard.
corpus::Collection four_shard_collection() {
  corpus::Collection c;
  const std::vector<std::vector<std::string>> paragraphs = {
      {"amsen lighthouse harbor", "amsen amsen harbor"},
      {"lighthouse harbor keepers"},
      {"harbor ships cargo"},
      {"harbor fishing nets", "fishing village"},
  };
  for (std::size_t i = 0; i < paragraphs.size(); ++i) {
    corpus::Document d;
    d.id = static_cast<std::uint32_t>(i);
    d.title = "doc";
    d.paragraphs = paragraphs[i];
    c.add(std::move(d));
  }
  return c;
}

CollectionStats four_shard_stats() {
  const auto c = four_shard_collection();
  ir::Analyzer analyzer;
  std::vector<ir::InvertedIndex> shards;
  for (std::size_t i = 0; i < 4; ++i) {
    shards.push_back(
        ir::InvertedIndex::build(corpus::SubCollection(&c, i, i + 1),
                                 analyzer));
  }
  return CollectionStats::from_indexes(shards);
}

TEST(CoriTest, EmptyQuestionScoresEveryShardAtTheDefaultBelief) {
  const auto stats = four_shard_stats();
  const auto scores = score_shards(stats, {});
  ASSERT_EQ(scores.size(), 4u);
  for (double s : scores) EXPECT_DOUBLE_EQ(s, kCoriDefaultBelief);
}

TEST(CoriTest, TermAbsentFromEveryShardCannotDiscriminate) {
  const auto stats = four_shard_stats();
  EXPECT_EQ(stats.shards_containing("zeppelin"), 0u);
  const std::vector<std::string> keywords = {"zeppelin"};
  const auto scores = score_shards(stats, keywords);
  ASSERT_EQ(scores.size(), 4u);
  for (double s : scores) EXPECT_DOUBLE_EQ(s, kCoriDefaultBelief);
}

TEST(CoriTest, DiscriminativeTermRanksItsShardFirst) {
  const auto stats = four_shard_stats();
  const std::vector<std::string> keywords = {"amsen"};
  const auto scores = score_shards(stats, keywords);
  ASSERT_EQ(scores.size(), 4u);
  // Only shard 0 contains "amsen": it scores above the default belief,
  // everything else sits exactly at it.
  EXPECT_GT(scores[0], kCoriDefaultBelief);
  for (std::size_t s = 1; s < 4; ++s) {
    EXPECT_DOUBLE_EQ(scores[s], kCoriDefaultBelief);
  }
  EXPECT_EQ(select_shards(stats, keywords, 1),
            (std::vector<std::size_t>{0}));
}

TEST(CoriTest, WiderSpreadTermScoresItsHoldersAboveNonHolders) {
  const auto stats = four_shard_stats();
  EXPECT_EQ(stats.shards_containing("lighthouse"), 2u);
  const std::vector<std::string> keywords = {"lighthouse"};
  const auto scores = score_shards(stats, keywords);
  EXPECT_GT(scores[0], scores[2]);
  EXPECT_GT(scores[1], scores[3]);
  const auto picked = select_shards(stats, keywords, 2);
  EXPECT_EQ(picked, (std::vector<std::size_t>{0, 1}));
}

TEST(CoriTest, TopKAtOrAboveShardCountIsExhaustiveSearch) {
  const auto stats = four_shard_stats();
  const std::vector<std::string> keywords = {"amsen"};
  const std::vector<std::size_t> all = {0, 1, 2, 3};
  EXPECT_EQ(select_shards(stats, keywords, 4), all);
  EXPECT_EQ(select_shards(stats, keywords, 100), all);
}

TEST(CoriTest, TopKClampsUpToOneSoRoutingIsNeverEmpty) {
  const auto stats = four_shard_stats();
  const std::vector<std::string> keywords = {"amsen"};
  EXPECT_EQ(select_shards(stats, keywords, 0),
            (std::vector<std::size_t>{0}));
}

TEST(CoriTest, TiesBreakByAscendingShardId) {
  const auto stats = four_shard_stats();
  // No evidence at all: every shard scores the default belief, so top-2
  // must deterministically be the two lowest ids.
  EXPECT_EQ(select_shards(stats, {}, 2), (std::vector<std::size_t>{0, 1}));
}

TEST(CoriTest, SingleShardCollectionAlwaysSelectsIt) {
  const auto c = four_shard_collection();
  ir::Analyzer analyzer;
  std::vector<ir::InvertedIndex> shards;
  shards.push_back(
      ir::InvertedIndex::build(corpus::SubCollection(&c, 0, 4), analyzer));
  const auto stats = CollectionStats::from_indexes(shards);
  ASSERT_EQ(stats.num_shards(), 1u);
  const std::vector<std::string> keywords = {"harbor"};
  EXPECT_EQ(select_shards(stats, keywords, 1),
            (std::vector<std::size_t>{0}));
  EXPECT_EQ(select_shards(stats, keywords, 8),
            (std::vector<std::size_t>{0}));
}

TEST(CoriTest, FromShardStatsScoresExactlyLikeFromIndexes) {
  // A broker scoring from a loaded QASS v2 stats section must agree
  // bit-for-bit with one scoring from the live indexes.
  const auto c = four_shard_collection();
  ir::Analyzer analyzer;
  std::vector<ir::InvertedIndex> shards;
  std::vector<ir::ShardTermStats> extracted;
  for (std::size_t i = 0; i < 4; ++i) {
    shards.push_back(
        ir::InvertedIndex::build(corpus::SubCollection(&c, i, i + 1),
                                 analyzer));
    extracted.push_back(ir::extract_term_stats(shards.back()));
  }
  const auto live = CollectionStats::from_indexes(shards);
  const auto loaded = CollectionStats::from_shard_stats(std::move(extracted));
  const std::vector<std::string> keywords = {"lighthouse", "harbor"};
  const auto a = score_shards(live, keywords);
  const auto b = score_shards(loaded, keywords);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) EXPECT_DOUBLE_EQ(a[s], b[s]);
}

TEST(CoriTest, CollectionStatsSummaries) {
  const auto stats = four_shard_stats();
  EXPECT_EQ(stats.num_shards(), 4u);
  EXPECT_EQ(stats.shards_containing("harbor"), 4u);
  EXPECT_EQ(stats.shards_containing("amsen"), 1u);
  EXPECT_GT(stats.average_words(), 0.0);
  // avg_cw is the mean of the per-shard word totals.
  double total = 0.0;
  for (std::size_t s = 0; s < 4; ++s) {
    total += static_cast<double>(stats.shard_words(s));
  }
  EXPECT_DOUBLE_EQ(stats.average_words(), total / 4.0);
}

TEST(CoriWorkProxyTest, RanksByWorkWithAscendingIdTies) {
  const std::vector<double> work = {1.0, 5.0, 3.0, 5.0};
  // Top-2 by weight: shards 1 and 3 (tied at 5.0), ascending order.
  EXPECT_EQ(select_shards_by_work(work, 2),
            (std::vector<std::size_t>{1, 3}));
  // Top-1 of the tie goes to the lower id.
  EXPECT_EQ(select_shards_by_work(work, 1), (std::vector<std::size_t>{1}));
  // k >= n keeps everything; k = 0 clamps up to 1.
  EXPECT_EQ(select_shards_by_work(work, 9),
            (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(select_shards_by_work(work, 0), (std::vector<std::size_t>{1}));
}

}  // namespace
}  // namespace qadist::broker
