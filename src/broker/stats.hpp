#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/inverted_index.hpp"
#include "ir/shard_stats.hpp"

namespace qadist::broker {

/// One entry of a term's shard list: a shard whose index contains the term,
/// and the term's paragraph df in that shard.
struct ShardDf {
  std::uint32_t shard = 0;
  std::uint32_t df = 0;
};

/// Collection-wide view of the per-shard term statistics: what a broker
/// (or the coordinator, with the tier off) needs to score shards for a
/// question without touching any shard's postings. Mirrors the resource
/// descriptions a query mediator keeps about each federated collection.
///
/// Held as one term dictionary: term -> the ascending list of (shard, df)
/// pairs of the shards containing it, so the list length is CORI's cf and
/// per-question scoring resolves each keyword with a single hash lookup.
/// The per-shard ShardTermStats maps are folded in at build time and not
/// kept.
class CollectionStats {
 public:
  CollectionStats() = default;

  /// Wraps already-extracted shard statistics (e.g. loaded from a QASS v2
  /// artifact's stats section).
  [[nodiscard]] static CollectionStats from_shard_stats(
      std::vector<ir::ShardTermStats> shards);

  /// Extracts statistics from in-memory shard indexes (shard s = index s).
  [[nodiscard]] static CollectionStats from_indexes(
      std::span<const ir::InvertedIndex> shards);

  [[nodiscard]] std::size_t num_shards() const { return shard_words_.size(); }

  /// Size of shard `s` in term occurrences (CORI's cw_s).
  [[nodiscard]] std::uint64_t shard_words(std::size_t s) const {
    return shard_words_[s];
  }

  /// The shards containing `term` with their df, ascending shard id; empty
  /// for a term absent from every shard.
  [[nodiscard]] std::span<const ShardDf> term_shards(
      const std::string& term) const;

  /// Number of shards whose index contains the term (CORI's cf); 0 for a
  /// term absent from every shard.
  [[nodiscard]] std::size_t shards_containing(const std::string& term) const {
    return term_shards(term).size();
  }

  /// Mean shard size in term occurrences (CORI's avg_cw); 0 when empty.
  [[nodiscard]] double average_words() const { return average_words_; }

 private:
  std::vector<std::uint64_t> shard_words_;
  std::unordered_map<std::string, std::uint32_t> term_ids_;
  /// Term t's shard list is lists_[offsets_[t], offsets_[t + 1]).
  std::vector<std::uint32_t> offsets_;
  std::vector<ShardDf> lists_;
  double average_words_ = 0.0;
};

}  // namespace qadist::broker
