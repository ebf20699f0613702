#include "broker/stats.hpp"

namespace qadist::broker {

CollectionStats CollectionStats::from_shard_stats(
    std::vector<ir::ShardTermStats> shards) {
  CollectionStats stats;
  // Pass 1: number the terms and count each one's shards (cf) in
  // offsets_[id + 1]; pass 2 revisits every shard map in the same iteration
  // order (the maps are not modified in between) and fills the lists in
  // ascending shard order.
  stats.offsets_.push_back(0);
  std::vector<std::uint32_t> pair_ids;
  double total_words = 0.0;
  for (const auto& shard : shards) {
    stats.shard_words_.push_back(shard.words);
    total_words += static_cast<double>(shard.words);
    for (const auto& [term, df] : shard.df) {
      (void)df;
      const auto [it, inserted] = stats.term_ids_.try_emplace(
          term, static_cast<std::uint32_t>(stats.offsets_.size() - 1));
      if (inserted) stats.offsets_.push_back(0);
      ++stats.offsets_[it->second + 1];
      pair_ids.push_back(it->second);
    }
  }
  for (std::size_t t = 1; t < stats.offsets_.size(); ++t) {
    stats.offsets_[t] += stats.offsets_[t - 1];
  }
  stats.lists_.resize(stats.offsets_.back());
  std::vector<std::uint32_t> fill(stats.offsets_.begin(),
                                  stats.offsets_.end() - 1);
  std::size_t pair = 0;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    for (const auto& [term, df] : shards[s].df) {
      (void)term;
      const std::uint32_t id = pair_ids[pair++];
      stats.lists_[fill[id]++] = ShardDf{static_cast<std::uint32_t>(s), df};
    }
  }
  if (!shards.empty()) {
    stats.average_words_ = total_words / static_cast<double>(shards.size());
  }
  return stats;
}

CollectionStats CollectionStats::from_indexes(
    std::span<const ir::InvertedIndex> shards) {
  std::vector<ir::ShardTermStats> extracted;
  extracted.reserve(shards.size());
  for (const auto& index : shards) {
    extracted.push_back(ir::extract_term_stats(index));
  }
  return from_shard_stats(std::move(extracted));
}

std::span<const ShardDf> CollectionStats::term_shards(
    const std::string& term) const {
  const auto it = term_ids_.find(term);
  if (it == term_ids_.end()) return {};
  const std::uint32_t begin = offsets_[it->second];
  return std::span<const ShardDf>(lists_).subspan(
      begin, offsets_[it->second + 1] - begin);
}

}  // namespace qadist::broker
