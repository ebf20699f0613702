#include "broker/cori.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace qadist::broker {

std::vector<double> score_shards(const CollectionStats& stats,
                                 std::span<const std::string> keywords) {
  const std::size_t num_shards = stats.num_shards();
  if (num_shards == 0 || keywords.empty()) {
    return std::vector<double>(num_shards, kCoriDefaultBelief);
  }

  const double c = static_cast<double>(num_shards);
  const double avg_cw = std::max(stats.average_words(), 1.0);
  const double log_c = std::log(c + 1.0);

  // Each keyword is resolved once; beliefs then accumulate per shard in
  // keyword order, exactly as a per-shard loop over the keywords would add
  // them. A shard without the term adds exactly kCoriDefaultBelief
  // (T = 0), so the sums are bit-identical to that loop's.
  std::vector<double> belief_sums(num_shards, 0.0);
  std::size_t scored_terms = 0;
  for (const std::string& keyword : keywords) {
    const std::span<const ShardDf> containing = stats.term_shards(keyword);
    // A term no shard contains cannot discriminate between shards (and
    // cf = 0 would make I blow up); it contributes no evidence at all.
    if (containing.empty()) continue;
    ++scored_terms;
    const double i_belief =
        std::log((c + 0.5) / static_cast<double>(containing.size())) / log_c;
    auto next = containing.begin();
    for (std::size_t s = 0; s < num_shards; ++s) {
      double belief = kCoriDefaultBelief;
      if (next != containing.end() && next->shard == s) {
        const double cw_ratio =
            static_cast<double>(stats.shard_words(s)) / avg_cw;
        const double df = static_cast<double>(next->df);
        const double t_belief = df / (df + 50.0 + 150.0 * cw_ratio);
        belief = kCoriDefaultBelief +
                 (1.0 - kCoriDefaultBelief) * t_belief * i_belief;
        ++next;
      }
      belief_sums[s] += belief;
    }
  }
  if (scored_terms == 0) {
    std::fill(belief_sums.begin(), belief_sums.end(), kCoriDefaultBelief);
    return belief_sums;
  }
  for (double& sum : belief_sums) sum /= static_cast<double>(scored_terms);
  return belief_sums;
}

namespace {

/// Top-k indices of `scores` (higher = better, ties by ascending index),
/// returned sorted ascending.
std::vector<std::size_t> top_k_indices(std::span<const double> scores,
                                       std::size_t top_k) {
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const std::size_t k = std::min(std::max<std::size_t>(top_k, 1), order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k),
                    order.end(), [&](std::size_t a, std::size_t b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;
                    });
  order.resize(k);
  std::sort(order.begin(), order.end());
  return order;
}

}  // namespace

std::vector<std::size_t> select_shards(const CollectionStats& stats,
                                       std::span<const std::string> keywords,
                                       std::size_t top_k) {
  if (stats.num_shards() == 0) return {};
  return top_k_indices(score_shards(stats, keywords), top_k);
}

std::vector<std::size_t> select_shards_by_work(std::span<const double> work,
                                               std::size_t top_k) {
  if (work.empty()) return {};
  return top_k_indices(work, top_k);
}

}  // namespace qadist::broker
