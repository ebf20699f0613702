#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace qadist::corpus {

/// Semantic categories of answer entities — the answer types the question
/// processing module predicts and the answer processing module matches
/// (paper Sec. 1.1: DISEASE, LOCATION, NATIONALITY, ... entities).
enum class EntityType {
  kPerson,
  kLocation,
  kOrganization,
  kDate,
  kQuantity,
  kNationality,
  kDisease,
  kMoney,
  kUnknown,
};

[[nodiscard]] std::string_view to_string(EntityType type);

/// Number of concrete (non-kUnknown) entity types.
inline constexpr int kEntityTypeCount = 8;

/// Surface-string → entity-type dictionary.
///
/// The corpus generator registers every entity it mints, so the answer
/// processing NER recognizes exactly the generated world plus pattern-based
/// types (dates, quantities, money) — the same closed-world trick FALCON's
/// gazetteers play for the TREC collections. Keys are stored lowercase;
/// lookups are case-normalized by the caller (the tokenizer already
/// lowercases).
class Gazetteer {
 public:
  /// Registers an entity surface form. Multi-word entities are stored as
  /// their space-joined lowercase token sequence.
  void add(std::string_view surface, EntityType type);

  /// Looks up a (lowercase, space-joined) token sequence. Probes the map
  /// with the view itself; no key string is built.
  [[nodiscard]] std::optional<EntityType> lookup(std::string_view key) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Longest entity length in tokens.
  [[nodiscard]] std::size_t max_tokens() const { return max_tokens_; }

  /// Longest length in tokens of an entity whose first word is
  /// `first_word`, or 0 when none starts with it — bounds the NER n-gram
  /// scan at that word.
  [[nodiscard]] std::size_t max_tokens_from(std::string_view first_word) const;

  /// All surface forms of a given type (test support).
  [[nodiscard]] std::vector<std::string> surfaces_of(EntityType type) const;

  /// Every (surface, type) entry, sorted by surface — deterministic order
  /// for serialization.
  [[nodiscard]] std::vector<std::pair<std::string, EntityType>> entries()
      const;

 private:
  /// Hashes `std::string` keys and `std::string_view` probes alike, so
  /// lookups take a view (heterogeneous lookup).
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view key) const {
      return std::hash<std::string_view>{}(key);
    }
  };
  template <typename V>
  using StringMap =
      std::unordered_map<std::string, V, KeyHash, std::equal_to<>>;

  StringMap<EntityType> entries_;
  StringMap<std::size_t> max_tokens_from_;  ///< first word -> longest entity
  std::size_t max_tokens_ = 0;
};

}  // namespace qadist::corpus
