#include "ir/analyzer.hpp"

#include <span>

namespace qadist::ir {

namespace {

/// Packs a word of at most 8 bytes into an integer; words of one length
/// pack to distinct values, so a bucket compares integers, not strings.
constexpr std::uint64_t pack(std::string_view word) {
  std::uint64_t v = 0;
  for (char c : word) v = (v << 8) | static_cast<unsigned char>(c);
  return v;
}

template <std::size_t N>
constexpr std::array<std::uint64_t, N> pack_all(
    const std::array<std::string_view, N>& words) {
  std::array<std::uint64_t, N> out{};
  for (std::size_t i = 0; i < N; ++i) out[i] = pack(words[i]);
  return out;
}

// The stopword table, bucketed by length: kStopwordsL holds the L-letter
// words, 43 in all.
constexpr auto kStopwords1 = pack_all<1>({"a"});
constexpr auto kStopwords2 = pack_all<13>(
    {"an", "as", "at", "be", "by", "do", "in", "is", "it", "of", "on", "or",
     "to"});
constexpr auto kStopwords3 = pack_all<12>(
    {"and", "are", "did", "for", "had", "has", "how", "its", "the", "was",
     "who", "why"});
constexpr auto kStopwords4 = pack_all<13>(
    {"does", "from", "have", "many", "much", "that", "this", "were", "what",
     "when", "whom", "will", "with"});
constexpr auto kStopwords5 =
    pack_all<4>({"their", "there", "where", "which"});

constexpr std::array<std::span<const std::uint64_t>, 6> kStopwordBuckets = {
    std::span<const std::uint64_t>{}, kStopwords1, kStopwords2, kStopwords3,
    kStopwords4, kStopwords5};

}  // namespace

bool is_stopword(std::string_view word) {
  if (word.size() >= kStopwordBuckets.size()) return false;
  const std::uint64_t key = pack(word);
  for (const std::uint64_t w : kStopwordBuckets[word.size()]) {
    if (w == key) return true;
  }
  return false;
}

std::vector<Token> Analyzer::tokenize(std::string_view text) const {
  std::vector<Token> tokens;
  tokens.reserve(WordScanner::expected_words(text));
  WordScanner scanner(text);
  Word word;
  while (scanner.next(word)) {
    tokens.emplace_back(std::string(word.text),
                        static_cast<std::uint32_t>(tokens.size()),
                        word.capitalized, word.numeric);
  }
  return tokens;
}

StemView Analyzer::stem_view(std::string_view w) const {
  const std::size_t n = w.size();
  // Every rule needs more than 3 letters and a word ending in 's', 'g' or
  // 'd'; most words end otherwise.
  if (n <= 3 || (w.back() != 's' && w.back() != 'g' && w.back() != 'd')) {
    return {w};
  }
  if (n > 4 && w.ends_with("ies")) return {w.substr(0, n - 3), 'y'};
  if (n > 5 && w.ends_with("ing")) return {w.substr(0, n - 3)};
  if (n > 4 && w.ends_with("ed")) return {w.substr(0, n - 2)};
  if (n > 4 && (w.ends_with("sses") || w.ends_with("xes") ||
                w.ends_with("zes") || w.ends_with("ches") ||
                w.ends_with("shes"))) {
    // Sibilant plurals take -es ("churches" -> "church"); a bare -es rule
    // would over-chop regular plurals like "lighthouses".
    return {w.substr(0, n - 2)};
  }
  if (n > 3 && w.ends_with('s') && !w.ends_with("ss")) {
    return {w.substr(0, n - 1)};
  }
  return {w};
}

std::string Analyzer::stem(std::string_view word) const {
  const StemView v = stem_view(word);
  std::string out(v.base);
  if (v.tail != '\0') out += v.tail;
  return out;
}

std::vector<std::string> Analyzer::index_terms(std::string_view text) const {
  std::vector<std::string> terms;
  WordScanner scanner(text);
  Word word;
  while (scanner.next(word)) {
    if (is_stopword(word.text)) continue;
    terms.push_back(word.numeric ? std::string(word.text) : stem(word.text));
  }
  return terms;
}

}  // namespace qadist::ir
