#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace qadist::ir {

/// A lexical token with enough surface detail for downstream NER.
struct Token {
  std::string text;          ///< lowercased surface form
  std::uint32_t position;    ///< token index within the input
  bool capitalized = false;  ///< original form started with an uppercase letter
  bool numeric = false;      ///< all digits
};

/// True for closed-class words that carry no retrieval signal ("the", "of",
/// question words, ...). The list mirrors what FALCON's keyword extractor
/// would discard.
[[nodiscard]] bool is_stopword(std::string_view word);

/// One word as `WordScanner` yields it.
struct Word {
  /// Lowercased text. Views either the scanned text or the scanner's own
  /// buffer, so it is valid until the scanner's next `next()`.
  std::string_view text;
  bool capitalized = false;  ///< the original started with 'A'-'Z'
  bool numeric = false;      ///< all digits
};

/// The one tokenizing loop of the system. Words are maximal runs of ASCII
/// letters and digits; '$' is a word of its own (money amounts); every
/// other byte, including every byte >= 0x80, separates words. These are
/// exactly the C-locale `<cctype>` classes. Lowercasing copies a word only
/// when it holds an uppercase letter, into a buffer reused across words.
class WordScanner {
 public:
  explicit WordScanner(std::string_view text) : text_(text) {}

  /// Capacity hint for one slot per word: English prose averages about six
  /// bytes a word with its separator, so this rarely falls short.
  [[nodiscard]] static std::size_t expected_words(std::string_view text) {
    return text.size() / 5 + 1;
  }

  /// Moves to the next word; false once the text is exhausted.
  bool next(Word& word) {
    const std::size_t n = text_.size();
    while (pos_ < n) {
      const auto c = static_cast<unsigned char>(text_[pos_]);
      if (c == '$') {
        word = Word{text_.substr(pos_++, 1), false, false};
        return true;
      }
      if ((kClass[c] & kAlnum) == 0) {
        ++pos_;
        continue;
      }
      const std::size_t start = pos_;
      unsigned seen = 0;  // union of the class bits of every byte
      unsigned all = kDigit;
      while (pos_ < n) {
        const unsigned cls = kClass[static_cast<unsigned char>(text_[pos_])];
        if ((cls & kAlnum) == 0) break;
        seen |= cls;
        all &= cls;
        ++pos_;
      }
      std::string_view run = text_.substr(start, pos_ - start);
      if ((seen & kUpper) != 0) {
        lowered_.assign(run);
        for (char& ch : lowered_) {
          if ((kClass[static_cast<unsigned char>(ch)] & kUpper) != 0)
            ch = static_cast<char>(ch - 'A' + 'a');
        }
        run = lowered_;
      }
      word = Word{run, (kClass[c] & kUpper) != 0, all != 0};
      return true;
    }
    return false;
  }

 private:
  static constexpr std::uint8_t kAlnum = 1;
  static constexpr std::uint8_t kUpper = 2;
  static constexpr std::uint8_t kDigit = 4;
  static constexpr std::array<std::uint8_t, 256> kClass = [] {
    std::array<std::uint8_t, 256> t{};
    for (int c = '0'; c <= '9'; ++c) t[c] = kAlnum | kDigit;
    for (int c = 'a'; c <= 'z'; ++c) t[c] = kAlnum;
    for (int c = 'A'; c <= 'Z'; ++c) t[c] = kAlnum | kUpper;
    return t;
  }();

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string lowered_;
};

/// The stemmer's result without a copy: a prefix of the word plus an
/// optional letter appended to it ('y' for "-ies" -> "-y").
struct StemView {
  std::string_view base;
  char tail = '\0';  ///< '\0' when nothing is appended

  /// True when `base` + `tail` spells exactly `s`.
  [[nodiscard]] bool equals(std::string_view s) const {
    if (tail == '\0') return s == base;
    return s.size() == base.size() + 1 && s.back() == tail &&
           s.substr(0, base.size()) == base;
  }
};

/// Text analysis bundle shared by the indexer, the query side, and the
/// scorers: tokenization, stopping, and a light suffix stemmer. Index terms
/// and query keywords MUST come from the same analyzer or postings won't
/// line up — hence one type owning all three steps.
class Analyzer {
 public:
  /// Splits into tokens with `WordScanner`'s rules, recording each token's
  /// position and original capitalization.
  [[nodiscard]] std::vector<Token> tokenize(std::string_view text) const;

  /// Light suffix stemmer ("-'s", "-ies", "-ing", "-ed", plural "-s").
  /// Deliberately conservative: never stems below 3 characters.
  [[nodiscard]] std::string stem(std::string_view word) const;

  /// The same stem as `stem()`, as a view into `word`.
  [[nodiscard]] StemView stem_view(std::string_view word) const;

  /// Lowercased, stemmed, stopword-free terms for indexing a text.
  [[nodiscard]] std::vector<std::string> index_terms(
      std::string_view text) const;
};

}  // namespace qadist::ir
