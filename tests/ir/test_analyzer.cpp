#include "ir/analyzer.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"

namespace qadist::ir {
namespace {

// Reference copies of the analyzer as it was before the one-scanner
// rewrite: a hashed stopword set, a <cctype> tokenizer that builds each
// token a character at a time, and a stemmer that edits a string copy. The
// equivalence tests below hold the current analyzer to them exactly.
namespace reference {

constexpr std::string_view kStopwordList[] = {
    "a",    "an",    "and",  "are",  "as",    "at",    "be",   "by",
    "did",  "do",    "does", "for",  "from",  "had",   "has",  "have",
    "how",  "in",    "is",   "it",   "its",   "many",  "much", "of",
    "on",   "or",    "that", "the",  "their", "there", "this", "to",
    "was",  "were",  "what", "when", "where", "which", "who",  "whom",
    "why",  "will",  "with"};

bool is_stopword(std::string_view word) {
  static const std::unordered_set<std::string_view> kStopwords(
      std::begin(kStopwordList), std::end(kStopwordList));
  return kStopwords.contains(word);
}

std::vector<Token> tokenize(std::string_view text) {
  std::vector<Token> tokens;
  std::uint32_t position = 0;
  std::size_t i = 0;
  const std::size_t n = text.size();
  while (i < n) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c == '$') {
      tokens.push_back(Token{"$", position++, false, false});
      ++i;
      continue;
    }
    if (!std::isalnum(c)) {
      ++i;
      continue;
    }
    const std::size_t start = i;
    bool capitalized = std::isupper(c) != 0;
    bool numeric = true;
    while (i < n && std::isalnum(static_cast<unsigned char>(text[i]))) {
      if (!std::isdigit(static_cast<unsigned char>(text[i]))) numeric = false;
      ++i;
    }
    std::string lowered;
    for (std::size_t k = start; k < i; ++k) {
      lowered.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(text[k]))));
    }
    tokens.push_back(
        Token{std::move(lowered), position++, capitalized, numeric});
  }
  return tokens;
}

std::string stem(std::string_view word) {
  std::string w(word);
  const auto ends_with = [&](std::string_view suffix) {
    return w.size() >= suffix.size() &&
           std::string_view(w).substr(w.size() - suffix.size()) == suffix;
  };
  const auto chop = [&](std::size_t n) { w.resize(w.size() - n); };
  if (w.size() > 4 && ends_with("ies")) {
    chop(3);
    w += 'y';
  } else if (w.size() > 5 && ends_with("ing")) {
    chop(3);
  } else if (w.size() > 4 && ends_with("ed")) {
    chop(2);
  } else if (w.size() > 4 && (ends_with("sses") || ends_with("xes") ||
                              ends_with("zes") || ends_with("ches") ||
                              ends_with("shes"))) {
    chop(2);
  } else if (w.size() > 3 && ends_with("s") && !ends_with("ss")) {
    chop(1);
  }
  return w;
}

std::vector<std::string> index_terms(std::string_view text) {
  std::vector<std::string> terms;
  for (const Token& token : tokenize(text)) {
    if (is_stopword(token.text)) continue;
    terms.push_back(token.numeric ? token.text : stem(token.text));
  }
  return terms;
}

}  // namespace reference

TEST(AnalyzerTest, TokenizeLowercasesAndFlags) {
  Analyzer a;
  const auto tokens = a.tokenize("Port Amsen has 34000 people.");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0].text, "port");
  EXPECT_TRUE(tokens[0].capitalized);
  EXPECT_EQ(tokens[1].text, "amsen");
  EXPECT_TRUE(tokens[1].capitalized);
  EXPECT_FALSE(tokens[2].capitalized);
  EXPECT_TRUE(tokens[3].numeric);
  EXPECT_EQ(tokens[3].text, "34000");
  EXPECT_EQ(tokens[4].text, "people");
}

TEST(AnalyzerTest, DollarIsItsOwnToken) {
  Analyzer a;
  const auto tokens = a.tokenize("cost $ 12 million");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[1].text, "$");
}

TEST(AnalyzerTest, PunctuationSeparates) {
  Analyzer a;
  const auto tokens = a.tokenize("a,b;c.d");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].text, "a");
  EXPECT_EQ(tokens[3].text, "d");
  EXPECT_EQ(tokens[3].position, 3u);
}

TEST(AnalyzerTest, EmptyAndWhitespaceInputs) {
  Analyzer a;
  EXPECT_TRUE(a.tokenize("").empty());
  EXPECT_TRUE(a.tokenize("  \t\n ...!?").empty());
}

TEST(AnalyzerTest, StemmerRules) {
  Analyzer a;
  EXPECT_EQ(a.stem("founded"), "found");
  EXPECT_EQ(a.stem("cities"), "city");
  EXPECT_EQ(a.stem("running"), "runn");
  EXPECT_EQ(a.stem("churches"), "church");
  EXPECT_EQ(a.stem("lighthouses"), "lighthouse");
  // Guards: short words and -ss words untouched.
  EXPECT_EQ(a.stem("is"), "is");
  EXPECT_EQ(a.stem("class"), "class");
  EXPECT_EQ(a.stem("gas"), "gas");
}

TEST(AnalyzerTest, StemIsIdempotentOnCommonForms) {
  Analyzer a;
  for (const char* w : {"found", "city", "treat", "monument", "harbor"}) {
    EXPECT_EQ(a.stem(a.stem(w)), a.stem(w)) << w;
  }
}

TEST(AnalyzerTest, IndexTermsDropStopwordsAndStem) {
  Analyzer a;
  const auto terms = a.index_terms("Where is the Amsen Lighthouse located?");
  // "where", "is", "the" are stopwords.
  ASSERT_EQ(terms.size(), 3u);
  EXPECT_EQ(terms[0], "amsen");
  EXPECT_EQ(terms[1], "lighthouse");
  EXPECT_EQ(terms[2], "locat");
}

TEST(AnalyzerTest, NumbersKeptVerbatim) {
  Analyzer a;
  const auto terms = a.index_terms("population of 340000");
  ASSERT_EQ(terms.size(), 2u);
  EXPECT_EQ(terms[1], "340000");
}

TEST(StopwordTest, QuestionWordsAreStopwords) {
  for (const char* w : {"where", "who", "when", "what", "how", "the", "of"}) {
    EXPECT_TRUE(is_stopword(w)) << w;
  }
  for (const char* w : {"population", "nationality", "cost", "treat",
                        "founded", "leader"}) {
    EXPECT_FALSE(is_stopword(w)) << w;
  }
}

TEST(StopwordEquivalenceTest, EveryListedWordAndNearMissAgrees) {
  std::vector<std::string> probes;
  for (std::string_view w : reference::kStopwordList) {
    const std::string word(w);
    probes.push_back(word);
    probes.push_back(word + "s");
    probes.push_back("x" + word);
    probes.push_back(word.substr(1));
    probes.push_back(word.substr(0, word.size() - 1));
    for (std::size_t i = 0; i < word.size(); ++i) {
      std::string flipped = word;
      flipped[i] = static_cast<char>(flipped[i] + 1);
      probes.push_back(flipped);
      std::string upper = word;
      upper[i] = static_cast<char>(upper[i] - 'a' + 'A');
      probes.push_back(upper);
    }
  }
  probes.push_back(std::string("th\0", 3));
  probes.push_back("wherever");
  probes.push_back("$");
  std::size_t listed = 0;
  for (const auto& p : probes) {
    EXPECT_EQ(is_stopword(p), reference::is_stopword(p)) << p;
    if (reference::is_stopword(p)) ++listed;
  }
  EXPECT_GE(listed, 43u);
}

TEST(StopwordEquivalenceTest, EveryShortLowercaseWordAgrees) {
  // Exhaustive over a-z for lengths 1-3: every same-length neighbour of the
  // 26 short stopwords is probed.
  std::string w;
  std::size_t stopwords = 0;
  for (char a = 'a'; a <= 'z'; ++a) {
    w = std::string(1, a);
    EXPECT_EQ(is_stopword(w), reference::is_stopword(w)) << w;
    stopwords += is_stopword(w) ? 1 : 0;
    for (char b = 'a'; b <= 'z'; ++b) {
      w = std::string{a, b};
      EXPECT_EQ(is_stopword(w), reference::is_stopword(w)) << w;
      stopwords += is_stopword(w) ? 1 : 0;
      for (char c = 'a'; c <= 'z'; ++c) {
        w = std::string{a, b, c};
        if (is_stopword(w) != reference::is_stopword(w)) ADD_FAILURE() << w;
        stopwords += is_stopword(w) ? 1 : 0;
      }
    }
  }
  EXPECT_EQ(stopwords, 1u + 13u + 12u);
}

TEST(ScannerEquivalenceTest, TokenizeMatchesCctypeOnRandomBytes) {
  // Bytes drawn from the whole range (>= 0x80 included) and, separately,
  // from an alphabet heavy in the classes the scanner distinguishes.
  static constexpr char kAlphabet[] =
      "aZ9$ $$0123456789 .,;-ABCxyz\t\n\x80\xff\xc3\xa9'\"QRS";
  Rng rng(1501);
  Analyzer a;
  std::size_t tokens_seen = 0;
  for (int i = 0; i < 600; ++i) {
    std::string text(rng.below(300), '\0');
    const bool any_byte = i % 2 == 0;
    for (auto& c : text) {
      c = any_byte ? static_cast<char>(rng.below(256))
                   : kAlphabet[rng.below(sizeof(kAlphabet) - 1)];
    }
    const auto got = a.tokenize(text);
    const auto want = reference::tokenize(text);
    ASSERT_EQ(got.size(), want.size()) << "case " << i;
    for (std::size_t t = 0; t < got.size(); ++t) {
      EXPECT_EQ(got[t].text, want[t].text);
      EXPECT_EQ(got[t].position, want[t].position);
      EXPECT_EQ(got[t].capitalized, want[t].capitalized) << want[t].text;
      EXPECT_EQ(got[t].numeric, want[t].numeric) << want[t].text;
    }
    EXPECT_EQ(a.index_terms(text), reference::index_terms(text)) << i;
    tokens_seen += got.size();
  }
  EXPECT_GT(tokens_seen, 10000u);
}

TEST(StemEquivalenceTest, StemAndStemViewMatchTheOldStemmer) {
  Analyzer a;
  const std::vector<std::string_view> suffixes = {
      "", "s", "ss", "es", "ies", "ing", "ed", "sses", "xes", "zes", "ches",
      "shes", "y", "ings", "eds"};
  for (std::string_view suffix : suffixes) {
    for (std::size_t len = suffix.size(); len <= 8; ++len) {
      const std::string word =
          std::string("abcdefgh").substr(0, len - suffix.size()) +
          std::string(suffix);
      const std::string want = reference::stem(word);
      EXPECT_EQ(a.stem(word), want) << word;
      EXPECT_TRUE(a.stem_view(word).equals(want)) << word;
    }
  }
}

}  // namespace
}  // namespace qadist::ir
