#include "qa/text_match.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"

namespace qadist::qa {
namespace {

class TextMatchTest : public ::testing::Test {
 protected:
  ir::Analyzer analyzer_;
};

TEST_F(TextMatchTest, MapsStemmedKeywords) {
  const std::vector<std::string> keywords = {"found", "amsen"};
  const auto tokens = analyzer_.tokenize("he founded the Amsen works");
  const auto map = map_keywords(analyzer_, keywords, tokens);
  ASSERT_EQ(map.size(), 5u);
  EXPECT_EQ(map[0], -1);  // "he"
  EXPECT_EQ(map[1], 0);   // "founded" -> "found"
  EXPECT_EQ(map[2], -1);  // "the" (stopword)
  EXPECT_EQ(map[3], 1);   // "amsen"
  EXPECT_EQ(map[4], -1);  // "works" -> "work" not a keyword
}

TEST_F(TextMatchTest, NumericTokensMatchVerbatim) {
  const std::vector<std::string> keywords = {"340000"};
  const auto tokens = analyzer_.tokenize("population of 340000 people");
  const auto map = map_keywords(analyzer_, keywords, tokens);
  EXPECT_EQ(map[2], 0);
}

TEST_F(TextMatchTest, FirstMatchingKeywordWins) {
  // A token matching multiple keywords maps to the first (question order).
  const std::vector<std::string> keywords = {"amsen", "amsen"};
  const auto tokens = analyzer_.tokenize("amsen");
  EXPECT_EQ(map_keywords(analyzer_, keywords, tokens)[0], 0);
}

TEST_F(TextMatchTest, EmptyInputs) {
  EXPECT_TRUE(map_keywords(analyzer_, {}, {}).empty());
  const auto tokens = analyzer_.tokenize("some words");
  const auto map = map_keywords(analyzer_, {}, tokens);
  for (int m : map) EXPECT_EQ(m, -1);
}

TEST_F(TextMatchTest, SurfaceSpanRecapitalizes) {
  const auto tokens = analyzer_.tokenize("the Amsen Lighthouse is TALL");
  EXPECT_EQ(surface_span(tokens, 0, 3), "the Amsen Lighthouse");
  EXPECT_EQ(surface_span(tokens, 4, 1), "Tall");  // only first letter restored
}

TEST_F(TextMatchTest, SurfaceSpanClampsAtEnd) {
  const auto tokens = analyzer_.tokenize("one two");
  EXPECT_EQ(surface_span(tokens, 1, 10), "two");
  EXPECT_EQ(surface_span(tokens, 5, 2), "");
}

TEST_F(TextMatchTest, MatcherAgreesWithStemAtEveryRuleAndThreshold) {
  // Each suffix rule of the stemmer, on words of 3-7 letters: the rules
  // switch on at lengths 4 (-s), 5 (-ies, -ed, sibilant -es) and 6 (-ing).
  // A keyword must match exactly when it equals the allocated stem.
  const std::vector<std::string> suffixes = {
      "", "s", "ss", "es", "ies", "ing", "ed", "sses", "xes", "zes", "ches",
      "shes"};
  std::size_t matched = 0;
  std::size_t probes = 0;
  for (const auto& suffix : suffixes) {
    for (std::size_t len = std::max<std::size_t>(suffix.size(), 1); len <= 7;
         ++len) {
      const std::string word =
          std::string("mnopqrt").substr(0, len - suffix.size()) + suffix;
      const std::string stem = analyzer_.stem(word);
      std::vector<std::string> candidates = {
          stem, word, stem + "y", stem + "s", stem.substr(0, stem.size() - 1),
          word.substr(0, word.size() - 1)};
      if (!stem.empty() && stem.back() == 'y') {
        candidates.push_back(stem.substr(0, stem.size() - 1) + "i");
      }
      for (const auto& kw : candidates) {
        const std::vector<std::string> keywords = {kw};
        const bool want = !ir::is_stopword(word) && kw == stem;
        EXPECT_EQ(match_keyword(analyzer_, keywords, word, false) == 0, want)
            << word << " vs " << kw;
        matched += want ? 1 : 0;
        ++probes;
      }
    }
  }
  EXPECT_GT(matched, 40u);
  EXPECT_GT(probes, 300u);
}

TEST_F(TextMatchTest, NumericWordsCompareVerbatim) {
  const std::vector<std::string> keywords = {"1912s", "1912"};
  EXPECT_EQ(match_keyword(analyzer_, keywords, "1912", true), 1);
  EXPECT_EQ(match_keyword(analyzer_, keywords, "1912s", false), 1);
}

TEST_F(TextMatchTest, StopwordsNeverMatchEvenWhenSpelledAsKeywords) {
  // "thes" stems to "the", so a question can carry a keyword that spells a
  // stopword; the stopword itself still never matches it.
  const std::vector<std::string> keywords = {"the", "how"};
  EXPECT_EQ(match_keyword(analyzer_, keywords, "the", false), -1);
  EXPECT_EQ(match_keyword(analyzer_, keywords, "how", false), -1);
  EXPECT_EQ(match_keyword(analyzer_, keywords, "thes", false), 0);
  EXPECT_EQ(match_keyword(analyzer_, keywords, "hows", false), 1);
}

TEST_F(TextMatchTest, ScannedMapEqualsTokenMap) {
  const std::vector<std::string> keywords = {"found", "amsen", "city", "1912",
                                             "church", "lighthouse"};
  static constexpr char kAlphabet[] =
      "Founded founding FOUNDS amsen Amsen's cities Cities church churches "
      "1912 $ 19123 lighthouses the The of , . \xc3\xa9 ";
  Rng rng(77);
  for (int i = 0; i < 300; ++i) {
    std::string text;
    const auto pieces = rng.below(40);
    for (std::uint64_t k = 0; k < pieces; ++k) {
      const auto at = rng.below(sizeof(kAlphabet) - 1);
      text += std::string_view(kAlphabet).substr(at, 1 + rng.below(12));
    }
    const auto tokens = analyzer_.tokenize(text);
    EXPECT_EQ(map_text_keywords(analyzer_, keywords, text),
              map_keywords(analyzer_, keywords, tokens))
        << text;
  }
}

}  // namespace
}  // namespace qadist::qa
