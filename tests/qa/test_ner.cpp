#include "qa/ner.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "qa/text_match.hpp"
#include "support/test_world.hpp"

namespace qadist::qa {
namespace {

// Reference copy of the recognizer's gazetteer scan as it was before the
// first-word bound: every capitalized (or "the") token tries every n-gram
// length from the gazetteer's global maximum down, building a fresh key
// for each. The patterns after it are unchanged and copied alongside.
std::vector<EntityMention> reference_recognize(
    const corpus::Gazetteer& gazetteer, const std::vector<ir::Token>& tokens) {
  static constexpr std::array<std::string_view, 12> kMonths = {
      "january", "february", "march",     "april",   "may",      "june",
      "july",    "august",   "september", "october", "november", "december"};
  const auto is_month = [](std::string_view w) {
    for (auto m : kMonths)
      if (w == m) return true;
    return false;
  };
  const auto is_year = [](const ir::Token& t) {
    if (!t.numeric || t.text.size() != 4) return false;
    const int y = std::stoi(t.text);
    return y >= 1000 && y <= 2100;
  };
  std::vector<EntityMention> mentions;
  const auto n = static_cast<std::uint32_t>(tokens.size());
  const auto max_len = static_cast<std::uint32_t>(
      std::max<std::size_t>(1, gazetteer.max_tokens()));
  std::uint32_t i = 0;
  while (i < n) {
    const ir::Token& tok = tokens[i];
    if (tok.capitalized || tok.text == "the") {
      bool matched = false;
      const std::uint32_t limit = std::min(max_len, n - i);
      for (std::uint32_t len = limit; len >= 1 && !matched; --len) {
        std::string key;
        for (std::uint32_t k = i; k < i + len; ++k) {
          if (!key.empty()) key += ' ';
          key += tokens[k].text;
        }
        if (const auto type = gazetteer.lookup(key)) {
          mentions.push_back(EntityMention{*type, i, len,
                                           surface_span(tokens, i, len), 1.0});
          i += len;
          matched = true;
        }
      }
      if (matched) continue;
    }
    if (is_month(tok.text) && i + 1 < n && tokens[i + 1].numeric) {
      std::uint32_t len = 2;
      if (i + 2 < n && is_year(tokens[i + 2])) len = 3;
      mentions.push_back(EntityMention{corpus::EntityType::kDate, i, len,
                                       surface_span(tokens, i, len), 0.9});
      i += len;
      continue;
    }
    if (is_year(tok)) {
      mentions.push_back(EntityMention{corpus::EntityType::kDate, i, 1,
                                       surface_span(tokens, i, 1), 0.6});
      ++i;
      continue;
    }
    if (tok.text == "$" && i + 1 < n && tokens[i + 1].numeric) {
      std::uint32_t len = 2;
      if (i + 2 < n && (tokens[i + 2].text == "million" ||
                        tokens[i + 2].text == "thousand" ||
                        tokens[i + 2].text == "billion")) {
        len = 3;
      }
      mentions.push_back(EntityMention{corpus::EntityType::kMoney, i, len,
                                       surface_span(tokens, i, len), 0.9});
      i += len;
      continue;
    }
    if (tok.numeric && tok.text.size() >= 3) {
      mentions.push_back(EntityMention{corpus::EntityType::kQuantity, i, 1,
                                       surface_span(tokens, i, 1), 0.9});
      ++i;
      continue;
    }
    ++i;
  }
  return mentions;
}

void expect_same_mentions(const std::vector<EntityMention>& got,
                          const std::vector<EntityMention>& want,
                          std::string_view text) {
  ASSERT_EQ(got.size(), want.size()) << text;
  for (std::size_t m = 0; m < got.size(); ++m) {
    EXPECT_EQ(got[m].type, want[m].type) << text;
    EXPECT_EQ(got[m].first_token, want[m].first_token) << text;
    EXPECT_EQ(got[m].token_count, want[m].token_count) << text;
    EXPECT_EQ(got[m].text, want[m].text) << text;
    EXPECT_EQ(got[m].confidence, want[m].confidence) << text;
  }
}

using corpus::EntityType;

class NerTest : public ::testing::Test {
 protected:
  NerTest() {
    gazetteer_.add("Port Amsen", EntityType::kLocation);
    gazetteer_.add("Doran Veltis", EntityType::kPerson);
    gazetteer_.add("Amsen Steel Works", EntityType::kOrganization);
    gazetteer_.add("the Amsen Lighthouse", EntityType::kLocation);
    gazetteer_.add("Velinosis", EntityType::kDisease);
  }

  corpus::Gazetteer gazetteer_;
  ir::Analyzer analyzer_;
  EntityRecognizer ner_{gazetteer_, analyzer_};
};

TEST_F(NerTest, FindsGazetteerEntities) {
  const auto mentions =
      ner_.recognize_text("Doran Veltis sailed to Port Amsen yesterday .");
  ASSERT_EQ(mentions.size(), 2u);
  EXPECT_EQ(mentions[0].type, EntityType::kPerson);
  EXPECT_EQ(mentions[0].text, "Doran Veltis");
  EXPECT_EQ(mentions[1].type, EntityType::kLocation);
  EXPECT_EQ(mentions[1].text, "Port Amsen");
}

TEST_F(NerTest, PrefersLongestMatch) {
  // "Amsen Steel Works" must win over any shorter prefix.
  const auto mentions = ner_.recognize_text("workers at Amsen Steel Works");
  ASSERT_EQ(mentions.size(), 1u);
  EXPECT_EQ(mentions[0].type, EntityType::kOrganization);
  EXPECT_EQ(mentions[0].token_count, 3u);
}

TEST_F(NerTest, ArticleLedEntity) {
  const auto mentions =
      ner_.recognize_text("the Amsen Lighthouse is located in Port Amsen .");
  ASSERT_EQ(mentions.size(), 2u);
  EXPECT_EQ(mentions[0].text, "the Amsen Lighthouse");
}

TEST_F(NerTest, DatePatterns) {
  const auto full = ner_.recognize_text("founded in March 14 , 1912 .");
  ASSERT_EQ(full.size(), 1u);
  EXPECT_EQ(full[0].type, EntityType::kDate);
  EXPECT_EQ(full[0].token_count, 3u);

  const auto year_only = ner_.recognize_text("built around 1885 by settlers");
  ASSERT_EQ(year_only.size(), 1u);
  EXPECT_EQ(year_only[0].type, EntityType::kDate);
  EXPECT_LT(year_only[0].confidence, 1.0);
}

TEST_F(NerTest, MoneyPattern) {
  const auto mentions = ner_.recognize_text("it cost $ 12 million overall");
  ASSERT_EQ(mentions.size(), 1u);
  EXPECT_EQ(mentions[0].type, EntityType::kMoney);
  EXPECT_EQ(mentions[0].text, "$ 12 million");
}

TEST_F(NerTest, QuantityPattern) {
  const auto mentions = ner_.recognize_text("a population of 3400000 people");
  ASSERT_EQ(mentions.size(), 1u);
  EXPECT_EQ(mentions[0].type, EntityType::kQuantity);
  EXPECT_EQ(mentions[0].text, "3400000");
}

TEST_F(NerTest, SmallNumbersIgnored) {
  const auto mentions = ner_.recognize_text("we saw 12 ships and 42 gulls");
  EXPECT_TRUE(mentions.empty());
}

TEST_F(NerTest, UncapitalizedWordsNotLookedUp) {
  // "velinosis" in lowercase prose: the gazetteer scan requires a
  // capitalized opener, so only the capitalized mention is found.
  const auto mentions =
      ner_.recognize_text("Velinosis spreads fast ; velinosis is rare");
  // Lowercase "velinosis" is skipped by the capitalization gate.
  ASSERT_EQ(mentions.size(), 1u);
  EXPECT_EQ(mentions[0].first_token, 0u);
}

TEST_F(NerTest, EmptyText) {
  EXPECT_TRUE(ner_.recognize_text("").empty());
}

TEST_F(NerTest, MentionsAreNonOverlapping) {
  const auto mentions = ner_.recognize_text(
      "Doran Veltis met Doran Veltis at Port Amsen near Port Amsen in March "
      "3 , 1920 with $ 5 million and 123456 coins");
  for (std::size_t i = 1; i < mentions.size(); ++i) {
    EXPECT_GE(mentions[i].first_token,
              mentions[i - 1].first_token + mentions[i - 1].token_count);
  }
  // 2x person, 2x location, date, money, quantity.
  EXPECT_EQ(mentions.size(), 7u);
}

TEST(NerEquivalenceTest, BoundedScanMatchesLongestMatchOnEveryParagraph) {
  const auto& world = qadist::testing::test_world();
  const ir::Analyzer analyzer;
  const EntityRecognizer ner(world.corpus.gazetteer, analyzer);
  const auto& collection = world.corpus.collection;
  std::size_t paragraphs = 0;
  std::size_t gazetteer_hits = 0;
  for (std::size_t d = 0; d < collection.size(); ++d) {
    const auto& doc = collection.document(static_cast<corpus::DocId>(d));
    for (const auto& text : doc.paragraphs) {
      const auto tokens = analyzer.tokenize(text);
      const auto want = reference_recognize(world.corpus.gazetteer, tokens);
      expect_same_mentions(ner.recognize(tokens), want, text);
      for (const auto& m : want) gazetteer_hits += m.confidence == 1.0;
      ++paragraphs;
    }
  }
  EXPECT_GT(paragraphs, 1000u);
  EXPECT_GT(gazetteer_hits, 1000u);
}

TEST_F(NerTest, YearBoundsMatchTheOldParse) {
  for (const char* text : {"0999", "1000", "2100", "2101", "9999", "0000",
                           "March 3 2100", "March 3 2101", "$ 1999"}) {
    const auto tokens = analyzer_.tokenize(text);
    expect_same_mentions(ner_.recognize(tokens),
                         reference_recognize(gazetteer_, tokens), text);
  }
  const auto mentions = ner_.recognize_text("2100 2101");
  ASSERT_EQ(mentions.size(), 2u);
  EXPECT_EQ(mentions[0].type, EntityType::kDate);
  EXPECT_EQ(mentions[1].type, EntityType::kQuantity);
}

TEST_F(NerTest, BoundedScanMatchesLongestMatchOnOverlappingNames) {
  // Entities sharing a first word at different lengths, an entity cut off
  // by the end of the text, and a first word with no entity of its own.
  gazetteer_.add("Port", EntityType::kLocation);
  gazetteer_.add("Port Amsen Harbor Authority", EntityType::kOrganization);
  gazetteer_.add("Amsen", EntityType::kPerson);
  for (const char* text :
       {"Port Amsen Harbor Authority said", "Port Amsen Harbor",
        "the Port Amsen", "The Amsen Lighthouse", "Port", "Amsen Steel",
        "Amsen Steel Works in Port Amsen", "Doran Veltis Port Amsen 1912"}) {
    const auto tokens = analyzer_.tokenize(text);
    expect_same_mentions(ner_.recognize(tokens),
                         reference_recognize(gazetteer_, tokens), text);
  }
}

}  // namespace
}  // namespace qadist::qa
