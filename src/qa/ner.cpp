#include "qa/ner.hpp"

#include <array>
#include <optional>
#include <string_view>

#include "qa/text_match.hpp"

namespace qadist::qa {

namespace {

bool is_month(std::string_view w) {
  static constexpr std::array<std::string_view, 12> kMonths = {
      "january", "february", "march",     "april",   "may",      "june",
      "july",    "august",   "september", "october", "november", "december"};
  for (auto m : kMonths)
    if (w == m) return true;
  return false;
}

bool is_year(const ir::Token& t) {
  if (!t.numeric || t.text.size() != 4) return false;
  int y = 0;
  for (char c : t.text) y = y * 10 + (c - '0');
  return y >= 1000 && y <= 2100;
}

std::string surface(const std::vector<ir::Token>& tokens, std::uint32_t first,
                    std::uint32_t count) {
  return surface_span(tokens, first, count);
}

}  // namespace

std::vector<EntityMention> EntityRecognizer::recognize(
    const std::vector<ir::Token>& tokens) const {
  std::vector<EntityMention> mentions;
  const auto n = static_cast<std::uint32_t>(tokens.size());
  std::string key;  // reused n-gram buffer

  std::uint32_t i = 0;
  while (i < n) {
    const ir::Token& tok = tokens[i];

    // --- Gazetteer: longest capitalized-led n-gram first. Entity names may
    // begin with a lowercase article ("the Amsen Lighthouse"), so "the" is
    // also allowed to open a candidate span. No entity is longer than the
    // longest one starting with this word. The longest n-gram is joined
    // once; each shorter one is a prefix of it, ending before a space.
    if (tok.capitalized || tok.text == "the") {
      const auto limit = static_cast<std::uint32_t>(
          std::min<std::size_t>(gazetteer_->max_tokens_from(tok.text), n - i));
      if (limit > 0) {
        key = tok.text;
        for (std::uint32_t k = i + 1; k < i + limit; ++k) {
          key += ' ';
          key += tokens[k].text;
        }
        std::string_view gram = key;
        std::uint32_t len = limit;
        std::optional<corpus::EntityType> type;
        while (!(type = gazetteer_->lookup(gram)) && len > 1) {
          gram = gram.substr(0, gram.rfind(' '));
          --len;
        }
        if (type) {
          mentions.push_back(EntityMention{*type, i, len,
                                           surface(tokens, i, len), 1.0});
          i += len;
          continue;
        }
      }
    }

    // --- DATE: "<month> <day> [<year>]" or a bare plausible year.
    if (is_month(tok.text) && i + 1 < n && tokens[i + 1].numeric) {
      std::uint32_t len = 2;
      if (i + 2 < n && is_year(tokens[i + 2])) len = 3;
      mentions.push_back(EntityMention{corpus::EntityType::kDate, i, len,
                                       surface(tokens, i, len), 0.9});
      i += len;
      continue;
    }
    if (is_year(tok)) {
      mentions.push_back(EntityMention{corpus::EntityType::kDate, i, 1,
                                       surface(tokens, i, 1), 0.6});
      ++i;
      continue;
    }

    // --- MONEY: "$ <number> [million|thousand|billion]".
    if (tok.text == "$" && i + 1 < n && tokens[i + 1].numeric) {
      std::uint32_t len = 2;
      if (i + 2 < n &&
          (tokens[i + 2].text == "million" || tokens[i + 2].text == "thousand" ||
           tokens[i + 2].text == "billion")) {
        len = 3;
      }
      mentions.push_back(EntityMention{corpus::EntityType::kMoney, i, len,
                                       surface(tokens, i, len), 0.9});
      i += len;
      continue;
    }

    // --- QUANTITY: standalone multi-digit numbers (years already handled).
    if (tok.numeric && tok.text.size() >= 3) {
      mentions.push_back(EntityMention{corpus::EntityType::kQuantity, i, 1,
                                       surface(tokens, i, 1), 0.9});
      ++i;
      continue;
    }

    ++i;
  }
  return mentions;
}

std::vector<EntityMention> EntityRecognizer::recognize_text(
    std::string_view text) const {
  return recognize(analyzer_->tokenize(text));
}

}  // namespace qadist::qa
