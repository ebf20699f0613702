#include "qa/text_match.hpp"

namespace qadist::qa {

int match_keyword(const ir::Analyzer& analyzer,
                  std::span<const std::string> keywords, std::string_view word,
                  bool numeric) {
  const ir::StemView norm =
      numeric ? ir::StemView{word} : analyzer.stem_view(word);
  int match = -1;
  for (std::size_t k = 0; k < keywords.size() && match < 0; ++k) {
    if (norm.equals(keywords[k])) match = static_cast<int>(k);
  }
  // A stopword never matches, even when its stem spells a keyword; asking
  // only on a match keeps the stopword test off the common path.
  return match >= 0 && ir::is_stopword(word) ? -1 : match;
}

std::vector<int> map_keywords(const ir::Analyzer& analyzer,
                              std::span<const std::string> keywords,
                              const std::vector<ir::Token>& tokens) {
  std::vector<int> map(tokens.size());
  for (std::size_t t = 0; t < tokens.size(); ++t) {
    map[t] = match_keyword(analyzer, keywords, tokens[t].text,
                           tokens[t].numeric);
  }
  return map;
}

std::vector<int> map_text_keywords(const ir::Analyzer& analyzer,
                                   std::span<const std::string> keywords,
                                   std::string_view text) {
  std::vector<int> map;
  map.reserve(ir::WordScanner::expected_words(text));
  ir::WordScanner scanner(text);
  ir::Word word;
  while (scanner.next(word)) {
    map.push_back(match_keyword(analyzer, keywords, word.text, word.numeric));
  }
  return map;
}

std::string surface_span(const std::vector<ir::Token>& tokens,
                         std::size_t first, std::size_t count) {
  std::string out;
  for (std::size_t i = first; i < first + count && i < tokens.size(); ++i) {
    if (!out.empty()) out += ' ';
    std::string word = tokens[i].text;
    if (tokens[i].capitalized && !word.empty() && word[0] >= 'a' &&
        word[0] <= 'z') {
      word[0] = static_cast<char>(word[0] - 'a' + 'A');
    }
    out += word;
  }
  return out;
}

}  // namespace qadist::qa
