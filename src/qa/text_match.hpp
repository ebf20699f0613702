#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ir/analyzer.hpp"

namespace qadist::qa {

/// The keyword matcher: the index of the first keyword that a paragraph
/// word normalizes to, or -1. A word normalizes the way query keywords
/// were made (`Analyzer::index_terms`): stopwords never match, numbers
/// compare verbatim, everything else by its stem. Compares against the
/// stem in place, without building it.
[[nodiscard]] int match_keyword(const ir::Analyzer& analyzer,
                                std::span<const std::string> keywords,
                                std::string_view word, bool numeric);

/// Maps each paragraph token to the index of the (analyzer-normalized)
/// keyword it matches, or -1. Shared by paragraph scoring and answer
/// windowing so both stages agree on what counts as a keyword hit.
[[nodiscard]] std::vector<int> map_keywords(
    const ir::Analyzer& analyzer, std::span<const std::string> keywords,
    const std::vector<ir::Token>& tokens);

/// The same map, read straight off the text by `ir::WordScanner` without
/// building tokens.
[[nodiscard]] std::vector<int> map_text_keywords(
    const ir::Analyzer& analyzer, std::span<const std::string> keywords,
    std::string_view text);

/// Space-joined surface form of a token range, re-capitalizing tokens whose
/// source was capitalized. (Punctuation between tokens is not recoverable.)
[[nodiscard]] std::string surface_span(const std::vector<ir::Token>& tokens,
                                       std::size_t first, std::size_t count);

}  // namespace qadist::qa
