#include "cluster/names.hpp"

#include <string>

#include "common/check.hpp"

namespace qadist::cluster {

namespace {

/// Case-folds and maps '_' to '-' so flag spellings compare canonically.
std::string canon(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    if (c == '_') {
      out += '-';
    } else if (c >= 'a' && c <= 'z') {
      out += static_cast<char>(c - 'a' + 'A');
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string_view to_string(Policy policy) {
  switch (policy) {
    case Policy::kDns:
      return "DNS";
    case Policy::kInter:
      return "INTER";
    case Policy::kDqa:
      return "DQA";
    case Policy::kTwoChoice:
      return "TWO-CHOICE";
  }
  QADIST_UNREACHABLE("bad Policy");
}

std::optional<Policy> parse_policy(std::string_view name) {
  const std::string c = canon(name);
  for (const Policy p : {Policy::kDns, Policy::kInter, Policy::kDqa,
                         Policy::kTwoChoice}) {
    if (c == to_string(p)) return p;
  }
  return std::nullopt;
}

}  // namespace qadist::cluster
