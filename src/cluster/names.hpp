#pragma once

#include <optional>
#include <string_view>

namespace qadist::cluster {

/// The three load-balancing policies compared in paper Sec. 6.1:
///  DNS   — round-robin placement only (the DNS name-to-address baseline);
///  INTER — DNS plus the question dispatcher (whole-task migration before
///          the task starts; the model of [3,7]);
///  DQA   — INTER plus the PR and AP dispatchers embedded in the task (the
///          paper's contribution). Under low load the embedded dispatchers
///          partition the bottleneck modules (intra-question parallelism);
///          under high load they degrade gracefully into extra migration
///          points.
/// An extension beyond the paper: kTwoChoice implements the classic
/// "power of two choices" dispatcher — each question samples two pool
/// members and takes the lighter one. No threshold, no broadcast scan;
/// included as a modern baseline against the paper's INTER design.
enum class Policy { kDns, kInter, kDqa, kTwoChoice };

/// Canonical name and parser for the policy enum, which crosses program
/// boundaries (bench CLI flags, trace attributes, JSON reports). to_string
/// and parse round-trip exactly; parse is additionally case-insensitive and
/// accepts '-'/'_' interchangeably ("two-choice" == "TWO_CHOICE").
[[nodiscard]] std::string_view to_string(Policy policy);
[[nodiscard]] std::optional<Policy> parse_policy(std::string_view name);

}  // namespace qadist::cluster
