// Exact pins for the real Q/A pipeline's outputs: every answer Engine::answer
// returns over the shared-world questions (candidate, window, score bits,
// paragraph address, entity type), every paragraph-scoring rank value, and
// the exact WorkCounters the simulator's cost model is calibrated from.
//
// The constants were captured from a known-good build. They are not meant
// to be re-captured: a change here means the pipeline now answers, ranks or
// counts differently, which moves every calibrated plan and every simulated
// result downstream. A failure prints the actual values for diagnosis.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string_view>

#include "support/test_world.hpp"

namespace qadist::qa {
namespace {

using qadist::testing::test_world;

/// FNV-1a, folded one field at a time; each string is length-prefixed so
/// field boundaries cannot alias.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (char c : s) byte(static_cast<std::uint8_t>(c));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

TEST(PipelinePinning, AnswersAndWorkCountersAreExact) {
  const auto& world = test_world();
  Digest answers;
  WorkCounters total;
  std::size_t answer_count = 0;
  for (const auto& q : world.questions) {
    const QAResult res = world.engine->answer(q);
    answers.add(static_cast<std::uint64_t>(res.answers.size()));
    for (const Answer& a : res.answers) {
      answers.add(a.candidate);
      answers.add(a.window);
      answers.add(a.score);
      answers.add(static_cast<std::uint64_t>(a.ref.doc));
      answers.add(static_cast<std::uint64_t>(a.ref.index));
      answers.add(static_cast<std::uint64_t>(a.type));
      ++answer_count;
    }
    const WorkCounters& w = res.work;
    total.retrieval.postings_scanned += w.retrieval.postings_scanned;
    total.retrieval.paragraphs_returned += w.retrieval.paragraphs_returned;
    total.retrieval.bytes_materialized += w.retrieval.bytes_materialized;
    total.answer.paragraphs_processed += w.answer.paragraphs_processed;
    total.answer.tokens_scanned += w.answer.tokens_scanned;
    total.answer.candidates_considered += w.answer.candidates_considered;
    total.answer.windows_scored += w.answer.windows_scored;
    total.paragraphs_retrieved += w.paragraphs_retrieved;
    total.paragraphs_accepted += w.paragraphs_accepted;
  }
  SCOPED_TRACE(::testing::Message()
               << "actual: answers=" << answer_count << " digest=0x"
               << std::hex << answers.value() << std::dec
               << " postings=" << total.retrieval.postings_scanned
               << " returned=" << total.retrieval.paragraphs_returned
               << " bytes=" << total.retrieval.bytes_materialized
               << " processed=" << total.answer.paragraphs_processed
               << " tokens=" << total.answer.tokens_scanned
               << " candidates=" << total.answer.candidates_considered
               << " windows=" << total.answer.windows_scored
               << " retrieved=" << total.paragraphs_retrieved
               << " accepted=" << total.paragraphs_accepted);
  EXPECT_EQ(world.questions.size(), 60u);
  EXPECT_EQ(answer_count, 300u);
  EXPECT_EQ(answers.value(), 0x1f6fafc59d88bcULL);
  EXPECT_EQ(total.retrieval.postings_scanned, 4753u);
  EXPECT_EQ(total.retrieval.paragraphs_returned, 3909u);
  EXPECT_EQ(total.retrieval.bytes_materialized, 1145178u);
  EXPECT_EQ(total.answer.paragraphs_processed, 3018u);
  EXPECT_EQ(total.answer.tokens_scanned, 152534u);
  EXPECT_EQ(total.answer.candidates_considered, 8576u);
  EXPECT_EQ(total.answer.windows_scored, 2335u);
  EXPECT_EQ(total.paragraphs_retrieved, 3909u);
  EXPECT_EQ(total.paragraphs_accepted, 3018u);
}

// Paragraph scores reach the answers only through the ordering threshold
// and AP's rank heuristic, so pin each one directly too.
TEST(PipelinePinning, ParagraphScoresAreExact) {
  const auto& world = test_world();
  const Engine& engine = *world.engine;
  Digest scores;
  std::size_t scored = 0;
  for (const auto& q : world.questions) {
    const auto pq = engine.process_question(q.id, q.text);
    for (std::size_t sub = 0; sub < engine.subcollection_count(); ++sub) {
      for (auto& p : engine.retrieve(sub, pq)) {
        const auto ref = p.ref;
        const ScoredParagraph s = engine.score(pq, std::move(p));
        scores.add(static_cast<std::uint64_t>(ref.doc));
        scores.add(static_cast<std::uint64_t>(ref.index));
        scores.add(s.score);
        ++scored;
      }
    }
  }
  SCOPED_TRACE(::testing::Message() << "actual: scored=" << scored
                                    << " digest=0x" << std::hex
                                    << scores.value());
  EXPECT_EQ(scored, 3909u);
  EXPECT_EQ(scores.value(), 0xd86832809e6b5447ULL);
}

}  // namespace
}  // namespace qadist::qa
