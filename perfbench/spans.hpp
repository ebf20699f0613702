#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Host-time spans recorded by the benchmark around each call it makes
/// into a layer. Spans stay in memory and are written out once, at exit.
/// Names must be string literals (spans store the pointer).
class HostSpans {
 public:
  using Id = std::int64_t;
  static constexpr Id kNone = -1;

  struct Span {
    const char* name = "";
    double start = 0.0;  ///< seconds since the recorder was created
    double end = 0.0;
    Id parent = kNone;
    std::int64_t group = -1;  ///< shared by the spans of one question
  };

  /// Self time of every span carrying one name, summed.
  struct SelfTime {
    double seconds = 0.0;
    std::size_t count = 0;
  };

  Id begin(const char* name, Id parent = kNone, std::int64_t group = -1) {
    spans_.push_back(Span{name, now(), 0.0, parent, group});
    return static_cast<Id>(spans_.size() - 1);
  }
  void end(Id id) { spans_[static_cast<std::size_t>(id)].end = now(); }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] double duration(Id id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.end - s.start;
  }

  /// Self time per span name: each span's duration minus the part of its
  /// interval that its children cover.
  [[nodiscard]] std::map<std::string, SelfTime> self_times() const {
    std::vector<std::vector<std::size_t>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent != kNone) {
        children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
      }
    }
    std::map<std::string, SelfTime> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::vector<std::pair<double, double>> cover;
      for (const std::size_t c : children[i]) {
        cover.emplace_back(std::max(s.start, spans_[c].start),
                           std::min(s.end, spans_[c].end));
      }
      std::sort(cover.begin(), cover.end());
      double covered = 0.0;
      double reach = s.start;
      for (const auto& [lo, hi] : cover) {
        const double from = std::max(lo, reach);
        if (hi > from) {
          covered += hi - from;
          reach = hi;
        }
      }
      SelfTime& t = out[s.name];
      t.seconds += (s.end - s.start) - covered;
      ++t.count;
    }
    return out;
  }

  /// One JSON object per line: name, start, end, id, parent, group.
  [[nodiscard]] bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,"
                   "\"id\":%zu,\"parent\":%lld,\"group\":%lld}\n",
                   s.name, s.start, s.end, i, static_cast<long long>(s.parent),
                   static_cast<long long>(s.group));
    }
    return std::fclose(f) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;

  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; a null
/// recorder makes it a no-op, so timed and traced code share one path.
class SpanScope {
 public:
  SpanScope(HostSpans* spans, const char* name,
            HostSpans::Id parent = HostSpans::kNone, std::int64_t group = -1)
      : spans_(spans),
        id_(spans != nullptr ? spans->begin(name, parent, group)
                             : HostSpans::kNone) {}
  ~SpanScope() {
    if (spans_ != nullptr) spans_->end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  [[nodiscard]] HostSpans::Id id() const { return id_; }

 private:
  HostSpans* spans_;
  HostSpans::Id id_;
};

}  // namespace perfbench
