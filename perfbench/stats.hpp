#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

namespace perfbench {

/// A percentile needs at least this many samples strictly above it before
/// the benchmark reports it.
inline constexpr std::size_t kMinBeyond = 10;

/// One percentile read off a sample set, with the evidence behind it.
struct Percentile {
  double pct = 0.0;          ///< e.g. 99; 0 when no percentile is supported
  double value = 0.0;
  std::size_t samples = 0;   ///< size of the sample set
  std::size_t beyond = 0;    ///< samples strictly above `value`

  [[nodiscard]] bool supported() const { return pct > 0.0; }
};

/// Percentile p in [0, 100] of an ascending vector, by linear
/// interpolation between order statistics. Empty input reads as 0.
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double pos = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto idx = static_cast<std::size_t>(pos);
  if (idx + 1 >= sorted.size()) return sorted.back();
  const double frac = pos - static_cast<double>(idx);
  return sorted[idx] * (1.0 - frac) + sorted[idx + 1] * frac;
}

/// The highest percentile of the ladder {99.9, 99, 95, 90, 75, 50} that
/// does not exceed `ceiling` and has at least kMinBeyond samples strictly
/// above it. Unsupported (pct = 0) when even the median lacks them.
inline Percentile highest_supported(std::vector<double> samples,
                                    double ceiling = 99.0) {
  std::sort(samples.begin(), samples.end());
  Percentile out;
  out.samples = samples.size();
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (p > ceiling) continue;
    const double v = percentile_sorted(samples, p);
    const auto beyond = static_cast<std::size_t>(
        samples.end() - std::upper_bound(samples.begin(), samples.end(), v));
    if (beyond >= kMinBeyond) {
      out.pct = p;
      out.value = v;
      out.beyond = beyond;
      return out;
    }
  }
  return out;
}

inline double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, 50.0);
}

inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (const double v : values) total += v;
  return total / static_cast<double>(values.size());
}

/// FNV-1a over the exact bit patterns fed to it: two runs digest equal
/// only if every value matched bit for bit.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      state_ ^= (v >> (8 * i)) & 0xffu;
      state_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(std::string_view s) {
    for (const char c : s) {
      state_ ^= static_cast<unsigned char>(c);
      state_ *= 0x100000001b3ULL;
    }
    add(static_cast<std::uint64_t>(s.size()));
  }
  [[nodiscard]] std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
