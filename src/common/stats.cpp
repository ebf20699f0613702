#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>

#include "common/check.hpp"

namespace qadist {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

RunningQuantile::RunningQuantile(double q) : q_(std::clamp(q, 0.0, 1.0)) {}

void RunningQuantile::add(double x) {
  const std::greater<> min_heap;
  if (!low_.empty() && x <= low_.front()) {
    low_.push_back(x);
    std::push_heap(low_.begin(), low_.end());
  } else {
    high_.push_back(x);
    std::push_heap(high_.begin(), high_.end(), min_heap);
  }
  // The rank arithmetic of nth_element over all samples, so value() is
  // the very sample it would pick. k <= n, and k grows by at most one.
  const auto k = static_cast<std::size_t>(
                     q_ * static_cast<double>(count() - 1)) + 1;
  while (low_.size() > k) {
    std::pop_heap(low_.begin(), low_.end());
    high_.push_back(low_.back());
    low_.pop_back();
    std::push_heap(high_.begin(), high_.end(), min_heap);
  }
  while (low_.size() < k) {
    std::pop_heap(high_.begin(), high_.end(), min_heap);
    low_.push_back(high_.back());
    high_.pop_back();
    std::push_heap(low_.begin(), low_.end());
  }
}

std::optional<double> RunningQuantile::value() const {
  if (low_.empty()) return std::nullopt;
  return low_.front();
}

void Samples::add(double x) {
  values_.push_back(x);
  sorted_ = false;
}

void Samples::sort() {
  if (sorted_) return;
  std::sort(values_.begin(), values_.end());
  sorted_ = true;
}

double Samples::mean() const {
  if (values_.empty()) return 0.0;
  double s = 0.0;
  for (double v : values_) s += v;
  return s / static_cast<double>(values_.size());
}

double Samples::stddev() const {
  if (values_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double v : values_) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(values_.size() - 1));
}

double Samples::quantile_of(const std::vector<double>& sorted, double q) {
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto idx = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(idx);
  if (idx + 1 >= sorted.size()) return sorted.back();
  return sorted[idx] * (1.0 - frac) + sorted[idx + 1] * frac;
}

double Samples::quantile(double q) {
  QADIST_CHECK(q >= 0.0 && q <= 1.0, << "quantile " << q << " out of range");
  QADIST_CHECK(!values_.empty(), << "quantile of empty sample set");
  sort();
  return quantile_of(values_, q);
}

double Samples::quantile(double q) const {
  QADIST_CHECK(q >= 0.0 && q <= 1.0, << "quantile " << q << " out of range");
  QADIST_CHECK(!values_.empty(), << "quantile of empty sample set");
  if (sorted_) return quantile_of(values_, q);
  std::vector<double> copy(values_);
  std::sort(copy.begin(), copy.end());
  return quantile_of(copy, q);
}

double Samples::min() const {
  QADIST_CHECK(!values_.empty(), << "quantile of empty sample set");
  if (sorted_) return values_.front();
  return *std::min_element(values_.begin(), values_.end());
}

double Samples::max() const {
  QADIST_CHECK(!values_.empty(), << "quantile of empty sample set");
  if (sorted_) return values_.back();
  return *std::max_element(values_.begin(), values_.end());
}

std::string Samples::summary() const {
  std::ostringstream os;
  if (values_.empty()) {
    os << "n=0";
    return os.str();
  }
  // One sorted copy for every order statistic in the line (a const method
  // must not sort values_ in place).
  std::vector<double> copy(values_);
  std::sort(copy.begin(), copy.end());
  os << "n=" << copy.size() << " mean=" << mean()
     << " p50=" << quantile_of(copy, 0.5) << " p95=" << quantile_of(copy, 0.95)
     << " max=" << copy.back();
  return os.str();
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), counts_(buckets, 0) {
  QADIST_CHECK(hi > lo, << "histogram range empty: [" << lo << ", " << hi << ")");
  QADIST_CHECK(buckets >= 1);
  bucket_width_ = (hi - lo) / static_cast<double>(buckets);
}

void Histogram::add(double x) {
  if (!std::isfinite(x)) {
    // NaN compares false against every bound and ±inf overflows the index
    // cast (UB), so non-finite samples get their own tally instead of a
    // bucket.
    ++nonfinite_;
    return;
  }
  // Clamp in double space: casting a huge finite value (e.g. 1e300 with
  // unit-width buckets) to an integer before clamping is equally UB.
  double pos = (x - lo_) / bucket_width_;
  pos = std::clamp(pos, 0.0, static_cast<double>(counts_.size() - 1));
  ++counts_[static_cast<std::size_t>(pos)];
  ++total_;
}

std::size_t Histogram::count(std::size_t bucket) const {
  QADIST_CHECK(bucket < counts_.size());
  return counts_[bucket];
}

double Histogram::bucket_low(std::size_t bucket) const {
  QADIST_CHECK(bucket < counts_.size());
  return lo_ + bucket_width_ * static_cast<double>(bucket);
}

double Histogram::bucket_high(std::size_t bucket) const {
  return bucket_low(bucket) + bucket_width_;
}

std::string Histogram::ascii(std::size_t width) const {
  std::size_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  std::ostringstream os;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const auto bar = counts_[b] * width / peak;
    os.width(12);
    os << bucket_low(b) << " |";
    os << std::string(bar, '#') << " " << counts_[b] << "\n";
  }
  return os.str();
}

}  // namespace qadist
