#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/stats.hpp"
#include "obs/registry.hpp"

namespace qadist::bench {

/// Machine-readable twin of a bench's text table. Each bench
/// builds one report, adds its configuration and measured metrics, and
/// writes `results/BENCH_<name>.json` next to the human-readable
/// `bench_<name>.txt` that scripts/reproduce.sh captures (override the
/// directory with QADIST_RESULTS_DIR). Schema "qadist-bench-v1":
///
///   {"schema": "qadist-bench-v1",
///    "bench": "table5_throughput",
///    "config": {"seeds": 10, "protocol": "high-load 2x"},
///    "metrics": [
///      {"name": "throughput_qpm",
///       "labels": {"nodes": "4", "policy": "DNS"},
///       "count": 10, "mean": 2.61, "p50": 2.60, "p95": 2.70, "max": 2.71,
///       "paper_expected": 2.64},
///      ...]}
///
/// Every metric carries the same statistics block; a scalar measurement is
/// a distribution of one (mean == p50 == p95 == max). `paper_expected` is
/// present only where the source paper publishes the matching number.
class BenchReport {
 public:
  explicit BenchReport(std::string name);

  /// Config entries (experiment knobs; rendered as one JSON object in
  /// insertion order).
  void config(std::string key, std::string value);
  void config(std::string key, double value);
  void config(std::string key, std::int64_t value);

  /// A scalar measurement, optionally with the paper's published value.
  void metric(std::string name, obs::Labels labels, double value);
  void metric(std::string name, obs::Labels labels, double value,
              double paper_expected);

  /// A distribution measurement (count/mean/p50/p95/max from the samples).
  void metric(std::string name, obs::Labels labels, const Samples& samples);
  void metric(std::string name, obs::Labels labels, const Samples& samples,
              double paper_expected);

  /// A streaming-stats measurement; RunningStats keeps no reservoir, so
  /// p50/p95 are reported as the mean (exact count/mean/max).
  void metric(std::string name, obs::Labels labels, const RunningStats& stats);
  void metric(std::string name, obs::Labels labels, const RunningStats& stats,
              double paper_expected);

  [[nodiscard]] std::size_t metric_count() const { return metrics_.size(); }
  [[nodiscard]] std::string to_json() const;

  /// Resolved output path: $QADIST_RESULTS_DIR/BENCH_<name>.json, default
  /// directory "results" (created if missing).
  [[nodiscard]] std::string output_path() const;

  /// Writes the report; returns false (with a stderr note) on I/O failure
  /// so benches keep their text output even when results/ is unwritable.
  bool write() const;

 private:
  struct Metric {
    std::string name;
    obs::Labels labels;
    std::size_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double max = 0.0;
    bool has_paper = false;
    double paper_expected = 0.0;
  };

  void push(Metric m, const double* paper);

  std::string name_;
  std::vector<std::pair<std::string,
                        std::variant<std::string, double, std::int64_t>>>
      config_;
  std::vector<Metric> metrics_;
};

}  // namespace qadist::bench
