#pragma once

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// A fixed reference workload timed in chunks between the units of each
/// pass (simulated runs, questions), so that pass times can be corrected
/// for the speed of the host while they ran.
///
/// The benchmark shares its host with other tenants. Their load changes
/// the speed of memory-bound code by up to ~1.5x, in phases of tens of
/// seconds to minutes, so no statistic over one run of a minute or less
/// (median, mean or minimum of its passes) repeats between runs. The
/// reference is a small discrete-event loop with the simulator's access
/// pattern: a binary heap of pending events, lookups in a ~10 MB hash
/// table, row updates in a 256 x 256 load table and short list scans. It
/// slows down with the program: in a four-minute log on a 4-core Xeon VM,
/// with a chunk after every simulated run, the log of a sim_broker256 pass
/// time correlated 0.91 with the log of the chunk times beside it, with
/// slope 1.08. The reference is the benchmark's own code and does not
/// depend on the program's.
class HostRef {
 public:
  /// Seconds one chunk takes on a quiet 4-core Xeon VM (the host the
  /// benchmark was tuned on). Scaled times read as seconds on that host.
  static constexpr double kNominalChunkSeconds = 0.035;

  HostRef() : load_(256 * 256, 0.0), lists_(4096) {
    const double before = resident_mb_now();
    std::uint64_t x = 1;
    table_.reserve(200000);
    for (int i = 0; i < 200000; ++i) {
      x = x * 6364136223846793005ULL + 1;
      table_[x >> 20] = static_cast<double>(i);
    }
    for (std::size_t i = 0; i < lists_.size(); ++i) {
      lists_[i].assign(64 + i % 64, static_cast<std::uint32_t>(i));
    }
    resident_mb_ = resident_mb_now() - before;
  }

  /// Runs one chunk of the reference, the same work every call, and
  /// returns its wall seconds.
  double chunk() {
    const auto t0 = std::chrono::steady_clock::now();
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>> heap;
    std::uint64_t x = 42;
    double acc = 0.0;
    for (int i = 0; i < 20000; ++i) {
      x = next(x);
      heap.push({static_cast<double>(x >> 40),
                 static_cast<std::uint32_t>(x % 256)});
    }
    for (int e = 0; e < 40000; ++e) {
      const Event ev = heap.top();
      heap.pop();
      x = next(x);
      const auto it = table_.find((x >> 20) & 0xfffffULL);
      if (it != table_.end()) acc += it->second;
      double* row = &load_[ev.node * 256];
      for (int k = 0; k < 256; k += 8) row[k] = row[k] * 0.5 + acc * 1e-9;
      for (const std::uint32_t v : lists_[x % lists_.size()]) acc += v;
      heap.push({ev.t + static_cast<double>(x >> 50),
                 static_cast<std::uint32_t>(x % 256)});
    }
    sink_ += acc;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  }

  /// Resident memory the reference's state added, in MB: taken off the
  /// process high-water mark so peak_rss_mb stays the program's.
  [[nodiscard]] double resident_mb() const { return resident_mb_; }

 private:
  struct Event {
    double t;
    std::uint32_t node;
    bool operator>(const Event& o) const { return t > o.t; }
  };

  static std::uint64_t next(std::uint64_t x) {
    return x * 6364136223846793005ULL + 1442695040888963407ULL;
  }

  static double resident_mb_now() {
    long pages = 0, resident = 0;
    if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
      if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
      std::fclose(f);
    }
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
  }

  std::vector<double> load_;
  std::unordered_map<std::uint64_t, double> table_;
  std::vector<std::vector<std::uint32_t>> lists_;
  double resident_mb_ = 0.0;
  double sink_ = 0.0;  // keeps the chunk's work observable
};

/// Runs reference chunks at a steady cadence between the units of a pass:
/// after a unit, once kSpacingSeconds of measured work have passed since
/// the last chunk, and at the end of a pass that had none. With no
/// reference (traced runs) it does nothing.
class RefCadence {
 public:
  static constexpr double kSpacingSeconds = 0.3;

  explicit RefCadence(HostRef* ref) : ref_(ref) {}

  /// Call after each unit of measured work; returns the seconds of the
  /// chunk it ran, 0 when none, so a caller timing the whole pass can
  /// leave it out.
  double unit_done(double seconds) {
    since_ += seconds;
    return ref_ != nullptr && since_ >= kSpacingSeconds ? take() : 0.0;
  }

  /// Ends a pass; returns the mean chunk time during it.
  double end_pass() {
    if (ref_ != nullptr && chunks_.empty()) take();
    double sum = 0.0;
    for (const double c : chunks_) sum += c;
    const double mean =
        chunks_.empty() ? 0.0 : sum / static_cast<double>(chunks_.size());
    chunks_.clear();
    return mean;
  }

 private:
  double take() {
    chunks_.push_back(ref_->chunk());
    since_ = 0.0;
    return chunks_.back();
  }

  HostRef* ref_;
  double since_ = 0.0;
  std::vector<double> chunks_;
};

/// Pass times scaled to the nominal host: pass i is scaled by the nominal
/// chunk time over `ref_s[i]`, the mean chunk time during that pass.
inline std::vector<double> host_scaled(const std::vector<double>& pass_s,
                                       const std::vector<double>& ref_s) {
  std::vector<double> out;
  for (std::size_t i = 0; i < pass_s.size() && i < ref_s.size(); ++i) {
    out.push_back(pass_s[i] * HostRef::kNominalChunkSeconds / ref_s[i]);
  }
  return out;
}

}  // namespace perfbench
