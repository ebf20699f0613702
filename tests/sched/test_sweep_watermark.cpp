// The watermark that lets FailureDetector::sweep and LoadTable::expire
// return without scanning must never change what they do: every
// transition, expiry and membership answer has to match a plain full scan
// on every step of a random trace, including silences exactly equal to a
// threshold.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "sched/failure_detector.hpp"
#include "sched/load_table.hpp"

namespace qadist::sched {
namespace {

/// The detector as it was before the watermark: every sweep scans every
/// peer. Kept verbatim apart from naming so the comparison is against the
/// original semantics, not a re-derivation.
class FullScanDetector {
 public:
  explicit FullScanDetector(FailureDetectorConfig config) : config_(config) {}

  PeerState heartbeat(NodeId node, Seconds now) {
    Peer& p = peer(node);
    const PeerState before = p.known ? p.state : PeerState::kAlive;
    if (p.known) {
      if (p.state == PeerState::kSuspect) {
        ++suspicions_cleared;
        if (p.hint_raised && config_.hint_hysteresis > 0.0) {
          p.suppress_hints_until = now + config_.hint_hysteresis;
        }
      }
      if (p.state == PeerState::kDead) ++rejoins;
    }
    p.known = true;
    p.state = PeerState::kAlive;
    p.last_heard = now;
    p.hint_raised = false;
    return before;
  }

  void suspect_hint(NodeId node, Seconds now) {
    Peer& p = peer(node);
    if (!p.known) {
      p.known = true;
      p.last_heard = now;
    }
    if (p.state == PeerState::kAlive) {
      const Seconds suspect_after =
          config_.suspect_after_missed * config_.heartbeat_period;
      const bool beats_current = now - p.last_heard <= suspect_after;
      if (beats_current && now < p.suppress_hints_until) {
        ++hints_suppressed;
        return;
      }
      p.state = PeerState::kSuspect;
      p.hint_raised = true;
      ++suspicions_raised;
    }
  }

  std::vector<DetectorTransition> sweep(Seconds now) {
    std::vector<DetectorTransition> fired;
    const Seconds suspect_after =
        config_.suspect_after_missed * config_.heartbeat_period;
    for (NodeId id = 0; id < peers_.size(); ++id) {
      Peer& p = peers_[id];
      if (!p.known || p.state == PeerState::kDead) continue;
      const Seconds silence = now - p.last_heard;
      if (p.state == PeerState::kAlive && silence > suspect_after) {
        p.state = PeerState::kSuspect;
        ++suspicions_raised;
        fired.push_back({id, PeerState::kAlive, PeerState::kSuspect});
      }
      if (p.state == PeerState::kSuspect &&
          silence > config_.confirm_dead_after) {
        p.state = PeerState::kDead;
        ++deaths_confirmed;
        fired.push_back({id, PeerState::kSuspect, PeerState::kDead});
      }
    }
    return fired;
  }

  [[nodiscard]] PeerState state(NodeId node) const {
    if (node >= peers_.size() || !peers_[node].known) return PeerState::kAlive;
    return peers_[node].state;
  }
  [[nodiscard]] bool known(NodeId node) const {
    return node < peers_.size() && peers_[node].known;
  }

  std::uint64_t suspicions_raised = 0;
  std::uint64_t suspicions_cleared = 0;
  std::uint64_t deaths_confirmed = 0;
  std::uint64_t rejoins = 0;
  std::uint64_t hints_suppressed = 0;

 private:
  struct Peer {
    bool known = false;
    PeerState state = PeerState::kAlive;
    Seconds last_heard = 0.0;
    bool hint_raised = false;
    Seconds suppress_hints_until = 0.0;
  };
  Peer& peer(NodeId node) {
    if (node >= peers_.size()) peers_.resize(node + 1);
    return peers_[node];
  }

  FailureDetectorConfig config_;
  std::vector<Peer> peers_;
};

/// LoadTable membership as it was before the watermark: every expire()
/// scans every entry.
class FullScanMembership {
 public:
  void update(NodeId node, Seconds now) {
    Entry& e = entry(node);
    e.alive = true;
    e.stale = false;
    e.last_update = now;
  }
  void remove(NodeId node) {
    if (node < entries_.size()) entries_[node].alive = false;
  }
  void mark_stale(NodeId node, bool stale) {
    if (node < entries_.size() && entries_[node].alive) {
      entries_[node].stale = stale;
    }
  }
  void expire(Seconds now, Seconds timeout) {
    for (auto& e : entries_) {
      if (e.alive && now - e.last_update > timeout) e.alive = false;
    }
  }
  [[nodiscard]] std::vector<NodeId> members() const {
    std::vector<NodeId> out;
    for (NodeId id = 0; id < entries_.size(); ++id) {
      if (entries_[id].alive) out.push_back(id);
    }
    return out;
  }
  [[nodiscard]] bool is_stale(NodeId node) const {
    return node < entries_.size() && entries_[node].alive &&
           entries_[node].stale;
  }

 private:
  struct Entry {
    bool alive = false;
    bool stale = false;
    Seconds last_update = 0.0;
  };
  Entry& entry(NodeId node) {
    if (node >= entries_.size()) entries_.resize(node + 1);
    return entries_[node];
  }
  std::vector<Entry> entries_;
};

/// Next trace instant. Steps on a 0.25 s grid (exactly representable, so
/// silences land exactly on the 2 s / 3 s thresholds) mixed with
/// off-grid steps, repeated instants and occasional long gaps.
Seconds advance(Rng& rng, Seconds now) {
  switch (rng.below(8)) {
    case 0:
    case 1:
      return now;
    case 2:
    case 3:
      return now + 0.25;
    case 4:
    case 5:
      return now + rng.uniform(0.0, 0.5);
    case 6:
      return now + 0.25 * static_cast<double>(1 + rng.below(16));
    default:
      return now + 1.0;
  }
}

void expect_same_transitions(const std::vector<DetectorTransition>& got,
                             const std::vector<DetectorTransition>& want,
                             std::size_t tick) {
  ASSERT_EQ(got.size(), want.size()) << "tick " << tick;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].node, want[i].node) << "tick " << tick;
    EXPECT_EQ(got[i].from, want[i].from) << "tick " << tick;
    EXPECT_EQ(got[i].to, want[i].to) << "tick " << tick;
  }
}

void run_detector_trace(const FailureDetectorConfig& cfg, std::uint64_t seed) {
  constexpr NodeId kPeers = 10;  // hints may name up to kPeers + 4 (unknown)
  FailureDetector det(cfg);
  FullScanDetector ref(cfg);
  Rng rng(seed);
  // Peers that are "up" beat; downed peers fall silent until brought back,
  // which drives them through suspect and dead into a rejoin.
  std::vector<bool> up(kPeers, true);
  Seconds now = 0.0;
  std::size_t fired = 0;
  std::size_t early_outs = 0;
  std::size_t full_scans = 0;
  for (std::size_t tick = 0; tick < 4000; ++tick) {
    now = advance(rng, now);
    const auto node = static_cast<NodeId>(rng.below(kPeers));
    switch (rng.below(6)) {
      case 0:
        if (rng.bernoulli(0.3)) up[node] = !up[node];
        break;
      case 1: {
        const auto hinted = static_cast<NodeId>(rng.below(kPeers + 4));
        det.suspect_hint(hinted, now);
        ref.suspect_hint(hinted, now);
        break;
      }
      case 2:
        // A broadcast round: every up peer beats.
        for (NodeId id = 0; id < kPeers; ++id) {
          if (up[id]) {
            ASSERT_EQ(det.heartbeat(id, now), ref.heartbeat(id, now))
                << "tick " << tick;
          }
        }
        break;
      case 3:
        if (up[node]) {
          ASSERT_EQ(det.heartbeat(node, now), ref.heartbeat(node, now))
              << "tick " << tick;
        }
        break;
      default: {
        const std::uint64_t scanned = det.peers_scanned();
        const auto got = det.sweep(now);
        const auto want = ref.sweep(now);
        fired += want.size();
        ++(det.peers_scanned() == scanned ? early_outs : full_scans);
        expect_same_transitions(got, want, tick);
        break;
      }
    }
    for (NodeId id = 0; id < kPeers + 4; ++id) {
      ASSERT_EQ(det.known(id), ref.known(id)) << "tick " << tick;
      ASSERT_EQ(det.state(id), ref.state(id)) << "tick " << tick;
    }
  }
  EXPECT_EQ(det.suspicions_raised(), ref.suspicions_raised);
  EXPECT_EQ(det.suspicions_cleared(), ref.suspicions_cleared);
  EXPECT_EQ(det.deaths_confirmed(), ref.deaths_confirmed);
  EXPECT_EQ(det.rejoins(), ref.rejoins);
  EXPECT_EQ(det.hints_suppressed(), ref.hints_suppressed);
  // The trace must exercise both sweep paths and every lifecycle edge.
  EXPECT_GT(early_outs, 0u);
  EXPECT_GT(full_scans, 0u);
  EXPECT_GT(fired, 0u);
  EXPECT_GT(ref.deaths_confirmed, 0u);
  EXPECT_GT(ref.rejoins, 0u);
}

TEST(SweepWatermarkTest, DetectorMatchesFullScanOnRandomTraces) {
  FailureDetectorConfig cfg;  // period 1, suspect after 2 beats, dead after 3
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    run_detector_trace(cfg, seed);
  }
}

TEST(SweepWatermarkTest, DetectorMatchesFullScanWithHysteresis) {
  FailureDetectorConfig cfg;
  cfg.hint_hysteresis = 1.5;
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    SCOPED_TRACE(seed);
    run_detector_trace(cfg, seed);
  }
}

TEST(SweepWatermarkTest, DetectorMatchesFullScanWhenDeathPrecedesSuspicion) {
  // confirm_dead_after below the suspicion threshold: the early-out must use
  // the smaller of the two.
  FailureDetectorConfig cfg;
  cfg.heartbeat_period = 0.5;
  cfg.suspect_after_missed = 5.0;
  cfg.confirm_dead_after = 1.75;
  for (std::uint64_t seed = 21; seed <= 24; ++seed) {
    SCOPED_TRACE(seed);
    run_detector_trace(cfg, seed);
  }
}

TEST(SweepWatermarkTest, DetectorFiresOnlyStrictlyPastTheThreshold) {
  FailureDetector det;
  det.heartbeat(3, 1.0);
  EXPECT_TRUE(det.sweep(3.0).empty());  // silence exactly 2 beats
  const auto fired = det.sweep(std::nextafter(3.0, 4.0));
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].to, PeerState::kSuspect);
}

TEST(SweepWatermarkTest, SteadyStateDetectorSweepVisitsNoPeers) {
  constexpr NodeId kPeers = 64;
  FailureDetector det;
  for (NodeId id = 0; id < kPeers; ++id) det.heartbeat(id, 0.0);
  EXPECT_TRUE(det.sweep(0.5).empty());
  EXPECT_EQ(det.peers_scanned(), 0u);

  // Every peer beats once per period at staggered phases and sweeps right
  // after (the cluster's monitor loop): about one full scan per period,
  // not one per monitor.
  constexpr int kPeriods = 50;
  for (int period = 1; period <= kPeriods; ++period) {
    for (NodeId id = 0; id < kPeers; ++id) {
      const Seconds now =
          period + static_cast<double>(id) / static_cast<double>(kPeers);
      det.heartbeat(id, now);
      EXPECT_TRUE(det.sweep(now).empty());
    }
  }
  EXPECT_LE(det.peers_scanned(), kPeriods * kPeers);
}

void run_table_trace(std::uint64_t seed) {
  constexpr NodeId kNodes = 10;
  LoadTable table;
  FullScanMembership ref;
  Rng rng(seed);
  Seconds now = 0.0;
  std::size_t expired = 0;
  std::size_t early_outs = 0;
  std::size_t full_scans = 0;
  for (std::size_t tick = 0; tick < 4000; ++tick) {
    now = advance(rng, now);
    const auto node = static_cast<NodeId>(rng.below(kNodes));
    switch (rng.below(6)) {
      case 0:
        table.remove(node);
        ref.remove(node);
        break;
      case 1: {
        const bool stale = rng.bernoulli(0.7);
        table.mark_stale(node, stale);
        ref.mark_stale(node, stale);
        break;
      }
      case 2:
        for (NodeId id = 0; id < kNodes; ++id) {
          if (rng.bernoulli(0.8)) {
            table.update(id, ResourceLoad{1.0, 2.0}, now, 0.5);
            ref.update(id, now);
          }
        }
        break;
      case 3:
        table.update(node, ResourceLoad{1.0, 2.0}, now, 0.5);
        ref.update(node, now);
        break;
      default: {
        // Mostly the membership timeout, sometimes other horizons.
        const Seconds timeout = rng.bernoulli(0.8)
                                    ? 3.0
                                    : 0.25 * static_cast<double>(rng.below(9));
        const std::size_t before = ref.members().size();
        const std::uint64_t scanned = table.entries_scanned();
        table.expire(now, timeout);
        ref.expire(now, timeout);
        expired += before - ref.members().size();
        ++(table.entries_scanned() == scanned ? early_outs : full_scans);
        break;
      }
    }
    ASSERT_EQ(table.members(), ref.members()) << "tick " << tick;
    for (NodeId id = 0; id < kNodes; ++id) {
      ASSERT_EQ(table.is_stale(id), ref.is_stale(id)) << "tick " << tick;
    }
  }
  EXPECT_GT(early_outs, 0u);
  EXPECT_GT(full_scans, 0u);
  EXPECT_GT(expired, 0u);
}

TEST(SweepWatermarkTest, LoadTableExpireMatchesFullScanOnRandomTraces) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    run_table_trace(seed);
  }
}

TEST(SweepWatermarkTest, LoadTableExpiresOnlyStrictlyPastTheTimeout) {
  LoadTable table;
  table.update(4, ResourceLoad{}, 2.0);
  table.expire(5.0, 3.0);  // exactly the timeout: kept
  EXPECT_TRUE(table.is_member(4));
  table.expire(std::nextafter(5.0, 6.0), 3.0);
  EXPECT_FALSE(table.is_member(4));
}

TEST(SweepWatermarkTest, SteadyStateExpireVisitsNoEntries) {
  constexpr NodeId kNodes = 64;
  LoadTable table;
  for (NodeId id = 0; id < kNodes; ++id) table.update(id, ResourceLoad{}, 0.0);
  table.expire(0.5, 3.0);
  EXPECT_EQ(table.entries_scanned(), 0u);

  constexpr int kPeriods = 50;
  for (int period = 1; period <= kPeriods; ++period) {
    for (NodeId id = 0; id < kNodes; ++id) {
      const Seconds now =
          period + static_cast<double>(id) / static_cast<double>(kNodes);
      table.update(id, ResourceLoad{}, now);
      table.expire(now, 3.0);
    }
  }
  EXPECT_EQ(table.size(), kNodes);
  EXPECT_LE(table.entries_scanned(), kPeriods * kNodes);
}

}  // namespace
}  // namespace qadist::sched
