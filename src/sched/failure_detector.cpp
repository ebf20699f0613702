#include "sched/failure_detector.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace qadist::sched {

const char* to_string(PeerState state) {
  switch (state) {
    case PeerState::kAlive:
      return "alive";
    case PeerState::kSuspect:
      return "suspect";
    case PeerState::kDead:
      return "dead";
  }
  QADIST_UNREACHABLE("bad PeerState");
}

FailureDetector::FailureDetector(FailureDetectorConfig config)
    : config_(config) {
  QADIST_CHECK(config_.heartbeat_period > 0.0);
  QADIST_CHECK(config_.suspect_after_missed > 0.0);
  QADIST_CHECK(config_.confirm_dead_after > 0.0);
}

FailureDetector::Peer& FailureDetector::peer(NodeId node) {
  if (node >= peers_.size()) peers_.resize(node + 1);
  return peers_[node];
}

void FailureDetector::hear(Peer& p, Seconds now) {
  p.last_heard = now;
  if (now < watermark_) watermark_ = now;
}

PeerState FailureDetector::heartbeat(NodeId node, Seconds now) {
  Peer& p = peer(node);
  const PeerState before = p.known ? p.state : PeerState::kAlive;
  if (p.known) {
    if (p.state == PeerState::kSuspect) {
      ++suspicions_cleared_;
      // A hint-raised suspicion cleared by an on-schedule beat was a false
      // alarm; arm the hysteresis window so the next stray send failure
      // does not flap this peer right back to kSuspect.
      if (p.hint_raised && config_.hint_hysteresis > 0.0) {
        p.suppress_hints_until = now + config_.hint_hysteresis;
      }
    }
    if (p.state == PeerState::kDead) ++rejoins_;
  }
  p.known = true;
  p.state = PeerState::kAlive;
  hear(p, now);
  p.hint_raised = false;
  return before;
}

void FailureDetector::suspect_hint(NodeId node, Seconds now) {
  Peer& p = peer(node);
  if (!p.known) {
    // Enroll so the suspicion can later harden into a confirmed death.
    p.known = true;
    hear(p, now);
  }
  if (p.state == PeerState::kAlive) {
    // Within the hysteresis window, a hint against a peer whose heartbeats
    // are still current is discounted — we just proved a hint wrong and the
    // beats say the peer is fine. Stale heartbeats void the suppression:
    // then the hint is corroborated by silence and raises as usual.
    const Seconds suspect_after =
        config_.suspect_after_missed * config_.heartbeat_period;
    const bool beats_current = now - p.last_heard <= suspect_after;
    if (beats_current && now < p.suppress_hints_until) {
      ++hints_suppressed_;
      return;
    }
    p.state = PeerState::kSuspect;
    p.hint_raised = true;
    ++suspicions_raised_;
  }
}

std::vector<DetectorTransition> FailureDetector::sweep(Seconds now) {
  std::vector<DetectorTransition> fired;
  const Seconds suspect_after =
      config_.suspect_after_missed * config_.heartbeat_period;
  if (now - watermark_ <= std::min(suspect_after, config_.confirm_dead_after)) {
    return fired;
  }
  peers_scanned_ += peers_.size();
  watermark_ = std::numeric_limits<Seconds>::infinity();
  for (NodeId id = 0; id < peers_.size(); ++id) {
    Peer& p = peers_[id];
    if (!p.known || p.state == PeerState::kDead) continue;
    const Seconds silence = now - p.last_heard;
    // Matches LoadTable::expire's strict `>` so a detector-driven removal
    // never fires on a different monitor tick than the membership timeout.
    if (p.state == PeerState::kAlive && silence > suspect_after) {
      p.state = PeerState::kSuspect;
      ++suspicions_raised_;
      fired.push_back({id, PeerState::kAlive, PeerState::kSuspect});
    }
    if (p.state == PeerState::kSuspect && silence > config_.confirm_dead_after) {
      p.state = PeerState::kDead;
      ++deaths_confirmed_;
      fired.push_back({id, PeerState::kSuspect, PeerState::kDead});
    } else if (p.last_heard < watermark_) {
      watermark_ = p.last_heard;
    }
  }
  return fired;
}

PeerState FailureDetector::state(NodeId node) const {
  if (node >= peers_.size() || !peers_[node].known) return PeerState::kAlive;
  return peers_[node].state;
}

bool FailureDetector::known(NodeId node) const {
  return node < peers_.size() && peers_[node].known;
}

}  // namespace qadist::sched
