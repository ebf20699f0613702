#include "simnet/simulation.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.hpp"

namespace qadist::simnet {

namespace {

/// Heap comparator: true if `a` fires after `b`, so the heap top is the
/// earliest (when, seq).
template <typename Entry>
bool later(const Entry& a, const Entry& b) {
  if (a.when != b.when) return a.when > b.when;
  return a.seq > b.seq;
}

}  // namespace

Seconds Simulation::checked_delay(Seconds delay) {
  QADIST_CHECK(!std::isnan(delay),
               << "NaN delay would corrupt the event-queue ordering");
  return delay < 0.0 ? 0.0 : delay;
}

Seconds Simulation::checked_time(Seconds when) const {
  QADIST_CHECK(!std::isnan(when),
               << "NaN timestamp would corrupt the event-queue ordering");
  return when < now_ ? now_ : when;
}

void Simulation::schedule(Seconds delay, std::function<void()> fn) {
  schedule_at(now_ + checked_delay(delay), std::move(fn));
}

void Simulation::schedule(Seconds delay, std::coroutine_handle<> h) {
  QADIST_CHECK(h != nullptr);
  push(checked_time(now_ + checked_delay(delay)), h.address(), 0);
}

void Simulation::schedule_at(Seconds when, std::function<void()> fn) {
  QADIST_CHECK(fn != nullptr);
  when = checked_time(when);
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(callbacks_.size());
    callbacks_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    callbacks_[slot] = std::move(fn);
  }
  push(when, nullptr, slot);
}

void Simulation::push(Seconds when, void* frame, std::uint32_t slot) {
  heap_.push_back(Entry{when, next_seq_++, frame, slot});
  std::push_heap(heap_.begin(), heap_.end(), later<Entry>);
}

bool Simulation::step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), later<Entry>);
  const Entry e = heap_.back();
  heap_.pop_back();
  QADIST_CHECK(e.when >= now_,
               << "time went backwards: " << e.when << " < " << now_);
  now_ = e.when;
  ++executed_;
  if (e.frame != nullptr) {
    std::coroutine_handle<>::from_address(e.frame).resume();
    return true;
  }
  // Move the callback out before running it: it may schedule more events,
  // which can reuse its slot or grow the slab.
  auto fn = std::move(callbacks_[e.slot]);
  free_slots_.push_back(e.slot);
  fn();
  return true;
}

Seconds Simulation::run() {
  while (step()) {
  }
  return now_;
}

Seconds Simulation::run_until(Seconds deadline) {
  while (!heap_.empty() && heap_.front().when <= deadline) {
    step();
  }
  if (now_ < deadline) now_ = deadline;
  return now_;
}

}  // namespace qadist::simnet
