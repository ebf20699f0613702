#include "simnet/simulation.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.hpp"

namespace qadist::simnet {

namespace {

/// Heap comparator: true if `a` fires after `b`, so a heap's top is its
/// earliest (when, seq). A function object rather than a function pointer,
/// so the heap algorithms inline it; templated so it also compares an
/// event entry against a timer entry.
struct Later {
  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const noexcept {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }
};

}  // namespace

Simulation::~Simulation() {
  // Armed timers outlive the kernel: detach them so their destructors do
  // not reach back into it.
  for (const TimerEntry& e : timers_) {
    e.timer->index_ = Timer::kDisarmed;
    e.timer->sim_ = nullptr;
  }
}

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
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void Simulation::place_timer(std::size_t i, const TimerEntry& e) {
  timers_[i] = e;
  e.timer->index_ = i;
}

void Simulation::sift_timer(std::size_t i) {
  const TimerEntry e = timers_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!Later{}(timers_[parent], e)) break;
    place_timer(i, timers_[parent]);
    i = parent;
  }
  const std::size_t n = timers_.size();
  for (std::size_t child = 2 * i + 1; child < n; child = 2 * i + 1) {
    if (child + 1 < n && Later{}(timers_[child], timers_[child + 1])) ++child;
    if (!Later{}(e, timers_[child])) break;
    place_timer(i, timers_[child]);
    i = child;
  }
  place_timer(i, e);
}

void Simulation::remove_timer(std::size_t i) {
  timers_[i].timer->index_ = Timer::kDisarmed;
  const TimerEntry last = timers_.back();
  timers_.pop_back();
  if (i < timers_.size()) {
    place_timer(i, last);
    sift_timer(i);
  }
}

Simulation::Timer::Timer(Simulation& sim, std::function<void()> fn)
    : sim_(&sim), fn_(std::move(fn)) {
  QADIST_CHECK(fn_ != nullptr);
}

void Simulation::Timer::arm(Seconds delay) {
  QADIST_CHECK(sim_ != nullptr, << "timer armed after its Simulation died");
  Simulation& sim = *sim_;
  const TimerEntry e{sim.checked_time(sim.now_ + checked_delay(delay)),
                     sim.next_seq_++, this};
  if (!armed()) {
    index_ = sim.timers_.size();
    sim.timers_.push_back(e);
  }
  sim.place_timer(index_, e);
  sim.sift_timer(index_);
}

void Simulation::Timer::cancel() {
  if (armed()) sim_->remove_timer(index_);
}

void Simulation::fire_timer() {
  const TimerEntry e = timers_.front();
  QADIST_CHECK(e.when >= now_,
               << "time went backwards: " << e.when << " < " << now_);
  now_ = e.when;
  ++executed_;
  remove_timer(0);  // disarmed before the callback, which may re-arm it
  e.timer->fn_();
}

bool Simulation::step() {
  if (!timers_.empty() &&
      (heap_.empty() || Later{}(heap_.front(), timers_.front()))) {
    fire_timer();
    return true;
  }
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
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
  while ((!heap_.empty() && heap_.front().when <= deadline) ||
         (!timers_.empty() && timers_.front().when <= deadline)) {
    step();
  }
  if (now_ < deadline) now_ = deadline;
  return now_;
}

}  // namespace qadist::simnet
