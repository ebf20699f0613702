#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/units.hpp"

namespace qadist::simnet {

/// Discrete-event simulation kernel: a clock plus a time-ordered queue of
/// events. All higher-level primitives (processes, resources, links)
/// reduce to `schedule()` calls and Timers against this kernel.
///
/// Three kinds of event share one time order: a coroutine resume (the
/// common case — every awaitable wakes its waiter this way), a callback,
/// and a Timer firing. Resumes and callbacks live in a binary heap of
/// small POD entries; a resume entry carries the coroutine frame address,
/// a callback entry the index of its slot in a callback slab whose freed
/// slots are reused. Armed Timers live in a second, indexed heap so they
/// can be re-armed or cancelled in place; step() fires whichever heap's
/// top is earlier.
///
/// Determinism: events at equal timestamps fire in scheduling order (a
/// monotone sequence number breaks ties), whatever their kind, so
/// simulations are exactly reproducible for a fixed seed.
///
/// Threading: a Simulation is single-threaded by design — the simulated
/// cluster's concurrency is virtual. Never touch one from two host threads.
class Simulation {
 public:
  class Timer;

  Simulation() = default;
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time in seconds.
  [[nodiscard]] Seconds now() const { return now_; }

  /// Schedules `fn` to run at `now() + delay`. Negative delays are clamped
  /// to zero (events never fire in the past); a NaN delay panics — NaN
  /// compares false against everything, so admitting one would silently
  /// corrupt the priority-queue ordering.
  void schedule(Seconds delay, std::function<void()> fn);

  /// Schedules a resume of the suspended coroutine `h` at `now() + delay`,
  /// with the same clamping and NaN checks. Needs no callback storage.
  void schedule(Seconds delay, std::coroutine_handle<> h);

  /// Schedules `fn` at an absolute simulated time (>= now()).
  void schedule_at(Seconds when, std::function<void()> fn);

  /// Runs until the event queue drains. Returns the final clock value.
  Seconds run();

  /// Runs until the queue drains or the clock would pass `deadline`;
  /// the clock is left at min(deadline, last event time).
  Seconds run_until(Seconds deadline);

  /// Executes at most one event. Returns false if the queue was empty.
  bool step();

  [[nodiscard]] bool empty() const { return heap_.empty() && timers_.empty(); }
  /// Scheduled resumes and callbacks plus armed timers.
  [[nodiscard]] std::size_t pending_events() const {
    return heap_.size() + timers_.size();
  }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }
  /// Size of the callback slab: the most callbacks ever pending at once.
  [[nodiscard]] std::size_t callback_slots() const { return callbacks_.size(); }

 private:
  struct Entry {
    Seconds when;
    std::uint64_t seq;
    void* frame;         ///< coroutine to resume; null for a callback
    std::uint32_t slot;  ///< callbacks_ index when frame is null
  };
  struct TimerEntry {
    Seconds when;
    std::uint64_t seq;
    Timer* timer;
  };

  static Seconds checked_delay(Seconds delay);
  /// `when` clamped to now(); panics on NaN.
  [[nodiscard]] Seconds checked_time(Seconds when) const;
  void push(Seconds when, void* frame, std::uint32_t slot);
  void fire_timer();

  // Indexed timer heap: every move writes the entry's position back into
  // its Timer, so arm() and cancel() find it in O(1).
  void place_timer(std::size_t i, const TimerEntry& e);
  void sift_timer(std::size_t i);
  void remove_timer(std::size_t i);

  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Entry> heap_;  // std::push_heap/pop_heap order: earliest first
  std::vector<std::function<void()>> callbacks_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<TimerEntry> timers_;  // min-heap on (when, seq)
};

/// A caller-owned, re-armable one-shot event. At most one firing is
/// pending: arm() replaces it, cancel() withdraws it. Use a Timer wherever
/// an event may be superseded before it fires (a server's next completion,
/// a receive timeout) — a superseded firing leaves the queue instead of
/// running later as a no-op.
///
/// arm() takes a fresh sequence number exactly as a new schedule() would,
/// so a re-armed timer orders against other events as if newly scheduled;
/// cancel() uses none. Destroying an armed Timer cancels it. A Timer that
/// is armed when its Simulation is destroyed is detached and must not be
/// armed again. The callback runs with the timer already disarmed, so it
/// may re-arm it; it may also destroy the timer (e.g. by resuming the
/// coroutine frame that holds it) as long as it touches nothing of the
/// timer afterwards.
class Simulation::Timer {
 public:
  Timer(Simulation& sim, std::function<void()> fn);
  ~Timer() { cancel(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Fires the callback at `now() + delay` (same clamping and NaN checks
  /// as schedule()), replacing any pending firing.
  void arm(Seconds delay);

  /// Withdraws the pending firing, if any.
  void cancel();

  [[nodiscard]] bool armed() const { return index_ != kDisarmed; }

 private:
  friend class Simulation;
  static constexpr std::size_t kDisarmed =
      std::numeric_limits<std::size_t>::max();

  Simulation* sim_;
  std::function<void()> fn_;
  std::size_t index_ = kDisarmed;  ///< position in sim_->timers_
};

}  // namespace qadist::simnet
