#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/units.hpp"

namespace qadist::simnet {

/// Discrete-event simulation kernel: a clock plus a time-ordered queue of
/// events. All higher-level primitives (processes, resources, links)
/// reduce to `schedule()` calls against this kernel.
///
/// Two kinds of event share one queue: a coroutine resume (the common
/// case — every awaitable wakes its waiter this way) and a callback. The
/// queue is a binary heap of small POD entries; a resume entry carries the
/// coroutine frame address, a callback entry the index of its slot in a
/// callback slab whose freed slots are reused.
///
/// Determinism: events at equal timestamps fire in scheduling order (a
/// monotone sequence number breaks ties), whatever their kind, so
/// simulations are exactly reproducible for a fixed seed.
///
/// Threading: a Simulation is single-threaded by design — the simulated
/// cluster's concurrency is virtual. Never touch one from two host threads.
class Simulation {
 public:
  Simulation() = default;
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

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending_events() const { return heap_.size(); }
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

  static Seconds checked_delay(Seconds delay);
  /// `when` clamped to now(); panics on NaN.
  [[nodiscard]] Seconds checked_time(Seconds when) const;
  void push(Seconds when, void* frame, std::uint32_t slot);

  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Entry> heap_;  // std::push_heap/pop_heap order: earliest first
  std::vector<std::function<void()>> callbacks_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace qadist::simnet
