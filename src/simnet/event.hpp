#pragma once

#include <coroutine>
#include <vector>

#include "common/check.hpp"
#include "simnet/simulation.hpp"

namespace qadist::simnet {

/// One-shot level-triggered event: processes `co_await ev.wait()`; a later
/// `set()` resumes all of them (and any future waiter passes straight
/// through). The simnet analogue of a latch.
class Event {
 public:
  explicit Event(Simulation& sim) : sim_(sim) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  /// Fires the event. Idempotent.
  void set() {
    if (set_) return;
    set_ = true;
    auto waiters = std::move(waiters_);
    waiters_.clear();
    for (auto h : waiters) {
      sim_.schedule(0.0, h);
    }
  }

  [[nodiscard]] bool is_set() const { return set_; }

  struct [[nodiscard]] Awaiter {
    Event& ev;
    bool await_ready() const noexcept { return ev.set_; }
    void await_suspend(std::coroutine_handle<> h) { ev.waiters_.push_back(h); }
    void await_resume() const noexcept {}
  };

  /// Awaitable: suspends until set() has been called.
  Awaiter wait() { return Awaiter{*this}; }

 private:
  Simulation& sim_;
  bool set_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Fan-out/fan-in synchronization: the parent `add()`s one count per child,
/// each child calls `done()` when finished, the parent `co_await wg.wait()`s
/// for the count to reach zero. Counts may be re-armed after a successful
/// wait (used by retry loops in the partition distributor).
class WaitGroup {
 public:
  explicit WaitGroup(Simulation& sim) : sim_(sim) {}
  WaitGroup(const WaitGroup&) = delete;
  WaitGroup& operator=(const WaitGroup&) = delete;

  void add(int n = 1) {
    QADIST_CHECK(n >= 0);
    count_ += n;
  }

  void done() {
    QADIST_CHECK(count_ > 0, << "WaitGroup::done without matching add");
    if (--count_ == 0) {
      auto waiters = std::move(waiters_);
      waiters_.clear();
      for (auto h : waiters) {
        sim_.schedule(0.0, h);
      }
    }
  }

  [[nodiscard]] int count() const { return count_; }

  struct [[nodiscard]] Awaiter {
    WaitGroup& wg;
    bool await_ready() const noexcept { return wg.count_ == 0; }
    void await_suspend(std::coroutine_handle<> h) { wg.waiters_.push_back(h); }
    void await_resume() const noexcept {}
  };

  /// Awaitable: suspends until the outstanding count reaches zero.
  Awaiter wait() { return Awaiter{*this}; }

 private:
  Simulation& sim_;
  int count_ = 0;
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace qadist::simnet
