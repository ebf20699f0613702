#pragma once

#include <coroutine>
#include <cstdio>
#include <exception>

#include "common/units.hpp"
#include "simnet/simulation.hpp"

namespace qadist::simnet {

/// A detached simulated process, written as a C++20 coroutine.
///
/// A process function returns SimProcess and uses `co_await` on simnet
/// awaitables (Delay, Event, WaitGroup, FairShareServer::consume, ...).
/// Calling the function *starts* the process immediately (eager initial
/// suspend): it runs synchronously until its first suspension point, then
/// resumes from Simulation events.
///
///   SimProcess client(Simulation& sim, Mailbox<int>& inbox) {
///     co_await Delay(sim, 1.0);
///     int v = co_await inbox.recv();
///     ...
///   }
///
/// Lifetime: the coroutine frame self-destroys when the process finishes.
/// A process suspended when the Simulation is destroyed leaks its frame;
/// simulations are expected to run to completion (all of ours do — every
/// experiment drains its event queue).
///
/// Exceptions escaping a process terminate the program: a simulated node
/// has no one to propagate to, and silently dropping failures would corrupt
/// experiments. Model recoverable failures explicitly — see
/// parallel::ExecutorOptions::failures for host-thread workers and
/// cluster::FaultPlan (node crashes detected by reply timeout, per-strategy
/// recovery) for the simulated cluster.
class SimProcess {
 public:
  struct promise_type {
    SimProcess get_return_object() noexcept { return SimProcess{}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    [[noreturn]] void unhandled_exception() noexcept {
      std::fputs("qadist: exception escaped a SimProcess\n", stderr);
      std::terminate();
    }
  };
};

/// Awaitable that suspends the current process for `delay` simulated
/// seconds: `co_await Delay(sim, 0.5);`
class Delay {
 public:
  Delay(Simulation& sim, Seconds delay) : sim_(sim), delay_(delay) {}

  [[nodiscard]] bool await_ready() const noexcept { return delay_ <= 0.0; }
  void await_suspend(std::coroutine_handle<> h) const {
    sim_.schedule(delay_, h);
  }
  void await_resume() const noexcept {}

 private:
  Simulation& sim_;
  Seconds delay_;
};

}  // namespace qadist::simnet
