#include "simnet/simulation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <coroutine>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "simnet/process.hpp"

namespace qadist::simnet {
namespace {

TEST(SimulationTest, StartsAtZero) {
  Simulation sim;
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_TRUE(sim.empty());
}

TEST(SimulationTest, EventsFireInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 3.0);
}

TEST(SimulationTest, EqualTimesFireInSchedulingOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimulationTest, EventsCanScheduleEvents) {
  Simulation sim;
  int fired = 0;
  sim.schedule(1.0, [&] {
    ++fired;
    sim.schedule(1.0, [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 2.0);
}

TEST(SimulationTest, NegativeDelayClampsToNow) {
  Simulation sim;
  double fired_at = -1.0;
  sim.schedule(5.0, [&] {
    sim.schedule(-3.0, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, 5.0);
}

TEST(SimulationTest, NanDelayPanics) {
  // A NaN delay would silently corrupt the event-queue ordering (every
  // comparison against it is false), so it must die loudly instead.
  Simulation sim;
  EXPECT_DEATH(sim.schedule(std::nan(""), [] {}), "NaN delay");
  EXPECT_DEATH(sim.schedule_at(std::nan(""), [] {}), "NaN");
}

TEST(SimulationTest, NanDelayPanicsForCoroutineResumes) {
  Simulation sim;
  const std::coroutine_handle<> noop = std::noop_coroutine();
  EXPECT_DEATH(sim.schedule(std::nan(""), noop), "NaN delay");
}

SimProcess resume_logger(Simulation& sim, Seconds delay, std::string tag,
                         std::vector<std::string>& order) {
  co_await Delay(sim, delay);
  order.push_back(tag);
}

TEST(SimulationTest, EqualTimesMixingResumesAndCallbacksStayFifo) {
  // Coroutine resumes and callbacks share one sequence: at equal
  // timestamps they fire in scheduling order whatever their kind.
  Simulation sim;
  std::vector<std::string> order;
  sim.schedule(1.0, [&] { order.push_back("cb0"); });
  resume_logger(sim, 1.0, "co0", order);
  resume_logger(sim, 1.0, "co1", order);
  sim.schedule_at(1.0, [&] { order.push_back("cb1"); });
  resume_logger(sim, 1.0, "co2", order);
  sim.schedule(0.5, [&] { order.push_back("early"); });
  sim.schedule(1.0, [&] { order.push_back("cb2"); });
  EXPECT_EQ(sim.pending_events(), 7u);
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"early", "cb0", "co0", "co1",
                                             "cb1", "co2", "cb2"}));
  EXPECT_EQ(sim.executed_events(), 7u);
}

TEST(SimulationTest, CallbackSchedulingAtNowRunsAfterQueuedPeers) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule(1.0, [&] {
    order.push_back(1);
    sim.schedule(0.0, [&] { order.push_back(3); });
    sim.schedule_at(sim.now(), [&] { order.push_back(4); });
  });
  sim.schedule(1.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.now(), 1.0);
}

TEST(SimulationTest, CallbackSlotsAreReusedAndReleaseTheirCaptures) {
  Simulation sim;
  auto token = std::make_shared<int>(0);
  int hops = 0;
  // A self-rescheduling chain with a short-lived fan-out at every hop:
  // at most four callbacks are ever pending, so the slab stays at four
  // slots however many events run.
  std::function<void()> hop = [&] {
    if (++hops == 5000) return;
    sim.schedule(0.0, [token] { ++*token; });
    sim.schedule(1.0, [token] { ++*token; });
    sim.schedule(0.5, hop);
  };
  sim.schedule(0.0, hop);
  EXPECT_EQ(token.use_count(), 1);
  sim.run();
  EXPECT_EQ(*token, 2 * 4999);
  EXPECT_EQ(hops, 5000);
  EXPECT_LE(sim.callback_slots(), 4u);
  // An executed callback's captures are destroyed, not parked in its slot.
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(sim.executed_events(), 1u + 3u * 4999u);
}

TEST(SimulationTest, RunUntilStopsAfterTheLastEventAtTheDeadline) {
  Simulation sim;
  std::vector<double> fired;
  for (const double t : {1.0, 2.0, 3.0, 3.0, 4.0}) {
    sim.schedule_at(t, [&] { fired.push_back(sim.now()); });
  }
  sim.run_until(3.0);  // inclusive: both events at 3.0 run
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0, 3.0, 3.0}));
  EXPECT_EQ(sim.now(), 3.0);
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.executed_events(), 4u);
  sim.run_until(3.5);
  EXPECT_EQ(sim.now(), 3.5);
  EXPECT_EQ(sim.executed_events(), 4u);
  sim.run();
  EXPECT_EQ(fired.back(), 4.0);
  EXPECT_TRUE(sim.empty());
}

TEST(SimulationTest, PendingAndExecutedCountBothEventKinds) {
  Simulation sim;
  std::vector<std::string> order;
  resume_logger(sim, 2.0, "co", order);
  sim.schedule(1.0, [] {});
  sim.schedule(3.0, [] {});
  EXPECT_EQ(sim.pending_events(), 3u);
  EXPECT_EQ(sim.executed_events(), 0u);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(order, (std::vector<std::string>{"co"}));
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.executed_events(), 2u);
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.executed_events(), 3u);
}

TEST(SimulationTest, RunUntilStopsEarly) {
  Simulation sim;
  int fired = 0;
  sim.schedule(1.0, [&] { ++fired; });
  sim.schedule(10.0, [&] { ++fired; });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 5.0);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulationTest, RunUntilAdvancesClockWhenIdle) {
  Simulation sim;
  sim.run_until(42.0);
  EXPECT_EQ(sim.now(), 42.0);
}

TEST(SimulationTest, StepExecutesExactlyOne) {
  Simulation sim;
  int fired = 0;
  sim.schedule(1.0, [&] { ++fired; });
  sim.schedule(2.0, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(sim.executed_events(), 2u);
}

TEST(SimulationTest, ScheduleAtAbsoluteTime) {
  Simulation sim;
  double t = -1;
  sim.schedule_at(7.5, [&] { t = sim.now(); });
  sim.run();
  EXPECT_EQ(t, 7.5);
}

TEST(TimerTest, FiresInSchedulingOrderWithResumesAndCallbacks) {
  // Timers share the kernel's sequence numbers: at equal timestamps a
  // timer, a coroutine resume and a callback fire in the order they were
  // scheduled, and a re-armed timer orders as if newly scheduled.
  Simulation sim;
  std::vector<std::string> order;
  Simulation::Timer early(sim, [&] { order.push_back("t-early"); });
  Simulation::Timer moved(sim, [&] { order.push_back("t-moved"); });
  early.arm(1.0);
  moved.arm(1.0);
  resume_logger(sim, 1.0, "co0", order);
  sim.schedule(1.0, [&] { order.push_back("cb0"); });
  Simulation::Timer late(sim, [&] { order.push_back("t-late"); });
  late.arm(1.0);
  moved.arm(1.0);  // re-armed: now behind every event scheduled so far
  sim.schedule(1.0, [&] { order.push_back("cb1"); });
  EXPECT_EQ(sim.pending_events(), 6u);
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"t-early", "co0", "cb0",
                                             "t-late", "t-moved", "cb1"}));
  EXPECT_EQ(sim.executed_events(), 6u);
}

TEST(TimerTest, RearmingMovesTheFiringEitherWay) {
  Simulation sim;
  std::vector<double> fired;
  Simulation::Timer a(sim, [&] { fired.push_back(sim.now()); });
  Simulation::Timer b(sim, [&] { fired.push_back(-sim.now()); });
  a.arm(5.0);
  b.arm(3.0);
  a.arm(1.0);  // earlier than before
  b.arm(4.0);  // later than before
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run();
  EXPECT_EQ(fired, (std::vector<double>{1.0, -4.0}));
  EXPECT_EQ(sim.executed_events(), 2u);
}

TEST(TimerTest, CancelWithdrawsTheFiringWithoutASequenceNumber) {
  Simulation sim;
  std::vector<std::string> order;
  Simulation::Timer timer(sim, [&] { order.push_back("timer"); });
  timer.arm(1.0);
  EXPECT_TRUE(timer.armed());
  EXPECT_EQ(sim.pending_events(), 1u);
  timer.cancel();
  EXPECT_FALSE(timer.armed());
  EXPECT_TRUE(sim.empty());
  timer.cancel();  // idempotent
  sim.schedule(1.0, [&] { order.push_back("cb"); });
  timer.arm(1.0);
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"cb", "timer"}));
  EXPECT_EQ(sim.executed_events(), 2u);
}

TEST(TimerTest, RearmsFromInsideItsOwnCallback) {
  Simulation sim;
  std::vector<double> ticks;
  std::function<void()> tick;
  Simulation::Timer timer(sim, [&] { tick(); });
  tick = [&] {
    ticks.push_back(sim.now());
    EXPECT_FALSE(timer.armed());  // disarmed before its callback runs
    if (ticks.size() < 4) timer.arm(0.5);
  };
  timer.arm(1.0);
  sim.run();
  EXPECT_EQ(ticks, (std::vector<double>{1.0, 1.5, 2.0, 2.5}));
  EXPECT_FALSE(timer.armed());
  EXPECT_EQ(sim.executed_events(), 4u);
}

TEST(TimerTest, DestroyingAnArmedTimerCancelsIt) {
  Simulation sim;
  int fired = 0;
  auto timer = std::make_unique<Simulation::Timer>(sim, [&] { ++fired; });
  Simulation::Timer other(sim, [&] { fired += 10; });
  timer->arm(2.0);
  other.arm(1.0);
  EXPECT_EQ(sim.pending_events(), 2u);
  timer.reset();
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(sim.now(), 1.0);
}

TEST(TimerTest, SimulationDestroyedBeforeItsArmedTimers) {
  // The kernel detaches armed timers when it dies first, so destroying
  // them afterwards touches no freed memory (run under ASan in CI).
  auto sim = std::make_unique<Simulation>();
  Simulation::Timer armed(*sim, [] {});
  Simulation::Timer idle(*sim, [] {});
  armed.arm(1.0);
  sim.reset();
  EXPECT_FALSE(armed.armed());
  EXPECT_FALSE(idle.armed());
}

TEST(TimerTest, CallbackMayDestroyItsTimer) {
  Simulation sim;
  int fired = 0;
  std::unique_ptr<Simulation::Timer> timer;
  timer = std::make_unique<Simulation::Timer>(sim, [&] {
    ++fired;
    timer.reset();
  });
  timer->arm(1.0);
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(timer, nullptr);
}

TEST(TimerTest, RunUntilStopsAtATimer) {
  Simulation sim;
  std::vector<double> fired;
  Simulation::Timer timer(sim, [&] { fired.push_back(sim.now()); });
  sim.schedule(5.0, [&] { fired.push_back(sim.now()); });
  timer.arm(2.0);
  sim.run_until(2.0);  // inclusive: the timer at the deadline fires
  EXPECT_EQ(fired, (std::vector<double>{2.0}));
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.executed_events(), 1u);
  timer.arm(1.0);
  sim.run_until(2.5);
  EXPECT_EQ(sim.now(), 2.5);
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_EQ(sim.executed_events(), 1u);
  sim.run();
  EXPECT_EQ(fired, (std::vector<double>{2.0, 3.0, 5.0}));
  EXPECT_EQ(sim.executed_events(), 3u);
  EXPECT_TRUE(sim.empty());
}

TEST(TimerTest, ArmClampsNegativeDelaysAndPanicsOnNan) {
  Simulation sim;
  double fired_at = -1.0;
  Simulation::Timer timer(sim, [&] { fired_at = sim.now(); });
  sim.schedule(3.0, [&] { timer.arm(-1.0); });
  sim.run();
  EXPECT_EQ(fired_at, 3.0);
  EXPECT_DEATH(timer.arm(std::nan("")), "NaN delay");
}

TEST(TimerTest, ManyTimersFireInTimeOrder) {
  // Exercises the indexed heap: arm, re-arm and cancel a few hundred
  // timers in a seeded pattern, then check the firing order against a
  // sort of the surviving (when, arm order) keys.
  Simulation sim;
  constexpr std::size_t kTimers = 300;
  std::vector<std::size_t> fired;
  std::vector<std::unique_ptr<Simulation::Timer>> timers;
  for (std::size_t i = 0; i < kTimers; ++i) {
    timers.push_back(std::make_unique<Simulation::Timer>(
        sim, [&fired, i] { fired.push_back(i); }));
  }
  struct Key {
    double when;
    std::size_t order;
    std::size_t id;
  };
  std::vector<Key> keys(kTimers, Key{-1.0, 0, 0});
  std::size_t armed = 0;
  Rng rng(12345);
  for (std::size_t round = 0; round < 3 * kTimers; ++round) {
    const std::size_t i = rng.below(kTimers);
    if (rng.uniform01() < 0.2) {
      timers[i]->cancel();
      keys[i].when = -1.0;
    } else {
      const auto when = static_cast<double>(rng.below(50));
      timers[i]->arm(when);
      keys[i] = Key{when, armed++, i};
    }
  }
  std::vector<Key> live;
  for (const Key& k : keys) {
    if (k.when >= 0.0) live.push_back(k);
  }
  std::sort(live.begin(), live.end(), [](const Key& a, const Key& b) {
    return a.when != b.when ? a.when < b.when : a.order < b.order;
  });
  EXPECT_EQ(sim.pending_events(), live.size());
  sim.run();
  std::vector<std::size_t> expected;
  for (const Key& k : live) expected.push_back(k.id);
  EXPECT_EQ(fired, expected);
}

}  // namespace
}  // namespace qadist::simnet
