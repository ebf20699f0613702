#include "simnet/simulation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <coroutine>
#include <functional>
#include <memory>
#include <string>
#include <vector>

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

}  // namespace
}  // namespace qadist::simnet
