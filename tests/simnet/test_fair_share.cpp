#include "simnet/fair_share.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "simnet/process.hpp"

namespace qadist::simnet {
namespace {

SimProcess consume_at(Simulation& sim, FairShareServer& server, Seconds start,
                      double work, std::vector<double>& finish_times,
                      std::size_t slot) {
  co_await Delay(sim, start);
  co_await server.consume(work);
  finish_times[slot] = sim.now();
}

TEST(FairShareTest, SingleCustomerRunsAtMaxRate) {
  Simulation sim;
  FairShareServer cpu(sim, "cpu", /*total_rate=*/2.0, /*max_rate=*/1.0);
  std::vector<double> t(1, -1);
  consume_at(sim, cpu, 0.0, 3.0, t, 0);
  sim.run();
  // One task can't exceed one core: 3 cpu-seconds take 3 seconds.
  EXPECT_NEAR(t[0], 3.0, 1e-9);
}

TEST(FairShareTest, TwoCustomersUseBothCores) {
  Simulation sim;
  FairShareServer cpu(sim, "cpu", 2.0, 1.0);
  std::vector<double> t(2, -1);
  consume_at(sim, cpu, 0.0, 3.0, t, 0);
  consume_at(sim, cpu, 0.0, 3.0, t, 1);
  sim.run();
  EXPECT_NEAR(t[0], 3.0, 1e-9);
  EXPECT_NEAR(t[1], 3.0, 1e-9);
}

TEST(FairShareTest, OverloadTimeshares) {
  Simulation sim;
  FairShareServer cpu(sim, "cpu", 1.0, 1.0);
  std::vector<double> t(2, -1);
  consume_at(sim, cpu, 0.0, 1.0, t, 0);
  consume_at(sim, cpu, 0.0, 1.0, t, 1);
  sim.run();
  // Two 1-second jobs on one core in fair share both finish at t=2.
  EXPECT_NEAR(t[0], 2.0, 1e-9);
  EXPECT_NEAR(t[1], 2.0, 1e-9);
}

TEST(FairShareTest, LateArrivalSlowsEarlierFlow) {
  Simulation sim;
  FairShareServer link(sim, "net", 100.0, 100.0);  // bytes/sec
  std::vector<double> t(2, -1);
  consume_at(sim, link, 0.0, 100.0, t, 0);  // alone it would finish at 1.0
  consume_at(sim, link, 0.5, 100.0, t, 1);
  sim.run();
  // Flow 0: 50 bytes in [0,0.5] alone, then shares 50/50. Remaining 50
  // bytes at 50 B/s -> finishes at 1.5.
  EXPECT_NEAR(t[0], 1.5, 1e-9);
  // Flow 1: 50 B/s in [0.5,1.5] = 50 bytes, then alone: 50 bytes at 100 B/s
  // -> finishes at 2.0.
  EXPECT_NEAR(t[1], 2.0, 1e-9);
}

TEST(FairShareTest, DepartureSpeedsUpRemainingFlow) {
  Simulation sim;
  FairShareServer link(sim, "net", 100.0, 100.0);
  std::vector<double> t(2, -1);
  consume_at(sim, link, 0.0, 50.0, t, 0);
  consume_at(sim, link, 0.0, 150.0, t, 1);
  sim.run();
  // Both share until flow 0 completes its 50 bytes at t=1.0; flow 1 then
  // has 100 bytes left at full rate -> t=2.0.
  EXPECT_NEAR(t[0], 1.0, 1e-9);
  EXPECT_NEAR(t[1], 2.0, 1e-9);
}

TEST(FairShareTest, ZeroWorkCompletesImmediately) {
  Simulation sim;
  FairShareServer cpu(sim, "cpu", 1.0, 1.0);
  std::vector<double> t(1, -1);
  consume_at(sim, cpu, 0.0, 0.0, t, 0);
  sim.run();
  EXPECT_NEAR(t[0], 0.0, 1e-12);
}

TEST(FairShareTest, LoadIntegralTracksCustomerSeconds) {
  Simulation sim;
  FairShareServer cpu(sim, "cpu", 1.0, 1.0);
  std::vector<double> t(2, -1);
  consume_at(sim, cpu, 0.0, 1.0, t, 0);
  consume_at(sim, cpu, 0.0, 1.0, t, 1);
  sim.run();
  // 2 customers for 2 seconds = 4 customer-seconds.
  EXPECT_NEAR(cpu.load_integral(), 4.0, 1e-9);
  // Saturation: busy the whole 2 seconds.
  EXPECT_NEAR(cpu.busy_integral(), 2.0, 1e-9);
  EXPECT_NEAR(cpu.work_served(), 2.0, 1e-9);
}

TEST(FairShareTest, BusyIntegralBelowOneWhenUnderParallelism) {
  Simulation sim;
  FairShareServer cpu(sim, "cpu", 4.0, 1.0);  // 4 cores
  std::vector<double> t(1, -1);
  consume_at(sim, cpu, 0.0, 2.0, t, 0);
  sim.run();
  // One task on 4 cores: utilization 1/4 for 2 seconds.
  EXPECT_NEAR(cpu.busy_integral(), 0.5, 1e-9);
  EXPECT_NEAR(cpu.load_integral(), 2.0, 1e-9);
}

TEST(FairShareTest, ManyFlowsAllComplete) {
  Simulation sim;
  FairShareServer disk(sim, "disk", 10.0, 10.0);
  const int n = 50;
  std::vector<double> t(n, -1);
  for (int i = 0; i < n; ++i) {
    consume_at(sim, disk, 0.1 * i, 1.0 + 0.01 * i, t, static_cast<std::size_t>(i));
  }
  sim.run();
  for (int i = 0; i < n; ++i) {
    EXPECT_GT(t[static_cast<std::size_t>(i)], 0.0) << "flow " << i << " never finished";
  }
  EXPECT_EQ(disk.active(), 0);
}

TEST(FairShareTest, RepeatedSamplingKeepsOneCompletionPending) {
  // Every load sample replans the next completion; the replan re-arms the
  // server's one completion timer instead of queueing another event.
  Simulation sim;
  FairShareServer cpu(sim, "cpu", 2.0, 1.0);
  std::vector<double> t(3, -1);
  for (std::size_t i = 0; i < t.size(); ++i) {
    consume_at(sim, cpu, 0.0, 5.0, t, i);
  }
  EXPECT_EQ(sim.pending_events(), 1u);
  for (int i = 1; i <= 40; ++i) {
    sim.run_until(0.1 * i);
    (void)cpu.load_integral();
    (void)cpu.busy_integral();
    EXPECT_EQ(sim.pending_events(), 1u) << "after sample " << i;
  }
  sim.run();
  for (const double finish : t) EXPECT_NEAR(finish, 7.5, 1e-9);
  EXPECT_TRUE(sim.empty());
  // One completion plus three resumes; no superseded completion ran.
  EXPECT_EQ(sim.executed_events(), 4u);
}

TEST(FairShareTest, HaltLeavesNoCompletionPending) {
  Simulation sim;
  FairShareServer cpu(sim, "cpu", 1.0, 1.0);
  std::vector<double> t(2, -1);
  consume_at(sim, cpu, 0.0, 4.0, t, 0);
  consume_at(sim, cpu, 0.0, 4.0, t, 1);
  sim.run_until(1.0);
  cpu.halt();
  EXPECT_EQ(sim.pending_events(), 2u);  // the two orphan resumes only
  sim.run();
  EXPECT_EQ(t, (std::vector<double>{1.0, 1.0}));
  EXPECT_EQ(sim.now(), 1.0);
}

TEST(UtilizationProbeTest, SamplesBusyFractionPerWindow) {
  Simulation sim;
  FairShareServer cpu(sim, "cpu", 1.0, 1.0);
  UtilizationProbe probe(cpu);
  std::vector<double> t(1, -1);
  // Busy for [0, 2], idle afterwards.
  consume_at(sim, cpu, 0.0, 2.0, t, 0);
  sim.run();
  // Whole busy interval in one window.
  EXPECT_NEAR(probe.sample(2.0), 1.0, 1e-9);
  // Next window [2, 4] is pure idle.
  EXPECT_NEAR(probe.sample(4.0), 0.0, 1e-9);
  // Zero-length window reports 0 instead of dividing by zero.
  EXPECT_DOUBLE_EQ(probe.sample(4.0), 0.0);
}

TEST(UtilizationProbeTest, PartialWindowIsFractional) {
  Simulation sim;
  FairShareServer cpu(sim, "cpu", 1.0, 1.0);
  UtilizationProbe probe(cpu);
  std::vector<double> t(1, -1);
  consume_at(sim, cpu, 0.0, 1.0, t, 0);  // busy [0, 1] only
  sim.run();
  // Window [0, 4] saw 1 busy second -> 25% utilization.
  EXPECT_NEAR(probe.sample(4.0), 0.25, 1e-9);
}

// Property: total work served equals total work submitted, for any mix.
class FairShareConservation : public ::testing::TestWithParam<int> {};

TEST_P(FairShareConservation, WorkIsConserved) {
  const int n = GetParam();
  Simulation sim;
  FairShareServer server(sim, "srv", 3.0, 1.5);
  std::vector<double> t(static_cast<std::size_t>(n), -1);
  double submitted = 0.0;
  for (int i = 0; i < n; ++i) {
    const double work = 0.5 + 0.37 * i;
    submitted += work;
    consume_at(sim, server, 0.2 * (i % 7), work, t, static_cast<std::size_t>(i));
  }
  sim.run();
  EXPECT_NEAR(server.work_served(), submitted, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FairShareConservation,
                         ::testing::Values(1, 2, 5, 13, 40));

}  // namespace
}  // namespace qadist::simnet
