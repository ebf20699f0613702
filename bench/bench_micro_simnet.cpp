// Micro-benchmarks of the discrete-event engine: raw event throughput,
// coroutine process churn, fair-share server arrival/departure cost
// (O(F) per event — the relevant scaling knob for big clusters), load
// sampling between arrivals, and timed receives that a send wins.

#include <benchmark/benchmark.h>

#include "simnet/fair_share.hpp"
#include "simnet/mailbox.hpp"
#include "simnet/process.hpp"
#include "simnet/simulation.hpp"

namespace {

using namespace qadist;
using namespace qadist::simnet;

void BM_EventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    Simulation sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule(static_cast<double>(i % 17), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventThroughput);

SimProcess delay_chain(Simulation& sim, int hops) {
  for (int i = 0; i < hops; ++i) {
    co_await Delay(sim, 0.001);
  }
}

void BM_CoroutineDelayChain(benchmark::State& state) {
  for (auto _ : state) {
    Simulation sim;
    for (int p = 0; p < 50; ++p) delay_chain(sim, 20);
    sim.run();
    benchmark::DoNotOptimize(sim.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * 50 * 20);
}
BENCHMARK(BM_CoroutineDelayChain);

SimProcess consume_work(Simulation& sim, FairShareServer& server,
                        double start, double work) {
  co_await Delay(sim, start);
  co_await server.consume(work);
}

void BM_FairShareChurn(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulation sim;
    FairShareServer server(sim, "srv", 4.0, 1.0);
    for (int f = 0; f < flows; ++f) {
      consume_work(sim, server, 0.01 * f, 1.0 + 0.01 * f);
    }
    sim.run();
    benchmark::DoNotOptimize(server.work_served());
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_FairShareChurn)->Arg(8)->Arg(64)->Arg(256);

SimProcess load_sampler(Simulation& sim, FairShareServer& server,
                        int samples, Seconds period) {
  for (int i = 0; i < samples; ++i) {
    co_await Delay(sim, period);
    benchmark::DoNotOptimize(server.load_integral());
  }
}

// The load monitor's pattern: every sample settles the server and replans
// its next completion, here four times per arrival.
void BM_FairShareSampled(benchmark::State& state) {
  for (auto _ : state) {
    Simulation sim;
    FairShareServer server(sim, "srv", 4.0, 1.0);
    for (int f = 0; f < 64; ++f) {
      consume_work(sim, server, 0.01 * f, 1.0 + 0.01 * f);
    }
    load_sampler(sim, server, 256, 0.0025);
    sim.run();
    benchmark::DoNotOptimize(server.work_served());
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_FairShareSampled);

SimProcess ping(Mailbox<int>& in, Mailbox<int>& out, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    out.send(i);
    benchmark::DoNotOptimize(co_await in.recv());
  }
}

SimProcess pong(Mailbox<int>& in, Mailbox<int>& out, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    const int v = co_await in.recv();
    out.send(v);
  }
}

void BM_MailboxPingPong(benchmark::State& state) {
  for (auto _ : state) {
    Simulation sim;
    Mailbox<int> a(sim), b(sim);
    ping(a, b, 200);
    pong(b, a, 200);
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 400);
}
BENCHMARK(BM_MailboxPingPong);

SimProcess timed_receiver(Mailbox<int>& in, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    benchmark::DoNotOptimize(co_await in.recv_for(10.0));
  }
}

SimProcess delayed_sender(Simulation& sim, Mailbox<int>& out, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await Delay(sim, 0.001);
    out.send(i);
  }
}

// A reply-timeout receive that the reply wins, as in the cluster's leg
// supervision loops: every round arms a timeout the send then settles.
void BM_MailboxTimedRecv(benchmark::State& state) {
  for (auto _ : state) {
    Simulation sim;
    Mailbox<int> box(sim);
    timed_receiver(box, 200);
    delayed_sender(sim, box, 200);
    sim.run();
    benchmark::DoNotOptimize(sim.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_MailboxTimedRecv);

}  // namespace
