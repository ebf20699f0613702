// FairShareServer against a reference copy of its generation-counter
// implementation, which left every superseded completion in the event
// queue as a no-op. The timer-based server must produce the same
// completion instants, bit for bit, and resume customers in the same
// order under a seeded churn of arrivals, cancellations, halts, restarts
// and load samples.

#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "simnet/fair_share.hpp"
#include "simnet/process.hpp"
#include "simnet/simulation.hpp"

namespace qadist::simnet {
namespace {

/// The server as it was before completions became a Timer: every replan
/// schedules a fresh completion event and bumps a generation counter that
/// turns the earlier ones into no-ops.
class GenerationFairShareServer {
 public:
  GenerationFairShareServer(Simulation& sim, std::string name,
                            double total_rate, double max_rate)
      : sim_(sim),
        name_(std::move(name)),
        total_rate_(total_rate),
        max_rate_(max_rate),
        last_update_(sim.now()) {}

  void enqueue(double work, std::coroutine_handle<> h) {
    if (work <= 0.0 || halted_) {
      sim_.schedule(0.0, h);
      return;
    }
    advance();
    flows_.push_back(Flow{work, work, h});
    reschedule();
  }

  void halt() {
    if (halted_) return;
    advance();
    halted_ = true;
    ++generation_;
    std::vector<Flow> orphans = std::move(flows_);
    flows_.clear();
    for (const auto& flow : orphans) sim_.schedule(0.0, flow.handle);
  }

  void restart() {
    if (!halted_) return;
    advance();
    halted_ = false;
  }

  bool cancel(std::coroutine_handle<> h) {
    advance();
    const auto it = std::find_if(flows_.begin(), flows_.end(),
                                 [h](const Flow& f) { return f.handle == h; });
    if (it == flows_.end()) return false;
    flows_.erase(it);
    reschedule();
    sim_.schedule(0.0, h);
    return true;
  }

  double load_integral() {
    advance();
    reschedule();
    return load_integral_;
  }

  double busy_integral() {
    advance();
    reschedule();
    return busy_integral_;
  }

  [[nodiscard]] double work_served() const { return work_served_; }

 private:
  struct Flow {
    double remaining;
    double total;
    std::coroutine_handle<> handle;
  };

  static double done_tolerance(double total_work, double per_flow_rate) {
    return std::max(1e-9 * std::max(1.0, total_work), 1e-7 * per_flow_rate);
  }

  [[nodiscard]] double parallelism() const { return total_rate_ / max_rate_; }

  [[nodiscard]] double per_flow_rate() const {
    if (flows_.empty()) return 0.0;
    return std::min(max_rate_,
                    total_rate_ / static_cast<double>(flows_.size()));
  }

  void advance() {
    const Seconds now = sim_.now();
    const Seconds dt = now - last_update_;
    if (dt > 0.0 && !flows_.empty()) {
      const double rate = per_flow_rate();
      for (auto& flow : flows_) flow.remaining -= rate * dt;
      const auto f = static_cast<double>(flows_.size());
      load_integral_ += f * dt;
      busy_integral_ += std::min(1.0, f / parallelism()) * dt;
    }
    last_update_ = now;
  }

  void reschedule() {
    ++generation_;
    if (flows_.empty()) return;
    const double rate = per_flow_rate();
    double min_remaining = std::numeric_limits<double>::infinity();
    for (const auto& flow : flows_) {
      min_remaining = std::min(min_remaining, flow.remaining);
    }
    const Seconds eta = std::max(0.0, min_remaining) / rate;
    const std::uint64_t gen = generation_;
    sim_.schedule(eta, [this, gen] { on_completion(gen); });
  }

  void on_completion(std::uint64_t generation) {
    if (generation != generation_) return;
    advance();
    const double rate = per_flow_rate();
    std::vector<std::coroutine_handle<>> finished;
    for (auto it = flows_.begin(); it != flows_.end();) {
      if (it->remaining <= done_tolerance(it->total, rate)) {
        work_served_ += it->total;
        finished.push_back(it->handle);
        it = flows_.erase(it);
      } else {
        ++it;
      }
    }
    QADIST_CHECK(!finished.empty());
    reschedule();
    for (auto h : finished) sim_.schedule(0.0, h);
  }

  Simulation& sim_;
  std::string name_;
  double total_rate_;
  double max_rate_;
  std::vector<Flow> flows_;
  Seconds last_update_ = 0.0;
  double load_integral_ = 0.0;
  double busy_integral_ = 0.0;
  double work_served_ = 0.0;
  std::uint64_t generation_ = 0;
  bool halted_ = false;
};

enum class OpKind { kEnqueue, kCancel, kHalt, kRestart, kLoad, kBusy };

struct Op {
  Seconds at;
  OpKind kind;
  double work;        // kEnqueue
  std::uint64_t pick;  // kCancel: which unfinished customer
};

/// A seeded script of server operations, some at equal instants.
std::vector<Op> churn_script(std::uint64_t seed, std::size_t ops) {
  Rng rng(seed);
  std::vector<Op> script;
  Seconds t = 0.0;
  for (std::size_t i = 0; i < ops; ++i) {
    if (rng.uniform01() < 0.7) t += rng.uniform(0.0, 0.4);
    const double r = rng.uniform01();
    Op op{t, OpKind::kEnqueue, 0.0, rng.uniform_u64(0, 1u << 30)};
    if (r < 0.45) {
      op.work = rng.uniform01() < 0.05 ? 0.0 : rng.uniform(0.01, 3.0);
    } else if (r < 0.60) {
      op.kind = OpKind::kCancel;
    } else if (r < 0.64) {
      op.kind = OpKind::kHalt;
    } else if (r < 0.70) {
      op.kind = OpKind::kRestart;
    } else if (r < 0.85) {
      op.kind = OpKind::kLoad;
    } else {
      op.kind = OpKind::kBusy;
    }
    script.push_back(op);
  }
  return script;
}

struct Outcome {
  std::vector<std::pair<std::size_t, double>> resumes;  // (customer, time)
  std::vector<double> samples;                          // integral values
  std::vector<char> cancels;                            // cancel() results
  double work_served = 0.0;
  Seconds end = 0.0;
};

template <typename Server>
struct Harness {
  Simulation sim;
  Server server{sim, "srv", 4.0, 1.0};
  std::vector<std::coroutine_handle<>> handles;
  std::vector<char> finished;
  Outcome out;
};

template <typename Server>
struct EnqueueAwaiter {
  Harness<Server>& hx;
  std::size_t id;
  double work;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    hx.handles[id] = h;
    hx.server.enqueue(work, h);
  }
  void await_resume() const noexcept {}
};

template <typename Server>
SimProcess customer(Harness<Server>& hx, std::size_t id, double work) {
  co_await EnqueueAwaiter<Server>{hx, id, work};
  hx.finished[id] = 1;
  hx.out.resumes.emplace_back(id, hx.sim.now());
}

template <typename Server>
Outcome replay(const std::vector<Op>& script) {
  Harness<Server> hx;
  hx.handles.resize(script.size());
  hx.finished.assign(script.size(), 0);
  std::size_t started = 0;
  for (const Op& op : script) {
    hx.sim.schedule_at(op.at, [&hx, &started, op] {
      switch (op.kind) {
        case OpKind::kEnqueue:
          customer(hx, started++, op.work);
          break;
        case OpKind::kCancel: {
          std::vector<std::size_t> live;
          for (std::size_t i = 0; i < started; ++i) {
            if (hx.finished[i] == 0) live.push_back(i);
          }
          if (live.empty()) break;
          const std::size_t id = live[op.pick % live.size()];
          hx.out.cancels.push_back(hx.server.cancel(hx.handles[id]) ? 1 : 0);
          break;
        }
        case OpKind::kHalt:
          hx.server.halt();
          break;
        case OpKind::kRestart:
          hx.server.restart();
          break;
        case OpKind::kLoad:
          hx.out.samples.push_back(hx.server.load_integral());
          break;
        case OpKind::kBusy:
          hx.out.samples.push_back(hx.server.busy_integral());
          break;
      }
    });
  }
  hx.sim.run();
  hx.out.work_served = hx.server.work_served();
  hx.out.samples.push_back(hx.server.load_integral());
  hx.out.samples.push_back(hx.server.busy_integral());
  hx.out.end = hx.sim.now();
  return hx.out;
}

TEST(FairShareExactTest, TimerServerMatchesGenerationCounterServer) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto script = churn_script(seed, 400);
    const Outcome ref = replay<GenerationFairShareServer>(script);
    const Outcome got = replay<FairShareServer>(script);
    ASSERT_FALSE(ref.resumes.empty());
    EXPECT_EQ(got.resumes.size(), ref.resumes.size());
    for (std::size_t i = 0;
         i < std::min(got.resumes.size(), ref.resumes.size()); ++i) {
      EXPECT_EQ(got.resumes[i].first, ref.resumes[i].first) << "resume " << i;
      EXPECT_EQ(got.resumes[i].second, ref.resumes[i].second)
          << "resume " << i;
    }
    EXPECT_EQ(got.samples, ref.samples);
    EXPECT_EQ(got.cancels, ref.cancels);
    EXPECT_EQ(got.work_served, ref.work_served);
    // The reference ends at its last stale no-op, which may be later than
    // the last real event; the timer server never runs one.
    EXPECT_LE(got.end, ref.end);
  }
}

TEST(FairShareExactTest, ChurnScriptExercisesEveryOperation) {
  // Guards the comparison above against a script that never reaches the
  // interesting paths.
  const auto script = churn_script(3, 400);
  const Outcome got = replay<FairShareServer>(script);
  std::size_t halts = 0;
  for (const Op& op : script) halts += op.kind == OpKind::kHalt ? 1 : 0;
  EXPECT_GT(halts, 0u);
  EXPECT_GT(std::count(got.cancels.begin(), got.cancels.end(), 1), 0);
  EXPECT_GT(got.samples.size(), 50u);
  EXPECT_GT(got.work_served, 0.0);
}

}  // namespace
}  // namespace qadist::simnet
