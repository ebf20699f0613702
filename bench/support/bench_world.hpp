#pragma once

#include <memory>
#include <vector>

#include "cluster/cost_model.hpp"
#include "cluster/plan.hpp"
#include "cluster/system.hpp"
#include "cluster/workload.hpp"
#include "corpus/generator.hpp"
#include "model/predictions.hpp"
#include "qa/engine.hpp"
#include "workload/arrival.hpp"

namespace qadist::bench {

/// The shared benchmark world: one synthetic corpus sized so that a
/// question retrieves/accepts enough paragraphs to exercise partitioning
/// (a few hundred accepted, vs the paper's ~880), the engine over it, a
/// TREC-like question set, the calibrated cost model, and precomputed
/// question plans for the simulator.
///
/// Built at most once per process, on first use (it runs the real pipeline
/// for every plan), so every bench of one qadist_bench call shares it.
struct BenchWorld {
  corpus::GeneratedCorpus corpus;
  std::unique_ptr<qa::Engine> engine;
  std::vector<corpus::Question> questions;
  std::unique_ptr<cluster::CostModel> cost;
  std::vector<cluster::QuestionPlan> plans;

  /// Mean sequential (1-node, reference-disk) service time of the plans.
  [[nodiscard]] double mean_service_seconds() const;
  /// Mean accepted paragraphs per question.
  [[nodiscard]] double mean_accepted_paragraphs() const;
};

/// Singleton accessor; construction logs progress to stderr.
const BenchWorld& bench_world();

/// High-load workload per the paper's Sec. 6.1 protocol: 8·N questions
/// submitted with inter-arrival gaps sustaining ~2x the aggregate service
/// rate, identical sequence for every policy at a given seed.
cluster::Metrics run_high_load(const BenchWorld& world,
                               cluster::Policy policy, std::size_t nodes,
                               std::uint64_t seed,
                               const cluster::SystemConfig* base = nullptr);

/// Seed-averaged high-load metrics (throughput, latency, migrations).
struct PolicyResult {
  double throughput_qpm = 0.0;
  double mean_latency = 0.0;
  double p95_latency = 0.0;
  double migrations_qa = 0.0;
  double migrations_pr = 0.0;
  double migrations_ap = 0.0;
};

PolicyResult run_policy_averaged(const BenchWorld& world,
                                 cluster::Policy policy, std::size_t nodes,
                                 int seeds,
                                 const cluster::SystemConfig* base = nullptr);

/// High-load run with an explicit (possibly Zipf-repeating) workload and
/// full config. With `prewarm` the caches of the rendezvous-preferred
/// nodes are seeded with every distinct plan the stream will submit, so
/// the run measures warm-cache steady state.
cluster::Metrics run_zipf_load(const BenchWorld& world,
                               const cluster::SystemConfig& base,
                               const cluster::OverloadWorkload& workload,
                               bool prewarm);

/// Open-loop run (extension): submits the deterministic arrival stream
/// described by `arrivals` against a system built from `base` (node count,
/// admission policy and all other knobs come from the config). Unlike the
/// closed-loop protocols above, the arrival rate is set by the process,
/// not by the system's service rate — the stream keeps coming whether the
/// cluster keeps up or not.
cluster::Metrics run_open_loop(const BenchWorld& world,
                               const cluster::SystemConfig& base,
                               const workload::ArrivalProcessConfig& arrivals);

/// Low-load run (paper Sec. 6.2 protocol): `count` questions one at a
/// time, fully drained between submissions; returns the metrics.
cluster::Metrics run_low_load(const BenchWorld& world, std::size_t nodes,
                              std::size_t count,
                              const cluster::SystemConfig* base = nullptr);

/// RECV chunk size scaled from the paper's optimum (40 of ~880 accepted
/// paragraphs) to this world's accepted-paragraph count.
std::size_t scaled_chunk(const BenchWorld& world, double paper_chunk = 40.0);

/// Per-stage workload averages of the plans (offset/stride select the same
/// subsets the workload generators use, e.g. 1/2 for the low-load set),
/// at the anchors' reference disk — the parameterization the model-drift
/// monitor's StagePredictor needs (bench_table10's, made reusable).
model::StageWorkload stage_workload(const BenchWorld& world,
                                    std::size_t offset = 0,
                                    std::size_t stride = 1);

}  // namespace qadist::bench
