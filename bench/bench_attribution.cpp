// Critical-path latency attribution end to end: runs the cluster under
// three high-load configurations (healthy, lossy network, one straggler
// node), decomposes every question's latency into queue / service /
// network / retry / merge blame shares, rolls the traces into windowed
// time series (exported as JSONL next to the report), and runs the
// model-drift monitor against the analytical per-stage predictions on a
// calibrated low-load run plus a deliberately perturbed (2x service time)
// twin.
//
// Not a paper exhibit — this is the analysis layer the paper applied by
// hand (Tables 8-10) turned into a harness.
//
// Acceptance (checked here, non-zero exit on violation):
//   * every question's components sum to its measured latency;
//   * network + retry blame grows under the lossy config vs healthy, and
//     queue + retry blame grows under the straggler config vs healthy;
//   * the drift monitor stays quiet on the calibrated run and flags the
//     2x-perturbed run within one window.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "benches.hpp"
#include "cluster/workload.hpp"
#include "workload/driver.hpp"
#include "common/table.hpp"
#include "model/predictions.hpp"
#include "obs/critical_path.hpp"
#include "obs/drift.hpp"
#include "obs/timeseries.hpp"
#include "support/bench_report.hpp"
#include "support/bench_world.hpp"

namespace {

struct RunOutput {
  qadist::cluster::Metrics metrics;
  std::vector<qadist::obs::QuestionBreakdown> questions;
  qadist::obs::RunAttribution attribution;
  std::vector<qadist::obs::TimeWindow> windows;
};

}  // namespace

int qadist::bench::run_attribution(const BenchCli& cli) {
  const auto& world = bench::bench_world();
  const std::size_t nodes = cli.nodes_or(cli.smoke ? 4 : 8);
  const std::uint64_t seed = cli.seed_or(7);
  const std::size_t high_count = cli.smoke ? 4 * nodes : 8 * nodes;
  const std::size_t low_count = cli.smoke ? 6 : 16;
  // Aim for windows holding a handful of completions each, so per-window
  // quantiles and drift verdicts rest on more than one sample.
  const double windows_target = cli.smoke ? 4.0 : 8.0;

  const char* results_env = std::getenv("QADIST_RESULTS_DIR");
  const std::string results_dir =
      (results_env != nullptr && *results_env != '\0') ? results_env
                                                       : "results";
  std::error_code ec;
  std::filesystem::create_directories(results_dir, ec);

  bench::BenchReport report("attribution");
  report.config("nodes", static_cast<std::int64_t>(nodes));
  report.config("seed", static_cast<std::int64_t>(seed));
  report.config("protocol",
                "blame shares: high-load 2x, healthy vs 5% drop vs one "
                "half-speed node; drift: low-load serial vs analytical "
                "per-stage predictions, perturbed twin at 2x service");

  bool acceptance_ok = true;

  // Exactness first: the decomposition must telescope for every question
  // of every run, or the blame shares below are fiction.
  std::size_t checked = 0;
  const auto check_exact = [&](const RunOutput& out, const char* scenario) {
    for (const obs::QuestionBreakdown& q : out.questions) {
      ++checked;
      const double err = std::abs(q.component_sum() - q.total);
      if (err > 1e-6 * std::max(1.0, q.total)) {
        std::printf(
            "ERROR: %s question %lld: components sum to %.9f, measured "
            "%.9f\n",
            scenario, static_cast<long long>(q.question), q.component_sum(),
            q.total);
        acceptance_ok = false;
      }
    }
  };

  const auto run_scenario = [&](const cluster::SystemConfig& base,
                                bool serial) {
    simnet::Simulation sim;
    cluster::SystemConfig cfg = base;
    cfg.nodes = nodes;
    cfg.dispatch.policy = cluster::Policy::kDqa;
    cfg.partition.ap_chunk = bench::scaled_chunk(world);
    if (!cfg.node_cpu_speeds.empty()) cfg.node_cpu_speeds.resize(nodes, 1.0);
    cluster::System system(sim, cfg);
    obs::Tracer tracer;
    system.set_tracer(&tracer);
    workload::RunSpec spec;
    if (serial) {
      spec.shape = workload::WorkloadShape::kSerial;
      spec.serial.count = low_count;
      spec.serial.offset = 1;
      spec.serial.stride = 2;
      spec.serial.reference_disk = world.cost->anchors().reference_disk;
    } else {
      spec.shape = workload::WorkloadShape::kOverload;
      spec.overload.seed = seed;
      spec.overload.count = high_count;
      spec.overload.reference_disk = world.cost->anchors().reference_disk;
    }
    workload::Driver(system, world.plans).submit(spec);
    RunOutput out;
    out.metrics = system.run();
    out.questions = obs::analyze_questions(tracer);
    out.attribution = obs::attribute_run(out.questions);
    obs::TimeseriesConfig tc;
    tc.window_seconds = std::max(1.0, out.metrics.makespan / windows_target);
    out.windows = obs::rollup(tracer, tc);
    return out;
  };

  // ---- Blame shares: healthy vs lossy vs straggler (high load). --------
  // Bounded concurrency with an ample waiting room: arrivals beyond 2
  // in-flight questions per node wait at admission (measured as queue-wait
  // blame) instead of time-sharing the CPUs, so a slow cluster shows up as
  // queueing rather than as uniformly inflated service.
  cluster::SystemConfig healthy_cfg;
  healthy_cfg.admission.max_concurrent = 2 * nodes;
  healthy_cfg.admission.queue_capacity = high_count;
  const RunOutput healthy = run_scenario(healthy_cfg, /*serial=*/false);

  cluster::SystemConfig lossy_cfg = healthy_cfg;
  lossy_cfg.net.faults.drop_probability = 0.05;
  lossy_cfg.net.faults.duplicate_probability = 0.025;
  lossy_cfg.net.faults.jitter_min = 0.001;
  lossy_cfg.net.faults.jitter_max = 0.010;
  lossy_cfg.net.reliability.question_deadline =
      10.0 * healthy.metrics.latencies.quantile(0.95);
  const RunOutput lossy = run_scenario(lossy_cfg, /*serial=*/false);

  cluster::SystemConfig straggler_cfg = healthy_cfg;
  straggler_cfg.node_cpu_speeds.assign(nodes, 1.0);
  straggler_cfg.node_cpu_speeds.back() = 0.5;  // one half-speed node
  const RunOutput straggler = run_scenario(straggler_cfg, /*serial=*/false);

  const char* names[] = {"healthy", "lossy", "straggler"};
  const RunOutput* runs[] = {&healthy, &lossy, &straggler};
  TextTable table({"Scenario", "Mean lat (s)", "Queue", "Service", "Network",
                   "Retry", "Merge"});
  for (int i = 0; i < 3; ++i) {
    const RunOutput& out = *runs[i];
    check_exact(out, names[i]);
    const obs::RunAttribution& a = out.attribution;
    table.add_row({names[i], cell(out.metrics.latencies.mean(), 1),
                   cell_percent(a.share(a.queue)),
                   cell_percent(a.share(a.service.total())),
                   cell_percent(a.share(a.network)),
                   cell_percent(a.share(a.retry)),
                   cell_percent(a.share(a.merge))});
    const obs::Labels labels = {{"scenario", names[i]}};
    report.metric("latency_seconds", labels, out.metrics.latencies);
    report.metric("blame_queue", labels, a.share(a.queue));
    report.metric("blame_service", labels, a.share(a.service.total()));
    report.metric("blame_network", labels, a.share(a.network));
    report.metric("blame_retry", labels, a.share(a.retry));
    report.metric("blame_merge", labels, a.share(a.merge));
    report.metric("critical_legs", labels,
                  static_cast<double>(out.questions.size()));
    // Machine-readable rollup next to the report (CI uploads these).
    obs::export_timeseries_jsonl_file(
        out.windows,
        results_dir + "/TIMESERIES_attribution_" + names[i] + ".jsonl");
  }
  std::printf("Blame shares by scenario (high load, %zu nodes)\n%s", nodes,
              table.render().c_str());
  std::printf("\nHealthy-run attribution detail:\n%s\n",
              obs::render_attribution(healthy.attribution).c_str());

  // Network (wire + retries) must answer for more of the latency once the
  // fabric drops 5% of messages; the half-speed node must lengthen queues
  // (everything behind the slow legs) relative to the healthy cluster.
  const double healthy_net = healthy.attribution.share(
      healthy.attribution.network + healthy.attribution.retry);
  const double lossy_net = lossy.attribution.share(lossy.attribution.network +
                                                   lossy.attribution.retry);
  if (lossy_net <= healthy_net) {
    std::printf(
        "ERROR: network+retry blame did not grow under loss: healthy %.4f "
        "vs lossy %.4f\n",
        healthy_net, lossy_net);
    acceptance_ok = false;
  }
  const double healthy_wait =
      healthy.attribution.share(healthy.attribution.queue);
  const double straggler_wait =
      straggler.attribution.share(straggler.attribution.queue);
  if (straggler_wait <= healthy_wait) {
    std::printf(
        "ERROR: queue blame did not grow with a straggler: healthy %.4f vs "
        "straggler %.4f\n",
        healthy_wait, straggler_wait);
    acceptance_ok = false;
  }
  report.metric("network_retry_blame_delta", {},
                lossy_net - healthy_net);
  report.metric("queue_blame_delta", {}, straggler_wait - healthy_wait);

  // ---- Model drift: calibrated low-load run vs 2x-perturbed twin. ------
  const model::StagePredictor predictor(bench::stage_workload(world, 1, 2));
  const model::StagePrediction predicted =
      predictor.predict(static_cast<double>(nodes));
  obs::DriftConfig drift_cfg;
  drift_cfg.min_samples = 2;

  const RunOutput reference = run_scenario(cluster::SystemConfig{},
                                           /*serial=*/true);
  check_exact(reference, "calibrated");
  // Fold the model's systematic error (the Table 10 analytical-vs-measured
  // gap) into the baseline; record the raw gap alongside.
  const obs::DriftReport model_gap =
      obs::detect_drift(reference.windows, predicted, drift_cfg);
  const model::StagePrediction calibrated =
      obs::calibrate_prediction(reference.windows, predicted, drift_cfg);
  const obs::DriftReport quiet =
      obs::detect_drift(reference.windows, calibrated, drift_cfg);

  cluster::SystemConfig perturbed_cfg;
  perturbed_cfg.node_cpu_speeds.assign(nodes, 0.5);  // 2x service time
  const RunOutput perturbed = run_scenario(perturbed_cfg, /*serial=*/true);
  check_exact(perturbed, "perturbed");
  const obs::DriftReport flagged =
      obs::detect_drift(perturbed.windows, calibrated, drift_cfg);

  std::printf("Analytical model vs healthy measurement (raw gap):\n%s\n",
              obs::render_drift(model_gap).c_str());
  std::printf("Drift vs calibrated model — healthy run:\n%s\n",
              obs::render_drift(quiet).c_str());
  std::printf("Drift vs calibrated model — 2x service perturbation:\n%s\n",
              obs::render_drift(flagged).c_str());
  if (quiet.flagged) {
    std::printf("ERROR: drift monitor flagged the calibrated run\n");
    acceptance_ok = false;
  }
  if (!flagged.flagged) {
    std::printf("ERROR: drift monitor missed the 2x perturbation\n");
    acceptance_ok = false;
  }

  obs::MetricsRegistry drift_registry;
  obs::publish_drift(flagged, drift_registry);
  for (const obs::StageDrift& d : model_gap.overall) {
    report.metric("model_error_ratio", {{"stage", d.stage}}, d.ratio);
  }
  for (const obs::StageDrift& d : flagged.overall) {
    report.metric("drift_ratio", {{"stage", d.stage}, {"run", "perturbed"}},
                  d.ratio);
  }
  for (const obs::StageDrift& d : quiet.overall) {
    report.metric("drift_ratio", {{"stage", d.stage}, {"run", "calibrated"}},
                  d.ratio);
  }
  report.metric("drift_flagged", {{"run", "calibrated"}},
                quiet.flagged ? 1.0 : 0.0);
  report.metric("drift_flagged", {{"run", "perturbed"}},
                flagged.flagged ? 1.0 : 0.0);
  report.metric("drift_first_flagged_window", {{"run", "perturbed"}},
                static_cast<double>(flagged.first_flagged_window));
  report.metric("decomposition_questions_checked", {},
                static_cast<double>(checked));

  report.write();
  std::printf(
      "Expected shape: service dominates the healthy blame table; the "
      "lossy fabric shifts blame to network+retry; the straggler shifts it "
      "to queue wait; drift quiet when calibrated, FLAGGED at 2x.\n");
  if (!acceptance_ok) {
    std::printf("ACCEPTANCE FAILED (see errors above)\n");
    return 1;
  }
  return 0;
}
