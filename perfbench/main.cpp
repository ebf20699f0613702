// perfbench: one benchmark for both performance planes of qadist — the
// real Q/A pipeline (host wall clock) and the discrete-event cluster
// simulator (simulated time, plus the host time it costs to simulate).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out DIR] [--git-describe STR] [--inject-fault drain|digest]
//   perfbench --selftest
//
// Workloads (see README.md for why each exists):
//   qa_pipeline    the 120 shared-world questions through Engine::answer
//   sim_paper12    paper Sec. 6.1 high load: 12 nodes, DQA, RECV, 2x, 8N
//   sim_broker256  256 nodes, 128 shards R=2, 16 brokers, CORI top 25%
//   sim_tail12     12 nodes, 8 shards R=2, one 10x gray node, 1% drops,
//                  hedge+tied+latency-aware, open-loop Poisson at 0.6x
//
// Untraced runs (--trace 0) time the workload, scale its pass times by a
// host reference timed within each pass (hostref.hpp), and print the
// end-to-end metrics; traced runs (--trace 1) record host spans around
// every call into a layer, attach an obs::Tracer to each simulated run,
// run the layer probes, and print the per-layer metrics. Both check correctness and end
// with one JSON line: {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "broker/config.hpp"
#include "broker/cori.hpp"
#include "broker/stats.hpp"
#include "cluster/cost_model.hpp"
#include "cluster/metrics.hpp"
#include "cluster/plan.hpp"
#include "cluster/system.hpp"
#include "cluster/workload.hpp"
#include "common/rng.hpp"
#include "corpus/generator.hpp"
#include "hostref.hpp"
#include "ir/shard_stats.hpp"
#include "obs/critical_path.hpp"
#include "obs/span.hpp"
#include "qa/engine.hpp"
#include "qa/evaluation.hpp"
#include "sched/failure_detector.hpp"
#include "sched/load_table.hpp"
#include "simnet/simulation.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workload/arrival.hpp"
#include "workload/driver.hpp"

namespace {

using namespace qadist;
using perfbench::Digest;
using perfbench::HostSpans;
using perfbench::Percentile;
using perfbench::SpanScope;
using Clock = std::chrono::steady_clock;
using SpanId = HostSpans::Id;
constexpr SpanId kNoSpan = HostSpans::kNone;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// The metric names BENCHMARK.json declares. The final JSON line carries
// exactly these: the end-to-end set on untraced runs, the per-layer set on
// traced runs. Every workload reports every one of them.
const std::vector<std::string> kEndToEndKeys = {"setup_s", "wall_s",
                                                "peak_rss_mb"};
const std::vector<std::string> kPerLayerKeys = {
    "corpus.generate_s",      "ir.index_build_s",
    "cluster.calibrate_s",    "cluster.make_plan_s",
    "broker.stats_build_s",   "ir.retrieve_us",
    "ir.postings_scanned",    "qa.qp_us.mean",
    "qa.qp_us.tail",          "qa.ps_us.mean",
    "qa.ps_us.tail",          "qa.po_us.mean",
    "qa.po_us.tail",          "qa.ap_us.mean",
    "qa.ap_us.tail",          "qa.paragraphs_retrieved",
    "qa.paragraphs_accepted", "qa.ap_tokens_scanned",
    "qa.ap_windows_scored",   "sched.detector_sweep_us",
    "sched.load_table_expire_us", "broker.select_us",
    "obs.trace_overhead_pct", "simnet.events",
    "cluster.legs_spawned",   "sched.migrations_qa",
    "sched.migrations_pr",    "sched.migrations_ap",
    "simnet.net_retries",     "simnet.net_drops",
    "sched.detector_suspicions", "sched.detector_false_alarms",
    "broker.reroutes",        "tail.hedges_issued",
    "tail.hedge_wins",        "tail.legs_cancelled"};

// ---------------------------------------------------------------------------
// Command line

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string git_describe = "unknown";
  std::string inject = "none";  // none | drain | digest
  bool selftest = false;
};

std::optional<Options> parse_options(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      o.selftest = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return std::nullopt;
        o.trace = value == "1";
      } else if (arg == "--out") {
        o.out_dir = value;
      } else if (arg == "--git-describe") {
        o.git_describe = value;
      } else if (arg == "--inject-fault") {
        if (value != "drain" && value != "digest") return std::nullopt;
        o.inject = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (!o.selftest && (!have_workload || !(o.seconds > 0.0))) {
    return std::nullopt;
  }
  return o;
}

// ---------------------------------------------------------------------------
// Report: every metric by name, unit and sample count; failed checks.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count / base / provenance of the number
};

class Report {
 public:
  void e2e(std::string name, double v, std::string unit, std::string note) {
    end_to_end.push_back(
        Metric{std::move(name), v, std::move(unit), std::move(note)});
  }
  void layer(std::string name, double v, std::string unit, std::string note) {
    per_layer.push_back(
        Metric{std::move(name), v, std::move(unit), std::move(note)});
  }
  void fidelity_line(std::string line) { fidelity.push_back(std::move(line)); }
  void check(bool ok, const std::string& what) {
    checks.push_back((ok ? "ok    " : "FAIL  ") + what);
    if (!ok) correct = false;
  }

  [[nodiscard]] const Metric* find(const std::string& name) const {
    for (const auto* section : {&end_to_end, &per_layer}) {
      for (const auto& m : *section) {
        if (m.name == name) return &m;
      }
    }
    return nullptr;
  }

  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> fidelity;
  std::vector<std::string> checks;
  std::vector<std::string> provenance;
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_section(const char* title, const std::vector<Metric>& metrics) {
  std::printf("\n%s\n", title);
  for (const auto& m : metrics) {
    std::printf("  %-28s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

void print_report(const Report& r) {
  std::printf("\nprovenance\n");
  for (const auto& line : r.provenance) std::printf("  %s\n", line.c_str());
  if (!r.end_to_end.empty()) print_section("end-to-end", r.end_to_end);
  if (!r.fidelity.empty()) {
    std::printf("\npaper fidelity\n");
    for (const auto& line : r.fidelity) std::printf("  %s\n", line.c_str());
  }
  if (!r.per_layer.empty()) print_section("per-layer", r.per_layer);
  std::printf("\ncorrectness checks\n");
  for (const auto& line : r.checks) std::printf("  %s\n", line.c_str());
  std::printf("\n");
}

bool write_report_json(const Report& r, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"correct\": %s", r.correct ? "true" : "false");
  const std::pair<const char*, const std::vector<std::string>*> lists[] = {
      {"provenance", &r.provenance},
      {"checks", &r.checks},
      {"fidelity", &r.fidelity}};
  for (const auto& [name, lines] : lists) {
    std::fprintf(f, ",\n  \"%s\": [", name);
    for (std::size_t i = 0; i < lines->size(); ++i) {
      std::fprintf(f, "%s\"%s\"", i ? ", " : "",
                   json_escape((*lines)[i]).c_str());
    }
    std::fprintf(f, "]");
  }
  const std::pair<const char*, const std::vector<Metric>*> sections[] = {
      {"end_to_end", &r.end_to_end}, {"per_layer", &r.per_layer}};
  for (const auto& [name, metrics] : sections) {
    std::fprintf(f, ",\n  \"%s\": {", name);
    for (std::size_t i = 0; i < metrics->size(); ++i) {
      const Metric& m = (*metrics)[i];
      std::fprintf(f, "%s\n    \"%s\": {\"value\": %s, \"unit\": \"%s\", "
                   "\"note\": \"%s\"}",
                   i ? "," : "", m.name.c_str(), json_number(m.value).c_str(),
                   m.unit.c_str(), json_escape(m.note).c_str());
    }
    std::fprintf(f, "\n  }");
  }
  std::fprintf(f, "\n}\n");
  return std::fclose(f) == 0;
}

/// The machine-readable last line: exactly the declared keys of one section.
std::string result_line(const Report& r, const std::vector<std::string>& keys,
                        bool* complete) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.correct ? r.failed : r.attempted);
  out += ", \"metrics\": {";
  *complete = true;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const Metric* m = r.find(keys[i]);
    if (m == nullptr || !std::isfinite(m->value)) {
      *complete = false;
      continue;
    }
    out += (i ? ", " : "");
    out += "\"" + m->name + "\": {\"value\": " + json_number(m->value) +
           ", \"unit\": \"" + m->unit + "\"}";
  }
  out += "}}";
  return out;
}

/// The process high-water mark, less `exclude_mb` of memory the benchmark
/// itself keeps resident throughout (the host reference's state).
double peak_rss_mb(double exclude_mb) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0 -  // KiB on Linux
         exclude_mb;
}

/// "min a, quartiles b-c" of per-pass times, so a reader sees the noise
/// around the reported median.
std::string pass_spread(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return "min " + fmt("%.6f", v.front()) + ", quartiles " +
         fmt("%.6f", perfbench::percentile_sorted(v, 25.0)) + "-" +
         fmt("%.6f", perfbench::percentile_sorted(v, 75.0));
}

std::string percentile_note(const Percentile& p, const char* what) {
  if (!p.supported()) {
    return std::string(what) + ": no percentile has " +
           std::to_string(perfbench::kMinBeyond) + " samples beyond it (n=" +
           std::to_string(p.samples) + ")";
  }
  return std::string(what) + " p" + fmt("%g", p.pct) + ", n=" +
         std::to_string(p.samples) + ", " + std::to_string(p.beyond) +
         " beyond";
}

// ---------------------------------------------------------------------------
// Worlds: corpus, engine (index), questions, cost model, plans, stats.

struct Recipe {
  std::uint64_t corpus_seed;
  std::uint32_t documents;
  std::uint32_t vocabulary;
  std::uint32_t entities;
  std::size_t subcollections;
  std::size_t min_paragraphs;
  std::size_t max_accepted;
  std::size_t questions;
  std::size_t calibration_sample;
  bool bimodal;     ///< paper's TREC-8/9 48 s / 94 s population mix
  bool cori_stats;  ///< per-shard CORI statistics for selective search
};

/// The shared bench world every paper-table bench simulates against.
constexpr Recipe kSharedWorld{1234, 1500, 12000, 250, 8, 60, 600,
                              120,  40,   true,  false};
/// bench_selective_search's own world: 128 shards with CORI statistics.
constexpr Recipe kShardedWorld{4242, 1500, 12000, 250, 128, 10, 400,
                               64,   16,   false, true};

struct World {
  corpus::GeneratedCorpus corpus;
  std::unique_ptr<qa::Engine> engine;
  std::vector<corpus::Question> questions;
  std::unique_ptr<cluster::CostModel> cost;
  std::vector<cluster::QuestionPlan> plans;
  std::shared_ptr<const broker::CollectionStats> stats;
  std::size_t ap_chunk = 1;
};

struct SetupTimes {
  double corpus = 0.0;  ///< corpus + question generation
  double index = 0.0;   ///< Engine construction: split + index build
  double calibrate = 0.0;
  double make_plan = 0.0;
  double stats = 0.0;
};

std::shared_ptr<const broker::CollectionStats> build_cori_stats(
    const qa::Engine& engine) {
  std::vector<ir::ShardTermStats> shards;
  shards.reserve(engine.subcollection_count());
  for (std::size_t s = 0; s < engine.subcollection_count(); ++s) {
    shards.push_back(ir::extract_term_stats(engine.index(s)));
  }
  return std::make_shared<broker::CollectionStats>(
      broker::CollectionStats::from_shard_stats(std::move(shards)));
}

/// Builds a world, timing each stage. The world is heap-allocated and never
/// moved: the engine keeps a pointer into the corpus.
std::unique_ptr<World> build_world(const Recipe& r, SetupTimes& t,
                                   HostSpans* spans, SpanId parent) {
  auto w = std::make_unique<World>();
  {
    SpanScope s(spans, "corpus.generate", parent);
    const auto start = Clock::now();
    corpus::CorpusConfig cc;
    cc.seed = r.corpus_seed;
    cc.num_documents = r.documents;
    cc.vocabulary_size = r.vocabulary;
    cc.entities_per_type = r.entities;
    w->corpus = corpus::generate_corpus(cc);
    w->questions = corpus::generate_questions(w->corpus, r.questions, 77);
    t.corpus = since(start);
  }
  {
    SpanScope s(spans, "ir.index_build", parent);
    const auto start = Clock::now();
    qa::EngineConfig ec;
    ec.subcollections = r.subcollections;
    ec.subcollection_size_ratio = 3.0;
    ec.min_paragraphs_per_subcollection = r.min_paragraphs;
    ec.ordering.relative_threshold = 0.25;
    ec.ordering.max_accepted = r.max_accepted;
    w->engine = std::make_unique<qa::Engine>(w->corpus, ec);
    t.index = since(start);
  }
  {
    SpanScope s(spans, "cluster.calibrate", parent);
    const auto start = Clock::now();
    const std::size_t n = std::min(r.calibration_sample, w->questions.size());
    w->cost = std::make_unique<cluster::CostModel>(cluster::CostModel::calibrate(
        *w->engine, std::span<const corpus::Question>(w->questions).first(n)));
    t.calibrate = since(start);
  }
  {
    SpanScope s(spans, "cluster.make_plan", parent);
    const auto start = Clock::now();
    w->plans.reserve(w->questions.size());
    for (std::size_t i = 0; i < w->questions.size(); ++i) {
      SpanScope q(spans, "cluster.make_plan.question", s.id(),
                  static_cast<std::int64_t>(i));
      w->plans.push_back(
          cluster::make_plan(*w->engine, *w->cost, w->questions[i]));
    }
    if (r.bimodal) cluster::apply_bimodal_mix(w->plans);
    t.make_plan = since(start);
  }
  if (r.cori_stats) {
    SpanScope s(spans, "broker.stats_build", parent);
    const auto start = Clock::now();
    w->stats = build_cori_stats(*w->engine);
    t.stats = since(start);
  }
  double accepted = 0.0;
  for (const auto& p : w->plans) accepted += static_cast<double>(p.ap_units.size());
  accepted /= static_cast<double>(std::max<std::size_t>(1, w->plans.size()));
  // The paper's optimal RECV chunk (40 of ~880 accepted paragraphs), scaled.
  w->ap_chunk = static_cast<std::size_t>(std::max(1.0, 40.0 * accepted / 880.0));
  return w;
}

// ---------------------------------------------------------------------------
// Workloads

enum class Kind { kPipeline, kPaper12, kBroker256, kTail12 };

struct WorkloadDef {
  const char* name;
  Kind kind;
  const Recipe* recipe;
  std::size_t nodes;  ///< simulated cluster size; 1 = the host itself
  std::size_t runs;   ///< simulated runs per pass (one seed each)
  std::size_t questions_per_run;
};

// Questions per run: the paper's 8N for sim_paper12; the run counts pool
// >= 1000 simulated latencies per pass so p99 has >= 10 samples beyond it.
const WorkloadDef kWorkloads[] = {
    {"qa_pipeline", Kind::kPipeline, &kSharedWorld, 1, 0, 0},
    {"sim_paper12", Kind::kPaper12, &kSharedWorld, 12, 11, 96},
    {"sim_broker256", Kind::kBroker256, &kShardedWorld, 256, 4, 256},
    {"sim_tail12", Kind::kTail12, &kSharedWorld, 12, 10, 120},
};

struct SimRun {
  cluster::SystemConfig cfg;
  workload::RunSpec spec;
};

/// The simulated runs of one pass. Run seeds derive from --seed, so every
/// seed gives a different but fixed set of question streams; seed 0 of
/// sim_paper12 is exactly Table 5's seeds 1000, 1001, ...
std::vector<SimRun> make_runs(const WorkloadDef& def, const World& w,
                              std::uint64_t seed) {
  std::vector<SimRun> runs;
  const auto disk = w.cost->anchors().reference_disk;
  for (std::size_t i = 0; i < def.runs; ++i) {
    SimRun run;
    cluster::SystemConfig& cfg = run.cfg;
    cfg.nodes = def.nodes;
    cfg.dispatch.policy = cluster::Policy::kDqa;
    cfg.partition.ap_chunk = w.ap_chunk;
    const std::uint64_t s = seed * def.runs + i;
    switch (def.kind) {
      case Kind::kPipeline:
        break;
      case Kind::kPaper12:
        run.spec.shape = workload::WorkloadShape::kOverload;
        run.spec.overload.seed = 1000 + s;
        run.spec.overload.count = def.questions_per_run;
        run.spec.overload.overload_factor = 2.0;
        run.spec.overload.reference_disk = disk;
        break;
      case Kind::kBroker256:
        cfg.seed = 2000 + s;
        cfg.shard.num_shards = w.engine->subcollection_count();
        cfg.shard.replication = 2;
        cfg.broker.brokers = 16;
        cfg.broker.selectivity = 0.25;
        cfg.broker.stats = w.stats;
        run.spec.shape = workload::WorkloadShape::kOverload;
        run.spec.overload.seed = 2000 + s;
        run.spec.overload.count = def.questions_per_run;
        run.spec.overload.overload_factor = 4.0;
        run.spec.overload.reference_disk = disk;
        break;
      case Kind::kTail12:
        cfg.seed = 5000 + s;
        cfg.shard.num_shards = 8;
        cfg.shard.replication = 2;
        cfg.tail.hedge = true;
        cfg.tail.tied = true;
        cfg.tail.latency_aware = true;
        cfg.net.faults.drop_probability = 0.01;
        run.spec.shape = workload::WorkloadShape::kOpenLoop;
        run.spec.open_loop.shape = workload::ArrivalShape::kPoisson;
        run.spec.open_loop.rate_qps =
            0.6 * static_cast<double>(def.nodes) /
            cluster::mean_service_seconds(w.plans, disk);
        run.spec.open_loop.count = def.questions_per_run;
        run.spec.open_loop.seed = 5000 + s;
        break;
    }
    runs.push_back(std::move(run));
  }
  if (def.kind == Kind::kTail12 && !runs.empty()) {
    // The gray node neighbours a holder of shard 0, as in
    // bench_tail_tolerance; placement is deterministic, so probe it once.
    simnet::Simulation sim;
    cluster::System probe(sim, runs.front().cfg);
    const sched::NodeId holder = probe.shard_map()->ready_holders(0).front();
    simnet::GrayFaultEvent gray;
    gray.node = static_cast<std::uint32_t>((holder + 1) % def.nodes);
    gray.at = 0.0;  // slow for the whole run
    gray.cpu_factor = 10.0;
    gray.disk_factor = 10.0;
    for (auto& run : runs) run.cfg.gray.events.push_back(gray);
  }
  return runs;
}

// ---------------------------------------------------------------------------
// Simulated runs

/// Every value of a Samples set, ascending (the class exposes order
/// statistics, not its storage).
std::vector<double> sample_values(const Samples& samples) {
  Samples sorted = samples;
  sorted.sort();
  std::vector<double> out;
  const std::size_t n = sorted.count();
  out.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    out.push_back(n == 1 ? sorted.quantile(0.0)
                         : sorted.quantile(static_cast<double>(k) /
                                           static_cast<double>(n - 1)));
  }
  return out;
}

std::uint64_t counter(const cluster::System& system, const char* name) {
  const obs::Counter* c = system.registry().find_counter(name);
  return c == nullptr ? 0 : static_cast<std::uint64_t>(c->value());
}

struct RunOutcome {
  cluster::Metrics metrics;
  std::size_t driver_submitted = 0;
  std::uint64_t events = 0;
  std::uint64_t units_pruned = 0;
  std::uint64_t reroutes = 0;
  std::size_t pr_units = 0;
  double build_s = 0.0;
  double submit_s = 0.0;
  double run_s = 0.0;
  std::uint64_t digest = 0;
  // Traced runs only.
  std::vector<obs::QuestionBreakdown> breakdowns;
};

/// Digest of a run's simulated outputs: counts, clock values and every
/// latency sample, bit for bit. The event count is left out: an attached
/// tracer samples utilization with extra events without changing outputs.
std::uint64_t digest_of(const RunOutcome& o) {
  const cluster::Metrics& m = o.metrics;
  Digest d;
  for (const std::uint64_t v :
       {std::uint64_t{m.submitted}, std::uint64_t{m.completed},
        std::uint64_t{m.questions_rejected}, std::uint64_t{m.questions_shed},
        std::uint64_t{m.questions_degraded}, std::uint64_t{m.migrations_qa},
        std::uint64_t{m.migrations_pr}, std::uint64_t{m.migrations_ap},
        std::uint64_t{m.legs_spawned}, std::uint64_t{m.hedges_issued},
        std::uint64_t{m.hedge_wins}, std::uint64_t{m.legs_cancelled},
        std::uint64_t{m.net_retries}, std::uint64_t{m.net_drops},
        std::uint64_t{m.detector_suspicions},
        std::uint64_t{m.detector_false_alarms}, o.units_pruned,
        o.reroutes}) {
    d.add(v);
  }
  d.add(m.first_submit);
  d.add(m.makespan);
  for (const double w : m.node_cpu_work) d.add(w);
  for (const double v : sample_values(m.latencies)) d.add(v);
  return d.value();
}

/// Constructs a System, submits the run's stream and runs it to drain,
/// timing the three calls. With `spans` set, records them as host spans
/// and attaches an obs::Tracer for the simulated critical-path blame.
RunOutcome execute(const SimRun& run, const World& w, HostSpans* spans,
                   SpanId parent, std::int64_t group) {
  RunOutcome o;
  simnet::Simulation sim;
  obs::Tracer tracer;
  SpanScope span(spans, "sim.run", parent, group);

  auto t0 = Clock::now();
  std::optional<SpanScope> build;
  build.emplace(spans, "cluster.system_build", span.id(), group);
  cluster::System system(sim, run.cfg);
  if (spans != nullptr) system.set_tracer(&tracer);
  build.reset();
  o.build_s = since(t0);

  t0 = Clock::now();
  {
    SpanScope s(spans, "workload.submit", span.id(), group);
    o.driver_submitted = workload::Driver(system, w.plans).submit(run.spec);
  }
  o.submit_s = since(t0);

  t0 = Clock::now();
  {
    SpanScope s(spans, "cluster.run", span.id(), group);
    o.metrics = system.run();
  }
  o.run_s = since(t0);

  o.events = sim.executed_events();
  o.units_pruned = counter(system, "selection_units_pruned");
  o.reroutes = counter(system, "broker_reroutes");
  // make_plan gives every plan one PR unit per sub-collection.
  o.pr_units = o.metrics.submitted * w.engine->subcollection_count();
  if (spans != nullptr) o.breakdowns = obs::analyze_questions(tracer);
  o.digest = digest_of(o);
  return o;
}

struct SimPass {
  std::vector<RunOutcome> runs;
  double wall_s = 0.0;  ///< System ctor -> run() return, summed over runs
  std::uint64_t outputs = 0;  ///< digest of the runs' simulated outputs
  std::uint64_t digest = 0;   ///< outputs plus executed event counts
  double ref_s = 0.0;  ///< mean reference chunk during the pass
};

/// With `cadence` set, times reference chunks between runs, outside the
/// pass time (hostref.hpp).
SimPass run_pass(const std::vector<SimRun>& runs, const World& w,
                 HostSpans* spans, SpanId parent,
                 perfbench::RefCadence* cadence = nullptr) {
  SimPass pass;
  Digest outputs;
  Digest all;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    pass.runs.push_back(
        execute(runs[i], w, spans, parent, static_cast<std::int64_t>(i)));
    const RunOutcome& o = pass.runs.back();
    const double run_s = o.build_s + o.submit_s + o.run_s;
    pass.wall_s += run_s;
    if (cadence != nullptr) cadence->unit_done(run_s);
    outputs.add(o.digest);
    all.add(o.digest);
    all.add(o.events);
  }
  if (cadence != nullptr) pass.ref_s = cadence->end_pass();
  pass.outputs = outputs.value();
  pass.digest = all.value();
  return pass;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Drain accounting on every run: every submitted question completed, was
/// rejected or was shed, and each completion left one latency sample.
void check_drain(const SimPass& pass, Report& r, const std::string& label,
                 bool inject) {
  bool ok = true;
  for (std::size_t i = 0; i < pass.runs.size(); ++i) {
    const cluster::Metrics& m = pass.runs[i].metrics;
    std::size_t submitted = m.submitted;
    if (inject && i == 0) ++submitted;  // seeded mismatch for the self-test
    ok = ok && m.completed + m.questions_rejected + m.questions_shed ==
                   submitted;
    ok = ok && m.latencies.count() == m.completed;
    ok = ok && pass.runs[i].driver_submitted == m.submitted;
  }
  r.check(ok, "drain accounting (completed + rejected + shed == submitted, "
              "latency samples == completions) on " + label);
}

// ---------------------------------------------------------------------------
// Pipeline passes

/// Stage-API pass over one question: the same calls Engine::answer makes,
/// each wrapped in a host span sharing the question's group id.
struct StageSample {
  double qp = 0.0, pr = 0.0, ps = 0.0, po = 0.0, ap = 0.0;
  std::size_t postings = 0, retrieved = 0, accepted = 0, tokens = 0,
              windows = 0;
  std::vector<qa::Answer> answers;
};

StageSample stage_pass_question(const qa::Engine& engine,
                                const corpus::Question& q, HostSpans* spans,
                                SpanId parent, std::int64_t group) {
  StageSample out;
  SpanScope question(spans, "qa.question", parent, group);
  auto t0 = Clock::now();
  qa::ProcessedQuestion pq;
  {
    SpanScope s(spans, "qa.qp", question.id(), group);
    pq = engine.process_question(q.id, q.text);
  }
  out.qp = since(t0);

  t0 = Clock::now();
  qa::RetrievalWork rw;
  std::vector<qa::RetrievedParagraph> retrieved;
  for (std::size_t sub = 0; sub < engine.subcollection_count(); ++sub) {
    SpanScope s(spans, "ir.retrieve", question.id(), group);
    auto batch = engine.retrieve(sub, pq, &rw);
    retrieved.insert(retrieved.end(), std::make_move_iterator(batch.begin()),
                     std::make_move_iterator(batch.end()));
  }
  out.pr = since(t0);
  out.postings = rw.postings_scanned;
  out.retrieved = retrieved.size();

  t0 = Clock::now();
  std::vector<qa::ScoredParagraph> scored;
  {
    // One span for the stage's per-paragraph score() calls: a span per
    // call would cost as much as the call.
    SpanScope s(spans, "qa.ps", question.id(), group);
    scored.reserve(retrieved.size());
    for (auto& p : retrieved) scored.push_back(engine.score(pq, std::move(p)));
  }
  out.ps = since(t0);

  t0 = Clock::now();
  std::vector<qa::ScoredParagraph> accepted;
  {
    SpanScope s(spans, "qa.po", question.id(), group);
    accepted = engine.order(std::move(scored));
  }
  out.po = since(t0);
  out.accepted = accepted.size();

  t0 = Clock::now();
  qa::AnswerWork aw;
  {
    SpanScope s(spans, "qa.ap", question.id(), group);
    out.answers = engine.answer_paragraphs(pq, accepted, &aw);
  }
  out.ap = since(t0);
  out.tokens = aw.tokens_scanned;
  out.windows = aw.windows_scored;
  return out;
}

bool same_answers(const std::vector<qa::Answer>& a,
                  const std::vector<qa::Answer>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].candidate != b[i].candidate) return false;
  }
  return true;
}

/// Layer metrics of stage-API passes: per-question stage times and the
/// work counts of one pass over the question set.
void report_stage_layers(const std::vector<StageSample>& samples,
                         std::size_t questions_per_pass, Report& r) {
  const auto column = [&](double StageSample::*field) {
    std::vector<double> us;
    us.reserve(samples.size());
    for (const auto& s : samples) us.push_back(s.*field * 1e6);
    return us;
  };
  const std::string n = "n=" + std::to_string(samples.size()) + " questions";
  r.layer("ir.retrieve_us", perfbench::mean(column(&StageSample::pr)), "us",
          "mean per question, all sub-collections, " + n);
  const std::pair<const char*, double StageSample::*> stages[] = {
      {"qa.qp_us", &StageSample::qp},
      {"qa.ps_us", &StageSample::ps},
      {"qa.po_us", &StageSample::po},
      {"qa.ap_us", &StageSample::ap}};
  for (const auto& [name, field] : stages) {
    const auto us = column(field);
    const Percentile tail = perfbench::highest_supported(us);
    r.layer(std::string(name) + ".mean", perfbench::mean(us), "us",
            "mean per question, " + n);
    r.layer(std::string(name) + ".tail", tail.supported() ? tail.value : 0.0,
            "us", percentile_note(tail, "per question"));
  }
  std::size_t postings = 0, retrieved = 0, accepted = 0, tokens = 0,
              windows = 0;
  for (std::size_t i = 0; i < questions_per_pass && i < samples.size(); ++i) {
    postings += samples[i].postings;
    retrieved += samples[i].retrieved;
    accepted += samples[i].accepted;
    tokens += samples[i].tokens;
    windows += samples[i].windows;
  }
  const std::string per_pass =
      "per pass of " + std::to_string(questions_per_pass) + " questions";
  r.layer("ir.postings_scanned", static_cast<double>(postings), "count",
          per_pass);
  r.layer("qa.paragraphs_retrieved", static_cast<double>(retrieved), "count",
          per_pass);
  r.layer("qa.paragraphs_accepted", static_cast<double>(accepted), "count",
          per_pass);
  r.layer("qa.ap_tokens_scanned", static_cast<double>(tokens), "count",
          per_pass);
  r.layer("qa.ap_windows_scored", static_cast<double>(windows), "count",
          per_pass);
}

/// Checks that every pass reproduced the first pass's work counts.
void check_stage_counts(const std::vector<StageSample>& samples,
                        std::size_t per_pass, Report& r) {
  bool ok = per_pass > 0;
  for (std::size_t i = per_pass; ok && i < samples.size(); ++i) {
    const auto& a = samples[i % per_pass];
    const auto& b = samples[i];
    ok = a.postings == b.postings && a.retrieved == b.retrieved &&
         a.accepted == b.accepted && a.tokens == b.tokens &&
         a.windows == b.windows;
  }
  r.check(ok, "stage-API work counts repeat exactly across passes");
}

// ---------------------------------------------------------------------------
// Layer probes, on the workload's own inputs and sizes.

/// Median over `batches` of the per-call microseconds of `fn`, called
/// `calls` times per batch.
template <typename Fn>
double per_call_us(std::size_t batches, std::size_t calls, Fn&& fn) {
  std::vector<double> us;
  for (std::size_t b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    for (std::size_t c = 0; c < calls; ++c) fn(c);
    us.push_back(since(t0) * 1e6 / static_cast<double>(calls));
  }
  return perfbench::median(us);
}

void run_probes(const WorkloadDef& def, const World& w, HostSpans* spans,
                SpanId parent, Report& r) {
  const std::size_t n = def.nodes;
  const std::string nodes = "N=" + std::to_string(n) + " enrolled peers";
  {
    SpanScope s(spans, "probe.detector_sweep", parent);
    sched::FailureDetector detector;
    for (std::size_t i = 0; i < n; ++i) {
      detector.heartbeat(static_cast<sched::NodeId>(i), 0.0);
    }
    std::size_t transitions = 0;
    // Sweeps inside the heartbeat period: the steady state, no transitions.
    const double us = per_call_us(9, 2000, [&](std::size_t c) {
      transitions += detector.sweep(0.5 + 1e-9 * static_cast<double>(c)).size();
    });
    r.layer("sched.detector_sweep_us", us, "us",
            "per FailureDetector::sweep, " + nodes);
    r.check(transitions == 0, "detector probe saw no transitions");
  }
  {
    SpanScope s(spans, "probe.load_table_expire", parent);
    sched::LoadTable table;
    for (std::size_t i = 0; i < n; ++i) {
      table.update(static_cast<sched::NodeId>(i), sched::ResourceLoad{}, 0.0);
    }
    const double us = per_call_us(9, 2000, [&](std::size_t c) {
      table.expire(0.5 + 1e-9 * static_cast<double>(c), 3.0);
    });
    r.layer("sched.load_table_expire_us", us, "us",
            "per LoadTable::expire, " + nodes);
    r.check(table.size() == n, "load-table probe kept every member");
  }
  {
    // Workloads without selection still score every shard; their k is the
    // whole shard set, so the probe needs stats for their sub-collections.
    SpanScope s(spans, "probe.broker_select", parent);
    std::shared_ptr<const broker::CollectionStats> stats = w.stats;
    if (stats == nullptr) {
      SpanScope b(spans, "broker.stats_build", s.id());
      const auto t0 = Clock::now();
      stats = build_cori_stats(*w.engine);
      r.layer("broker.stats_build_s", since(t0), "s",
              "probe-only CORI stats over " +
                  std::to_string(stats->num_shards()) + " sub-collections");
    }
    broker::BrokerConfig knob;
    if (def.kind == Kind::kBroker256) knob.selectivity = 0.25;
    const std::size_t k = knob.effective_top_k(stats->num_shards());
    std::size_t selected = 0;
    const double us = per_call_us(9, w.plans.size(), [&](std::size_t c) {
      selected +=
          broker::select_shards(*stats, w.plans[c].processed.keywords, k)
              .size();
    });
    r.layer("broker.select_us", us, "us",
            "per select_shards, k=" + std::to_string(k) + " of " +
                std::to_string(stats->num_shards()) + " shards, " +
                std::to_string(w.plans.size()) + " plans");
    r.check(selected == 9 * w.plans.size() * k,
            "select_shards returned k shards for every plan");
  }
}

// ---------------------------------------------------------------------------
// Workload drivers

struct Context {
  Options opt;
  const WorkloadDef* def = nullptr;
  Report report;
  HostSpans spans;
  /// Untraced runs only: the host reference timed within each pass.
  std::unique_ptr<perfbench::HostRef> ref;
};

/// wall_s: the median pass scaled to the nominal host (hostref.hpp).
double scaled_wall(const std::vector<double>& pass_s,
                   const std::vector<double>& ref_s) {
  return perfbench::median(perfbench::host_scaled(pass_s, ref_s));
}

std::string scaled_note(const std::vector<double>& pass_s,
                        const std::vector<double>& ref_s) {
  return "median pass scaled to the nominal host by the reference chunks "
         "timed during it (unscaled: median " +
         fmt("%.6f", perfbench::median(pass_s)) + ", " + pass_spread(pass_s) +
         "; mean reference chunk per pass: median " +
         fmt("%.6f", perfbench::median(ref_s)) + " s, nominal " +
         fmt("%g", perfbench::HostRef::kNominalChunkSeconds) + " s)";
}

/// Builds the world `setups` times (the last one is kept) and reports
/// setup_s as the median. Traced runs build once, under spans.
std::unique_ptr<World> setup(Context& ctx, std::vector<SimRun>* runs,
                             SetupTimes& times) {
  const int setups = ctx.opt.trace ? 1 : 3;
  std::vector<double> totals;
  std::unique_ptr<World> world;
  for (int i = 0; i < setups; ++i) {
    world.reset();  // never hold two worlds: peak RSS is one world's
    HostSpans* spans = ctx.opt.trace ? &ctx.spans : nullptr;
    SpanScope s(spans, "setup");
    const auto t0 = Clock::now();
    world = build_world(*ctx.def->recipe, times, spans, s.id());
    if (runs != nullptr) *runs = make_runs(*ctx.def, *world, ctx.opt.seed);
    totals.push_back(since(t0));
  }
  if (!ctx.opt.trace) {
    ctx.report.e2e("setup_s", perfbench::median(totals), "s",
                   "median of " + std::to_string(setups) +
                       " world builds (corpus, index, calibration, plans" +
                       (ctx.def->recipe->cori_stats ? ", CORI stats" : "") +
                       ")");
  } else {
    Report& r = ctx.report;
    r.layer("corpus.generate_s", times.corpus, "s", "corpus + questions");
    r.layer("ir.index_build_s", times.index, "s",
            std::to_string(world->engine->subcollection_count()) +
                " sub-collection indexes");
    r.layer("cluster.calibrate_s", times.calibrate, "s",
            std::to_string(std::min(ctx.def->recipe->calibration_sample,
                                    world->questions.size())) +
                " sample questions");
    r.layer("cluster.make_plan_s", times.make_plan, "s",
            std::to_string(world->plans.size()) + " plans");
    if (world->stats != nullptr) {
      r.layer("broker.stats_build_s", times.stats, "s",
              std::to_string(world->stats->num_shards()) + " shards");
    }
  }
  return world;
}

void run_pipeline(Context& ctx) {
  Report& r = ctx.report;
  SetupTimes times;
  const auto world = setup(ctx, nullptr, times);
  const qa::Engine& engine = *world->engine;
  const auto& questions = world->questions;
  const std::size_t nq = questions.size();

  // The seeded question order.
  std::vector<std::size_t> order(nq);
  for (std::size_t i = 0; i < nq; ++i) order[i] = i;
  Rng rng(ctx.opt.seed);
  for (std::size_t i = nq; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }

  // One closed-loop pass through Engine::answer. Answers are compared with
  // the plans, which make_plan built through the stage API.
  std::size_t attempted = 0, failed = 0, mismatched = 0, correct_at_1 = 0;
  std::vector<double> latency_ms;
  // Untraced runs also time reference chunks between questions
  // (hostref.hpp); the pass time leaves them out.
  const auto answer_pass = [&](bool record, perfbench::RefCadence* cadence) {
    const auto t0 = Clock::now();
    double in_ref = 0.0;
    for (const std::size_t i : order) {
      const auto q0 = Clock::now();
      bool ok = false;
      try {
        const qa::QAResult res = engine.answer(questions[i]);
        const double ms = since(q0) * 1e3;
        ok = !res.answers.empty();
        if (record) {
          latency_ms.push_back(ms);
          if (!same_answers(res.answers, world->plans[i].answers)) ++mismatched;
          if (ok && qa::answer_matches(engine.analyzer(),
                                       res.answers.front().candidate,
                                       questions[i].gold_answer)) {
            ++correct_at_1;
          }
        }
      } catch (const std::exception&) {
        ok = false;
      }
      if (record) {
        ++attempted;
        if (!ok) ++failed;
      }
      if (cadence != nullptr) in_ref += cadence->unit_done(since(q0));
    }
    return since(t0) - in_ref;
  };

  const double budget = ctx.opt.trace ? ctx.opt.seconds / 2 : ctx.opt.seconds;
  answer_pass(false, nullptr);  // warm-up: caches, allocator, lazy state
  std::vector<double> pass_s;
  std::vector<double> ref_s;  // mean reference chunk per pass
  perfbench::RefCadence cadence(ctx.ref.get());
  const auto start = Clock::now();
  while (pass_s.empty() || since(start) < budget) {
    pass_s.push_back(answer_pass(true, &cadence));
    ref_s.push_back(cadence.end_pass());
  }
  const double wall = perfbench::median(pass_s);
  r.attempted = attempted;
  r.failed = failed;
  r.check(mismatched == 0,
          "Engine::answer matches the stage-API answers make_plan recorded "
          "(" + std::to_string(mismatched) + " mismatches)");
  const double accuracy = static_cast<double>(correct_at_1) /
                          static_cast<double>(std::max<std::size_t>(1, attempted));

  const std::string passes = std::to_string(pass_s.size()) + " passes of " +
                             std::to_string(nq) + " questions";
  if (!ctx.opt.trace) {
    double total = 0.0;
    for (const double s : pass_s) total += s;
    r.e2e("wall_s", scaled_wall(pass_s, ref_s), "s",
          passes + ", " + scaled_note(pass_s, ref_s));
    r.e2e("peak_rss_mb", peak_rss_mb(ctx.ref->resident_mb()), "MB",
          "process high-water mark, less the host reference's state");
    r.e2e("qa_qps", static_cast<double>(attempted) / total, "1/s",
          "closed loop, 1 caller, " + std::to_string(attempted) + " answers");
    const Percentile p50 = perfbench::highest_supported(latency_ms, 50.0);
    const Percentile tail = perfbench::highest_supported(latency_ms);
    r.e2e("qa_latency_p50_ms", p50.value, "ms",
          percentile_note(p50, "Engine::answer"));
    r.e2e(tail.pct == 99.0 ? "qa_latency_p99_ms"
                           : "qa_latency_p" + fmt("%g", tail.pct) + "_ms",
          tail.value, "ms", percentile_note(tail, "Engine::answer"));
    r.e2e("accuracy_at_1", accuracy, "ratio",
          std::to_string(correct_at_1) + " of " + std::to_string(attempted) +
              " answers rank the gold answer first");
    r.e2e("failed_fraction",
          static_cast<double>(failed) / static_cast<double>(attempted),
          "ratio",
          std::to_string(failed) + " of " + std::to_string(attempted) +
              " with no answer or an exception");
    return;
  }

  // Traced: stage-API passes under host spans, until both the time budget
  // is spent and the per-question tails are supported at p99.
  std::vector<StageSample> samples;
  std::vector<double> traced_s;
  bool answers_match = true;
  std::vector<std::vector<qa::Answer>> reference(nq);
  for (std::size_t i = 0; i < nq; ++i) reference[i] = engine.answer(questions[i]).answers;
  const std::size_t min_samples = 1000;
  const auto traced_start = Clock::now();
  while (traced_s.empty() || since(traced_start) < budget ||
         samples.size() < min_samples) {
    SpanScope pass(&ctx.spans, "qa.pass");
    const auto t0 = Clock::now();
    for (const std::size_t i : order) {
      samples.push_back(stage_pass_question(
          engine, questions[i], &ctx.spans, pass.id(),
          static_cast<std::int64_t>(samples.size())));
      answers_match = answers_match && same_answers(samples.back().answers,
                                                    reference[i]);
    }
    traced_s.push_back(since(t0));
  }
  r.check(answers_match,
          "stage-API traced pass returns the same answers as Engine::answer");
  check_stage_counts(samples, nq, r);
  report_stage_layers(samples, nq, r);
  r.layer("obs.trace_overhead_pct",
          100.0 * (perfbench::median(traced_s) / wall - 1.0), "%",
          "traced stage-API pass vs untraced Engine::answer pass, medians of " +
              std::to_string(traced_s.size()) + " and " +
              std::to_string(pass_s.size()));
  run_probes(*ctx.def, *world, &ctx.spans, kNoSpan, r);
  for (const char* name :
       {"simnet.events", "cluster.legs_spawned", "sched.migrations_qa",
        "sched.migrations_pr", "sched.migrations_ap", "simnet.net_retries",
        "simnet.net_drops", "sched.detector_suspicions",
        "sched.detector_false_alarms", "broker.reroutes",
        "tail.hedges_issued", "tail.hedge_wins", "tail.legs_cancelled"}) {
    r.layer(name, 0.0, "count", "no simulator on this workload");
  }
}

/// Totals over the runs of one pass.
struct PassTotals {
  std::size_t submitted = 0, completed = 0, degraded = 0, pr_units = 0;
  std::uint64_t events = 0, units_pruned = 0, reroutes = 0;
  std::uint64_t legs = 0, mig_qa = 0, mig_pr = 0, mig_ap = 0, retries = 0,
                drops = 0, suspicions = 0, false_alarms = 0, hedges = 0,
                wins = 0, cancelled = 0;
  double build_s = 0.0, submit_s = 0.0, run_s = 0.0, imbalance = 0.0,
         qpm = 0.0;
  std::vector<double> latencies;
};

PassTotals totals_of(const SimPass& pass) {
  PassTotals t;
  for (const RunOutcome& o : pass.runs) {
    const cluster::Metrics& m = o.metrics;
    t.submitted += m.submitted;
    t.completed += m.completed;
    t.degraded += m.questions_degraded;
    t.pr_units += o.pr_units;
    t.events += o.events;
    t.units_pruned += o.units_pruned;
    t.reroutes += o.reroutes;
    t.legs += m.legs_spawned;
    t.mig_qa += m.migrations_qa;
    t.mig_pr += m.migrations_pr;
    t.mig_ap += m.migrations_ap;
    t.retries += m.net_retries;
    t.drops += m.net_drops;
    t.suspicions += m.detector_suspicions;
    t.false_alarms += m.detector_false_alarms;
    t.hedges += m.hedges_issued;
    t.wins += m.hedge_wins;
    t.cancelled += m.legs_cancelled;
    t.build_s += o.build_s;
    t.submit_s += o.submit_s;
    t.run_s += o.run_s;
    t.imbalance += m.cpu_work_imbalance();
    t.qpm += m.throughput_qpm();
    const auto v = sample_values(m.latencies);
    t.latencies.insert(t.latencies.end(), v.begin(), v.end());
  }
  const auto runs = static_cast<double>(std::max<std::size_t>(1, pass.runs.size()));
  t.imbalance /= runs;
  t.qpm /= runs;
  return t;
}

void report_fidelity(const WorkloadDef& def, const PassTotals& t,
                     std::size_t runs, Report& r) {
  if (def.kind != Kind::kPaper12) {
    r.fidelity_line(std::string(def.name) +
                    ": unvalidated — the paper measured no such "
                    "configuration, so no error figure is given");
    return;
  }
  const double n = static_cast<double>(runs);
  const double mean_latency = perfbench::mean(t.latencies);
  r.fidelity_line("Table 5 throughput: " + fmt("%.3f", t.qpm) +
                  " q/min vs paper 12.09 -> ratio " +
                  fmt("%.3f", t.qpm / 12.09));
  r.fidelity_line("Table 6 mean latency: " + fmt("%.2f", mean_latency) +
                  " s vs paper 106.03 s -> ratio " +
                  fmt("%.3f", mean_latency / 106.03));
  const std::pair<const char*, std::pair<double, double>> mig[] = {
      {"QA", {static_cast<double>(t.mig_qa) / n, 37.0}},
      {"PR", {static_cast<double>(t.mig_pr) / n, 43.0}},
      {"AP", {static_cast<double>(t.mig_ap) / n, 41.0}}};
  for (const auto& [stage, v] : mig) {
    r.fidelity_line(std::string("Table 7 migrations ") + stage + ": " +
                    fmt("%.2f", v.first) + " per run vs paper " +
                    fmt("%.0f", v.second) + " -> ratio " +
                    fmt("%.3f", v.first / v.second));
  }
}

void report_sim_counts(const PassTotals& t, Report& r) {
  const std::string base = "per pass";
  const std::pair<const char*, std::uint64_t> counts[] = {
      {"simnet.events", t.events},
      {"cluster.legs_spawned", t.legs},
      {"sched.migrations_qa", t.mig_qa},
      {"sched.migrations_pr", t.mig_pr},
      {"sched.migrations_ap", t.mig_ap},
      {"simnet.net_retries", t.retries},
      {"simnet.net_drops", t.drops},
      {"sched.detector_suspicions", t.suspicions},
      {"sched.detector_false_alarms", t.false_alarms},
      {"broker.reroutes", t.reroutes},
      {"tail.hedges_issued", t.hedges},
      {"tail.hedge_wins", t.wins},
      {"tail.legs_cancelled", t.cancelled}};
  for (const auto& [name, v] : counts) {
    r.layer(name, static_cast<double>(v), "count", base);
  }
  r.layer("cluster.cpu_work_imbalance", t.imbalance, "ratio",
          "max/mean node CPU work, mean over runs");
  r.layer("broker.units_pruned_fraction",
          t.pr_units == 0 ? 0.0
                          : static_cast<double>(t.units_pruned) /
                                static_cast<double>(t.pr_units),
          "ratio",
          std::to_string(t.units_pruned) + " pruned of " +
              std::to_string(t.pr_units) + " PR units");
  r.layer("tail.hedge_overhead",
          t.legs == 0 ? 0.0
                      : static_cast<double>(t.hedges) /
                            static_cast<double>(t.legs),
          "ratio",
          std::to_string(t.hedges) + " backups of " + std::to_string(t.legs) +
              " primary legs");
}

void run_simulation(Context& ctx) {
  Report& r = ctx.report;
  const WorkloadDef& def = *ctx.def;
  std::vector<SimRun> runs;
  SetupTimes times;
  const auto world = setup(ctx, &runs, times);

  // Untraced passes for the time budget (half of it on traced runs). Every
  // pass replays the same runs, so each is a determinism check of the first.
  const double budget = ctx.opt.trace ? ctx.opt.seconds / 2 : ctx.opt.seconds;
  std::vector<SimPass> passes;
  std::vector<double> wall_s;
  std::vector<double> ref_s;  // mean reference chunk per pass
  perfbench::RefCadence cadence(ctx.ref.get());
  const auto start = Clock::now();
  while (passes.size() < 2 || since(start) < budget) {
    passes.push_back(run_pass(runs, *world, nullptr, kNoSpan, &cadence));
    wall_s.push_back(passes.back().wall_s);
    ref_s.push_back(passes.back().ref_s);
    if (passes.size() > 2) {
      // Keep only the first pass's outcomes (the reference) and digests.
      passes.back().runs.clear();
    }
  }
  const SimPass& first = passes.front();
  const std::string label =
      std::to_string(first.runs.size()) + " runs x " +
      std::to_string(passes.size()) + " passes";
  check_drain(first, r, "every run of pass 1", ctx.opt.inject == "drain");
  bool replay_ok = true;
  for (std::size_t i = 1; i < passes.size(); ++i) {
    std::uint64_t d = passes[i].digest;
    if (ctx.opt.inject == "digest" && i == 1) d ^= 1;  // seeded mismatch
    replay_ok = replay_ok && d == first.digest;
  }
  r.check(replay_ok, "determinism: " + std::to_string(passes.size() - 1) +
                         " replays of all runs match pass 1 outputs and event counts, digest " +
                         hex(first.digest) + " (first run " +
                         hex(first.runs.front().digest) + ")");

  const PassTotals t = totals_of(first);
  r.attempted = 0;
  r.failed = 0;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    r.attempted += t.submitted;
    r.failed += (t.submitted - t.completed) + t.degraded;
  }
  const double wall = perfbench::median(wall_s);

  if (!ctx.opt.trace) {
    r.e2e("wall_s", scaled_wall(wall_s, ref_s), "s",
          "System ctor -> run() return, summed over runs, " + label + ", " +
              std::to_string(t.events) + " events per pass, " +
              scaled_note(wall_s, ref_s));
    r.e2e("peak_rss_mb", peak_rss_mb(ctx.ref->resident_mb()), "MB",
          "process high-water mark, less the host reference's state");
    r.e2e("sim_throughput_qpm", t.qpm, "q/min",
          "simulated, mean over " + std::to_string(first.runs.size()) +
              " runs");
    const Percentile p50 = perfbench::highest_supported(t.latencies, 50.0);
    const Percentile tail = perfbench::highest_supported(t.latencies);
    r.e2e("sim_latency_p50_s", p50.value, "s",
          percentile_note(p50, "simulated, pooled"));
    r.e2e(tail.pct == 99.0 ? "sim_latency_p99_s"
                           : "sim_latency_p" + fmt("%g", tail.pct) + "_s",
          tail.value, "s", percentile_note(tail, "simulated, pooled"));
    r.e2e("failed_fraction",
          static_cast<double>((t.submitted - t.completed) + t.degraded) /
              static_cast<double>(std::max<std::size_t>(1, t.submitted)),
          "ratio",
          std::to_string(t.submitted - t.completed) + " not completed + " +
              std::to_string(t.degraded) + " degraded of " +
              std::to_string(t.submitted) + " submitted");
    report_fidelity(def, t, first.runs.size(), r);
    return;
  }

  // Traced pass: host spans around System ctor, Driver::submit and
  // System::run, plus an obs::Tracer on every System.
  SimPass traced;
  {
    SpanScope pass(&ctx.spans, "sim.pass");
    traced = run_pass(runs, *world, &ctx.spans, pass.id());
  }
  check_drain(traced, r, "every traced run", false);
  r.check(traced.outputs == first.outputs,
          "tracing does not change simulated outputs (digest " +
              hex(traced.outputs) + ")");
  double worst = 0.0;
  double blame_total = 0.0;
  std::size_t analyzed = 0;
  std::vector<obs::QuestionBreakdown> all;
  for (const RunOutcome& o : traced.runs) {
    for (const auto& q : o.breakdowns) {
      worst = std::max(worst, std::abs(q.component_sum() - q.total));
      blame_total += q.total;
      all.push_back(q);
    }
    analyzed += o.breakdowns.size();
  }
  const double latency_total = [&] {
    double s = 0.0;
    for (const double v : t.latencies) s += v;
    return s;
  }();
  r.check(worst <= 1e-6, "critical-path telescoping: max |components - "
                         "total| = " + fmt("%.3g", worst) + " s <= 1e-6");
  r.check(analyzed == t.completed &&
              std::abs(blame_total - latency_total) <=
                  1e-6 * static_cast<double>(std::max<std::size_t>(1, analyzed)),
          "blame totals telescope to measured latency (" +
              std::to_string(analyzed) + " questions, " +
              fmt("%.6f", blame_total) + " vs " + fmt("%.6f", latency_total) +
              " s)");

  const obs::RunAttribution blame = obs::attribute_run(all);
  const double q = static_cast<double>(std::max<std::size_t>(1, blame.questions));
  const std::string per_q =
      "simulated, mean per question, " + std::to_string(blame.questions) +
      " questions";
  const std::pair<const char*, double> components[] = {
      {"obs.blame_queue_s", blame.queue},
      {"obs.blame_network_s", blame.network},
      {"obs.blame_retry_s", blame.retry},
      {"obs.blame_merge_s", blame.merge},
      {"obs.blame_service_qp_s", blame.service.qp},
      {"obs.blame_service_pr_s", blame.service.pr},
      {"obs.blame_service_ps_s", blame.service.ps},
      {"obs.blame_service_po_s", blame.service.po},
      {"obs.blame_service_ap_s", blame.service.ap}};
  for (const auto& [name, v] : components) {
    r.layer(name, v / q, "s", per_q + ", share " + fmt("%.3f", blame.share(v)));
  }

  // Host-side layer times, from the untraced passes.
  const double runs_n = static_cast<double>(first.runs.size());
  r.layer("cluster.system_build_ms", t.build_s / runs_n * 1e3, "ms",
          "mean per run, pass 1");
  r.layer("workload.submit_ms", t.submit_s / runs_n * 1e3, "ms",
          "mean per run, pass 1");
  r.layer("cluster.run_s", t.run_s, "s", "sum over runs, pass 1");
  r.layer("simnet.ns_per_event", t.run_s * 1e9 / static_cast<double>(t.events),
          "ns", "cluster.run_s / simnet.events, pass 1");
  r.layer("events_per_s", static_cast<double>(t.events) / t.run_s, "1/s",
          "inverse of simnet.ns_per_event");
  report_sim_counts(t, r);
  r.layer("obs.trace_overhead_pct", 100.0 * (traced.wall_s / wall - 1.0), "%",
          "traced pass vs median of " + std::to_string(wall_s.size()) +
              " untraced passes");

  // The pipeline layers on this workload's own engine and questions: the
  // work make_plan pays in setup.
  std::vector<StageSample> samples;
  {
    SpanScope probe(&ctx.spans, "probe.stage_pass");
    for (std::size_t i = 0; i < world->questions.size(); ++i) {
      samples.push_back(stage_pass_question(*world->engine,
                                            world->questions[i], &ctx.spans,
                                            probe.id(),
                                            static_cast<std::int64_t>(i)));
    }
  }
  bool plans_match = true;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    plans_match = plans_match &&
                  same_answers(samples[i].answers, world->plans[i].answers);
  }
  r.check(plans_match, "stage-API pass reproduces the answers of every plan");
  report_stage_layers(samples, samples.size(), r);
  run_probes(def, *world, &ctx.spans, kNoSpan, r);
}

// ---------------------------------------------------------------------------

int selftest() {
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failures;
  };
  const auto ramp = [](std::size_t n) {
    std::vector<double> v;
    for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(n - i));
    return v;
  };
  auto p = perfbench::highest_supported(ramp(1000));
  expect(p.pct == 99.0 && p.samples == 1000 && p.beyond == 10,
         "1000 samples support p99 with 10 beyond");
  expect(std::abs(p.value - 990.01) < 1e-9, "p99 of 1..1000 interpolates");
  p = perfbench::highest_supported(ramp(500));
  expect(p.pct == 95.0 && p.samples == 500 && p.beyond == 25,
         "500 samples fall back to p95");
  p = perfbench::highest_supported(ramp(100));
  expect(p.pct == 90.0 && p.beyond == 10, "100 samples fall back to p90");
  p = perfbench::highest_supported(ramp(25));
  expect(p.pct == 50.0 && p.beyond == 12, "25 samples support only p50");
  p = perfbench::highest_supported(ramp(15));
  expect(!p.supported() && p.samples == 15, "15 samples support nothing");
  p = perfbench::highest_supported(std::vector<double>(5000, 3.0));
  expect(!p.supported(), "ties leave no sample beyond any percentile");
  p = perfbench::highest_supported(ramp(1000), 50.0);
  expect(p.pct == 50.0 && p.beyond == 500, "ceiling caps the percentile");
  expect(perfbench::median({3.0, 1.0, 2.0}) == 2.0, "median of three");

  perfbench::HostSpans spans;
  const auto root = spans.begin("root");
  const auto a = spans.begin("child", root);
  spans.end(a);
  const auto b = spans.begin("child", root);
  spans.end(b);
  spans.end(root);
  const auto self = spans.self_times();
  const double sum = self.at("root").seconds + self.at("child").seconds;
  expect(std::abs(sum - spans.duration(root)) < 1e-12 &&
             self.at("child").count == 2,
         "self times of a span tree sum to the root's duration");
  const double nominal = perfbench::HostRef::kNominalChunkSeconds;
  const auto scaled =
      perfbench::host_scaled({1.0, 3.0}, {nominal, 1.5 * nominal});
  expect(scaled.size() == 2 && std::abs(scaled[0] - 1.0) < 1e-12 &&
             std::abs(scaled[1] - 2.0) < 1e-12,
         "pass times scale by the reference chunk time during them");
  return failures == 0 ? 0 : 1;
}

std::vector<std::string> provenance(const Options& o) {
  std::vector<std::string> p;
#if defined(__OPTIMIZE__)
  const bool optimised = true;
#else
  const bool optimised = false;
#endif
  p.push_back(std::string("compiler: ") + PERFBENCH_COMPILER);
  p.push_back(std::string("build type: ") + PERFBENCH_BUILD_TYPE +
              (optimised ? " (optimised)" : " (NOT OPTIMISED)"));
  p.push_back("git describe: " + o.git_describe);
  p.push_back("nproc: " + std::to_string(std::thread::hardware_concurrency()));
  p.push_back("workload: " + o.workload + ", seed: " + std::to_string(o.seed) +
              ", seconds: " + fmt("%g", o.seconds) +
              ", trace: " + (o.trace ? "1" : "0"));
  if (!optimised) {
    std::fprintf(stderr,
                 "\n*** WARNING: perfbench was built without optimisation; "
                 "its timings are meaningless. ***\n\n");
  }
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = parse_options(argc, argv);
  if (!opt) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR] [--git-describe STR] "
                 "[--inject-fault drain|digest]\n       perfbench --selftest\n");
    return 2;
  }
  if (opt->selftest) return selftest();

  auto ctx = std::make_unique<Context>();
  ctx->opt = *opt;
  if (!opt->trace) ctx->ref = std::make_unique<perfbench::HostRef>();
  for (const auto& def : kWorkloads) {
    if (opt->workload == def.name) ctx->def = &def;
  }
  if (ctx->def == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 opt->workload.c_str());
    return 2;
  }
  Report& r = ctx->report;
  r.provenance = provenance(*opt);
  try {
    if (ctx->def->kind == Kind::kPipeline) {
      run_pipeline(*ctx);
    } else {
      run_simulation(*ctx);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  std::error_code ec;
  std::filesystem::create_directories(opt->out_dir, ec);
  const std::string stem = opt->out_dir + "/" + opt->workload + "-seed" +
                           std::to_string(opt->seed) + "-trace" +
                           (opt->trace ? "1" : "0");
  if (opt->trace) {
    // Self times of the bench-side spans, and whether they account for the
    // traced wall time of each top-level span.
    double top = 0.0;
    double self_sum = 0.0;
    for (std::size_t i = 0; i < ctx->spans.spans().size(); ++i) {
      if (ctx->spans.spans()[i].parent == HostSpans::kNone) {
        top += ctx->spans.duration(static_cast<SpanId>(i));
      }
    }
    std::printf("\nhost span self times\n");
    for (const auto& [name, st] : ctx->spans.self_times()) {
      self_sum += st.seconds;
      std::printf("  %-30s %12.6f s  (%zu spans)\n", name.c_str(), st.seconds,
                  st.count);
    }
    r.check(std::abs(self_sum - top) <= 1e-6 * std::max(1.0, top),
            "span self times account for the traced wall time (" +
                fmt("%.6f", self_sum) + " of " + fmt("%.6f", top) + " s)");
    if (!ctx->spans.write_jsonl(stem + "-spans.jsonl")) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                   opt->out_dir.c_str());
    }
  }
  print_report(r);
  if (!write_report_json(r, stem + ".json")) {
    std::fprintf(stderr, "perfbench: cannot write report to %s\n",
                 opt->out_dir.c_str());
  }
  bool complete = false;
  const std::string line =
      result_line(r, opt->trace ? kPerLayerKeys : kEndToEndKeys, &complete);
  if (!complete) {
    std::fprintf(stderr, "perfbench: internal error: a declared metric is "
                         "missing from the report\n");
    return 2;
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
