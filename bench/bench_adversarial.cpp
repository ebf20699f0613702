// Adversarial regression corpus replay: loads every pinned survivor
// scenario committed under results/scenarios/ (override the directory
// with QADIST_SCENARIOS_DIR), replays each twice, and fails the build —
// via exit code — when anything drifted:
//
//   * the two replays are not bit-identical (determinism broke),
//   * any global invariant is violated (drain accounting, telescoping,
//     zombie spans, counter consistency),
//   * the measured p99 or degraded share leaves the pinned envelope:
//     worse than pin * (1 + slack) is a tail regression; a p99 below
//     half the pinned value means the pathology silently vanished and
//     the corpus must be re-hunted (tools/fuzz_hunter) and re-pinned.
//
// The corpus is committed, so fewer than 3 loadable scenarios is itself
// a failure — the regression net is gone.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "benches.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/runner.hpp"
#include "fuzz/scenario.hpp"
#include "support/bench_report.hpp"
#include "support/bench_world.hpp"

namespace {

std::string scenario_dir() {
  if (const char* env = std::getenv("QADIST_SCENARIOS_DIR");
      env != nullptr && *env != '\0') {
    return env;
  }
  // Default: results/scenarios relative to the working directory, with a
  // parent-directory fallback so running from build/ also finds the
  // committed corpus.
  const std::string local = "results/scenarios";
  if (std::filesystem::exists(local)) return local;
  const std::string parent = "../results/scenarios";
  if (std::filesystem::exists(parent)) return parent;
  return local;
}

}  // namespace

int qadist::bench::run_adversarial(const BenchCli& /*cli*/) {
  const std::string dir = scenario_dir();
  const std::vector<fuzz::LoadedScenario> corpus =
      fuzz::load_scenario_dir(dir);
  std::printf("adversarial corpus: %zu scenario(s) from %s\n", corpus.size(),
              dir.c_str());
  if (corpus.size() < 3) {
    std::fprintf(stderr,
                 "FAIL: expected the committed corpus (>= 3 scenarios) under "
                 "%s — found %zu\n",
                 dir.c_str(), corpus.size());
    return 1;
  }

  const bench::BenchWorld& world = bench::bench_world();

  bench::BenchReport report("adversarial");
  report.config("scenarios", static_cast<std::int64_t>(corpus.size()));
  report.config("dir", dir);

  int failures = 0;
  const auto fail = [&failures](const std::string& scenario,
                                const std::string& why) {
    std::fprintf(stderr, "FAIL %s: %s\n", scenario.c_str(), why.c_str());
    ++failures;
  };

  std::printf("%-18s %12s %12s %10s %10s  %s\n", "scenario", "p99(s)",
              "pin-p99(s)", "degraded", "pin-degr", "verdict");
  for (const fuzz::LoadedScenario& loaded : corpus) {
    const fuzz::Scenario& s = loaded.scenario;
    if (const auto issue = s.problem(world.plans.size())) {
      fail(s.name, "scenario no longer valid: " + *issue);
      continue;
    }
    if (!s.pin.present) {
      fail(s.name, "committed scenario has no pin (re-run fuzz_hunter)");
      continue;
    }

    // First replay: invariants + serialize -> parse -> re-run bit-identity.
    fuzz::RunOptions options;
    options.check_invariants = true;
    options.check_replay = true;
    const fuzz::Observation first = fuzz::run_scenario(world.plans, s, options);
    for (const std::string& violation : first.violations) {
      fail(s.name, violation);
    }
    // Second full replay from the parsed file content: the digest must
    // match the first run exactly (the corpus's bit-identical-replay
    // guarantee, end to end through the on-disk JSON).
    options.check_invariants = false;
    options.check_replay = false;
    const fuzz::Observation second =
        fuzz::run_scenario(world.plans, s, options);
    if (!(first.digest == second.digest)) {
      fail(s.name, "re-replay diverged:\n  first:  " +
                       fuzz::to_string(first.digest) +
                       "\n  second: " + fuzz::to_string(second.digest));
    }

    // Pinned envelope. The ceiling is the regression gate; the floor
    // catches a silently-vanished pathology (then the pin is stale and the
    // corpus needs re-hunting).
    const fuzz::Pin& pin = s.pin;
    const double p99_ceiling = pin.p99_seconds * (1.0 + pin.slack);
    const double p99_floor = pin.p99_seconds * 0.5;
    const double degraded_ceiling =
        pin.degraded_fraction * (1.0 + pin.slack) + 0.05;
    bool ok = true;
    if (first.p99 > p99_ceiling) {
      fail(s.name, "p99 " + fuzz::format_double(first.p99) +
                       "s exceeds pinned envelope " +
                       fuzz::format_double(p99_ceiling) + "s");
      ok = false;
    }
    if (first.p99 < p99_floor) {
      fail(s.name, "p99 " + fuzz::format_double(first.p99) +
                       "s fell below half the pinned " +
                       fuzz::format_double(pin.p99_seconds) +
                       "s — pathology vanished, re-pin the corpus");
      ok = false;
    }
    if (first.degraded_fraction > degraded_ceiling) {
      fail(s.name, "degraded share " +
                       fuzz::format_double(first.degraded_fraction) +
                       " exceeds pinned envelope " +
                       fuzz::format_double(degraded_ceiling));
      ok = false;
    }

    std::printf("%-18s %12.3f %12.3f %10.4f %10.4f  %s\n", s.name.c_str(),
                first.p99, pin.p99_seconds, first.degraded_fraction,
                pin.degraded_fraction, ok ? "ok" : "FAIL");

    const obs::Labels labels = {{"scenario", s.name}};
    report.metric("p99_latency_seconds", labels, first.p99);
    report.metric("degraded_share", labels, first.degraded_fraction);
    report.metric("shed_share", labels, first.shed_fraction);
  }

  report.metric("scenarios_replayed", {},
                static_cast<double>(corpus.size()));
  report.write();

  if (failures > 0) {
    std::fprintf(stderr, "\nadversarial: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("\nall %zu scenarios replayed bit-identically inside their "
              "pinned envelopes.\n",
              corpus.size());
  return 0;
}
