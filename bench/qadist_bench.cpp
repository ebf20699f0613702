// The bench program: `qadist_bench [flags] NAME...` runs the named paper
// exhibits and extension studies in one process, so the shared bench
// world is built once per run. `qadist_bench --help` lists the names.

#include <span>

#include "benches.hpp"

int main(int argc, char** argv) {
  const std::span<const char* const> args(argv,
                                          static_cast<std::size_t>(argc));
  return qadist::bench::bench_main(qadist::bench::kBenches,
                                   args.empty() ? args : args.subspan(1));
}
