#pragma once

// The benches of the qadist_bench program: one function per paper exhibit
// or extension study (each defined in bench_<name>.cpp), and the table
// that names them on the command line.

#include "support/bench_cli.hpp"

namespace qadist::bench {

int run_table2_module_breakdown(const BenchCli& cli);
int run_table3_resource_weights(const BenchCli& cli);
int run_table4_practical_limits(const BenchCli& cli);
int run_table5_7_high_load(const BenchCli& cli);
int run_table8_module_times(const BenchCli& cli);
int run_table9_overhead(const BenchCli& cli);
int run_table10_analytical_vs_measured(const BenchCli& cli);
int run_table11_partitioning(const BenchCli& cli);
int run_fig7_traces(const BenchCli& cli);
int run_fig8_inter_speedup(const BenchCli& cli);
int run_fig9_intra_speedup(const BenchCli& cli);
int run_fig10_chunk_granularity(const BenchCli& cli);
int run_ablations(const BenchCli& cli);
int run_host_partitioning(const BenchCli& cli);
int run_elastic_membership(const BenchCli& cli);
int run_fault_recovery(const BenchCli& cli);
int run_network_faults(const BenchCli& cli);
int run_cache_scaling(const BenchCli& cli);
int run_shard_scaling(const BenchCli& cli);
int run_capacity_planning(const BenchCli& cli);
int run_attribution(const BenchCli& cli);
int run_tail_tolerance(const BenchCli& cli);
int run_adversarial(const BenchCli& cli);
int run_selective_search(const BenchCli& cli);

/// Every bench, in the order --help lists them: the paper's tables and
/// figures first, then the extension studies.
inline constexpr BenchEntry kBenches[] = {
    {"table2_module_breakdown", run_table2_module_breakdown},
    {"table3_resource_weights", run_table3_resource_weights},
    {"table4_practical_limits", run_table4_practical_limits},
    {"table5_7_high_load", run_table5_7_high_load},
    {"table8_module_times", run_table8_module_times},
    {"table9_overhead", run_table9_overhead},
    {"table10_analytical_vs_measured", run_table10_analytical_vs_measured},
    {"table11_partitioning", run_table11_partitioning},
    {"fig7_traces", run_fig7_traces},
    {"fig8_inter_speedup", run_fig8_inter_speedup},
    {"fig9_intra_speedup", run_fig9_intra_speedup},
    {"fig10_chunk_granularity", run_fig10_chunk_granularity},
    {"ablations", run_ablations},
    {"host_partitioning", run_host_partitioning},
    {"elastic_membership", run_elastic_membership},
    {"fault_recovery", run_fault_recovery},
    {"network_faults", run_network_faults},
    {"cache_scaling", run_cache_scaling},
    {"shard_scaling", run_shard_scaling},
    {"capacity_planning", run_capacity_planning},
    {"attribution", run_attribution},
    {"tail_tolerance", run_tail_tolerance},
    {"adversarial", run_adversarial},
    {"selective_search", run_selective_search},
};

}  // namespace qadist::bench
