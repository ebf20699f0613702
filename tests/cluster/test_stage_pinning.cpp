// Exact pins for the fork-join supervision paths: leg spawning, report
// settlement, reply-timeout crash sweeps, unreachable recovery, deadline
// degradation, hedge races and broker re-routing, for every PR placement
// (RECV shared deque, SEND blocks, sharded replica scatter, broker tier)
// crossed with every AP strategy.
//
// Each case runs a small overloaded cluster under one fault and compares
// the run against constants captured from a known-good build: exact
// Metrics fields, the span digest (count, start sum, end sum), which moves
// on any re-ordered or re-timed coroutine resumption, and a hash of the
// text trace, which moves when a supervision event is recorded in a
// different order or with different text. A failure
// prints the actual row in table syntax (SCOPED_TRACE) for diagnosis; the
// constants themselves are not meant to be re-captured — a change here
// means the supervision logic now behaves differently.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>

#include "cluster/system.hpp"
#include "cluster/trace.hpp"
#include "obs/span.hpp"
#include "support/test_world.hpp"
#include "workload/driver.hpp"

namespace qadist::cluster {
namespace {

using parallel::Strategy;
using qadist::testing::test_world;

const std::vector<QuestionPlan>& plans() {
  static const std::vector<QuestionPlan> p = [] {
    const auto& world = test_world();
    const auto cost = CostModel::calibrate(
        *world.engine,
        std::span<const corpus::Question>(world.questions).subspan(0, 8));
    std::vector<QuestionPlan> out;
    for (std::size_t i = 0; i < 12; ++i) {
      out.push_back(make_plan(*world.engine, cost, world.questions[i]));
    }
    return out;
  }();
  return p;
}

enum class PrMode { kRecv, kSend, kSharded, kBrokered };
enum class Fault {
  kCrash,             ///< two worker crashes (one restarts), mid-PR/mid-AP
  kPartition,         ///< a worker cut off by the network, then healed
  kHedge,             ///< hedge + tied with one 10x gray node
  kDeadline,          ///< a partition under a question deadline budget
  kBrokerCrash,       ///< both designated brokers crash (brokered only)
  kGroupWorkerCrash,  ///< an in-group shard holder crashes (brokered only)
};

const char* name_of(PrMode pr) {
  switch (pr) {
    case PrMode::kRecv:
      return "PrRecv";
    case PrMode::kSend:
      return "PrSend";
    case PrMode::kSharded:
      return "PrSharded";
    case PrMode::kBrokered:
      return "PrBrokered";
  }
  return "?";
}

const char* name_of(Strategy ap) {
  switch (ap) {
    case Strategy::kRecv:
      return "ApRecv";
    case Strategy::kSend:
      return "ApSend";
    case Strategy::kIsend:
      return "ApIsend";
  }
  return "?";
}

const char* name_of(Fault fault) {
  switch (fault) {
    case Fault::kCrash:
      return "Crash";
    case Fault::kPartition:
      return "Partition";
    case Fault::kHedge:
      return "Hedge";
    case Fault::kDeadline:
      return "Deadline";
    case Fault::kBrokerCrash:
      return "BrokerCrash";
    case Fault::kGroupWorkerCrash:
      return "GroupWorkerCrash";
  }
  return "?";
}

/// One pinned run. Integer fields are exact Metrics counters; the doubles
/// are compared with EXPECT_DOUBLE_EQ (the golden_scenario convention).
struct Pin {
  std::size_t completed;
  std::size_t legs_spawned;
  std::size_t legs_lost;
  std::size_t items_recovered;
  std::size_t recovery_legs;
  std::size_t legs_unreachable;
  std::size_t questions_degraded;
  std::size_t degraded_units_dropped;
  std::size_t hedges_issued;
  std::size_t hedge_wins;
  std::size_t legs_cancelled;
  std::size_t question_restarts;
  std::size_t migrations_pr;
  std::size_t migrations_ap;
  std::size_t broker_reroutes;
  double makespan;
  double latency_mean;
  double latency_max;
  std::size_t spans;
  double span_start_sum;
  double span_end_sum;
  std::size_t trace_entries;
  std::uint64_t trace_hash;
};

struct Case {
  PrMode pr;
  Strategy ap;
  Fault fault;
  Pin expected;
};

std::string case_name(const Case& c) {
  return std::string(name_of(c.pr)) + "_" + name_of(c.ap) + "_" +
         name_of(c.fault);
}

void PrintTo(const Case& c, std::ostream* os) { *os << case_name(c); }

SystemConfig config_for(const Case& c) {
  SystemConfig cfg;
  cfg.nodes = 6;
  cfg.seed = 42;
  cfg.dispatch.policy = Policy::kDqa;
  cfg.partition.pr_strategy =
      c.pr == PrMode::kSend ? Strategy::kSend : Strategy::kRecv;
  cfg.partition.ap_strategy = c.ap;
  cfg.partition.ap_chunk = 8;
  if (c.pr == PrMode::kSharded || c.pr == PrMode::kBrokered) {
    cfg.shard.num_shards = 8;
    cfg.shard.replication = 2;
  }
  // Two groups of three nodes: {0,1,2} brokered by 0, {3,4,5} by 3.
  if (c.pr == PrMode::kBrokered) cfg.broker.brokers = 2;
  switch (c.fault) {
    case Fault::kCrash:
      cfg.faults.crashes.push_back(FaultEvent{2, 10.0, 40.0});
      cfg.faults.crashes.push_back(FaultEvent{4, 70.0});
      break;
    case Fault::kPartition:
      cfg.net.faults.partitions.push_back(
          simnet::PartitionWindow{20.0, 50.0, {4}});
      cfg.net.faults.partitions.push_back(
          simnet::PartitionWindow{90.0, 110.0, {2}});
      break;
    case Fault::kHedge: {
      cfg.tail.hedge = true;
      cfg.tail.tied = true;
      cfg.tail.hedge_min_samples = 4;
      simnet::GrayFaultEvent gray;
      gray.node = 1;
      gray.at = 10.0;
      gray.cpu_factor = 10.0;
      gray.disk_factor = 10.0;
      cfg.gray.events.push_back(gray);
      break;
    }
    case Fault::kDeadline:
      cfg.net.faults.partitions.push_back(
          simnet::PartitionWindow{20.0, 60.0, {4}});
      cfg.net.faults.partitions.push_back(
          simnet::PartitionWindow{90.0, 130.0, {2}});
      cfg.net.reliability.question_deadline = 10.0;
      break;
    case Fault::kBrokerCrash:
      cfg.faults.crashes.push_back(FaultEvent{0, 30.0, 40.0});
      cfg.faults.crashes.push_back(FaultEvent{3, 80.0});
      break;
    case Fault::kGroupWorkerCrash:
      cfg.faults.crashes.push_back(FaultEvent{1, 30.0});
      cfg.faults.crashes.push_back(FaultEvent{5, 60.0, 30.0});
      break;
  }
  return cfg;
}

struct Digest {
  Metrics metrics;
  std::size_t broker_reroutes = 0;
  std::size_t spans = 0;
  double span_start_sum = 0.0;
  double span_end_sum = 0.0;
  TraceRecorder trace;
  std::uint64_t trace_hash = 0;
};

/// FNV-1a over every text-trace entry (node, then text) in record order:
/// pins which supervision events were recorded, and in what order.
std::uint64_t trace_hash(const TraceRecorder& trace) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](unsigned char byte) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  };
  for (const auto& e : trace.entries()) {
    for (int shift = 0; shift < 32; shift += 8) mix((e.node >> shift) & 0xff);
    for (const char ch : e.event) mix(static_cast<unsigned char>(ch));
    mix(0);
  }
  return h;
}

Digest run_case(const Case& c) {
  simnet::Simulation sim;
  System system(sim, config_for(c));
  obs::Tracer tracer;
  Digest out;
  system.set_tracer(&tracer);
  system.set_trace(&out.trace);
  workload::RunSpec spec;
  spec.shape = workload::WorkloadShape::kOverload;
  spec.overload.count = 12;
  spec.overload.seed = 5;
  out.metrics = workload::Driver(system, plans()).run(spec).metrics;
  const auto* reroutes = system.registry().find_counter("broker_reroutes");
  out.broker_reroutes =
      reroutes != nullptr ? static_cast<std::size_t>(reroutes->value()) : 0;
  out.spans = tracer.spans().size();
  for (const auto& s : tracer.spans()) {
    out.span_start_sum += s.start;
    out.span_end_sum += s.end;
  }
  out.trace_hash = trace_hash(out.trace);
  return out;
}

/// The actual run formatted as a table row, for the failure message.
std::string row(const Digest& d) {
  const Metrics& m = d.metrics;
  char buf[896];
  std::snprintf(
      buf, sizeof(buf),
      "{%zu, %zu, %zu, %zu, %zu, %zu, %zu, %zu, %zu, %zu, %zu, %zu, %zu, "
      "%zu, %zu,\n %.17g, %.17g, %.17g,\n %zu, %.17g, %.17g,\n"
      " %zu, 0x%016llxULL}",
      m.completed, m.legs_spawned, m.legs_lost, m.items_recovered,
      m.recovery_legs, m.legs_unreachable, m.questions_degraded,
      m.degraded_units_dropped, m.hedges_issued, m.hedge_wins,
      m.legs_cancelled, m.question_restarts, m.migrations_pr,
      m.migrations_ap, d.broker_reroutes, m.makespan, m.latencies.mean(),
      m.latencies.max(), d.spans, d.span_start_sum, d.span_end_sum,
      d.trace.entries().size(),
      static_cast<unsigned long long>(d.trace_hash));
  return buf;
}

// clang-format off
const Case kCases[] = {
    {PrMode::kRecv, Strategy::kRecv, Fault::kCrash,
     {12, 102, 4, 18, 1, 0, 0, 0, 0, 0, 0, 0, 12, 11, 0,
      653.16650995563464, 206.31556899634029, 551.86380058800012,
      258, 23649.876305191181, 32730.994785207848,
      176, 0x0e1c659229bc5c54ULL}},
    {PrMode::kRecv, Strategy::kRecv, Fault::kPartition,
     {12, 134, 0, 237, 21, 24, 0, 0, 0, 0, 0, 0, 12, 12, 0,
      384.50964617164294, 139.90327212868442, 236.68083157023085,
      290, 27254.222814347155, 34520.979766148877,
      227, 0xced9c8caab00f3c8ULL}},
    {PrMode::kRecv, Strategy::kRecv, Fault::kHedge,
     {12, 113, 0, 0, 0, 0, 0, 0, 27, 17, 27, 0, 12, 11, 0,
      1375.3231034279261, 242.12497342043994, 1227.6925301572824,
      296, 29618.583708831087, 40754.912069156548,
      196, 0xf65f2f7155c052d0ULL}},
    {PrMode::kRecv, Strategy::kRecv, Fault::kDeadline,
     {12, 114, 0, 0, 0, 4, 4, 39, 0, 0, 0, 0, 12, 11, 0,
      422.08058465485317, 120.47503483609806, 263.91428522806024,
      270, 24860.180204117652, 31172.366334097889,
      192, 0x528b3a5d48cb6c45ULL}},
    {PrMode::kRecv, Strategy::kSend, Fault::kCrash,
     {12, 114, 5, 25, 10, 0, 0, 0, 0, 0, 0, 1, 13, 11, 0,
      551.46697124243883, 233.93952489995772, 403.83639797179524,
      282, 25477.233067712645, 36287.130588599372,
      202, 0xbfffa946b0573ff6ULL}},
    {PrMode::kRecv, Strategy::kSend, Fault::kPartition,
     {12, 116, 0, 19, 10, 2, 0, 0, 0, 0, 0, 0, 12, 12, 0,
      443.48103621292404, 161.87462309631556, 285.31473678613111,
      272, 24712.248981583925, 32843.168703807052,
      191, 0x1d0043b8fbcdc111ULL}},
    {PrMode::kRecv, Strategy::kSend, Fault::kHedge,
     {12, 110, 0, 0, 0, 0, 0, 0, 35, 19, 35, 0, 12, 12, 0,
      1864.5647201932074, 378.47277561758057, 1716.9341469225637,
      301, 31504.037541049358, 47772.706026324144,
      209, 0xdaa99f78dd1357b7ULL}},
    {PrMode::kRecv, Strategy::kSend, Fault::kDeadline,
     {12, 116, 0, 0, 0, 4, 4, 32, 0, 0, 0, 0, 12, 12, 0,
      352.42426088353039, 111.62442819431935, 224.00287167003933,
      272, 25299.627552521582, 31591.14755298314,
      198, 0x0fdd51d461d5c55aULL}},
    {PrMode::kRecv, Strategy::kIsend, Fault::kCrash,
     {12, 111, 4, 24, 9, 0, 0, 0, 0, 0, 0, 1, 13, 13, 0,
      510.05517250158124, 192.49669059318308, 351.88887307478831,
      279, 24848.156569465762, 33693.999754069118,
      198, 0x3a73f927b41812fbULL}},
    {PrMode::kRecv, Strategy::kIsend, Fault::kPartition,
     {12, 117, 0, 19, 10, 2, 0, 0, 0, 0, 0, 0, 12, 12, 0,
      525.62080486343632, 156.12041109378413, 367.45450543664339,
      273, 24673.163523505304, 32402.011405771591,
      192, 0xce672ddf1f60e1bcULL}},
    {PrMode::kRecv, Strategy::kIsend, Fault::kHedge,
     {12, 109, 0, 0, 0, 0, 0, 0, 34, 19, 34, 0, 12, 12, 0,
      1417.7657147736797, 264.2384274853037, 1270.1351415030363,
      299, 29742.437875340671, 42044.964281476125,
      205, 0x3dc47a3ef7a1a089ULL}},
    {PrMode::kRecv, Strategy::kIsend, Fault::kDeadline,
     {12, 112, 0, 0, 0, 3, 3, 28, 0, 0, 0, 0, 12, 12, 0,
      376.47292561891226, 117.69451343965675, 228.84235234826866,
      268, 24844.844950191989, 31222.117298984813,
      191, 0x39d6d209d4bba6c0ULL}},
    {PrMode::kSend, Strategy::kRecv, Fault::kCrash,
     {12, 101, 5, 24, 3, 0, 0, 0, 0, 0, 0, 0, 12, 11, 0,
      512.00041353412894, 176.45122347285721, 410.69770416649436,
      257, 23743.15684995523, 31606.290968631347,
      175, 0xc43ad370557371f2ULL}},
    {PrMode::kSend, Strategy::kRecv, Fault::kPartition,
     {12, 137, 0, 266, 25, 27, 0, 0, 0, 0, 0, 0, 12, 11, 0,
      426.53845941966506, 139.8286088647171, 268.37215999287213,
      293, 27720.770820600286, 34882.374869021674,
      235, 0x9f0b0f1e0c0bab4bULL}},
    {PrMode::kSend, Strategy::kRecv, Fault::kHedge,
     {12, 111, 0, 0, 0, 0, 0, 0, 32, 17, 32, 0, 12, 10, 0,
      2160.7791515096505, 409.0407567116265, 2045.5403805221513,
      300, 31795.355480070881, 48897.993972169468,
      202, 0xfb2f3afea3dbf483ULL}},
    {PrMode::kSend, Strategy::kRecv, Fault::kDeadline,
     {12, 111, 0, 0, 0, 4, 4, 34, 0, 0, 0, 0, 12, 11, 0,
      408.95399279747289, 121.02643439563968, 250.78769337067996,
      267, 24752.319923044797, 31066.123245328225,
      189, 0x58ca2ea70fc0c7e9ULL}},
    {PrMode::kSend, Strategy::kSend, Fault::kCrash,
     {12, 109, 5, 24, 12, 0, 0, 0, 0, 0, 0, 0, 12, 11, 0,
      523.30151731955095, 216.23752009169252, 373.99820206017023,
      265, 24002.331519014409, 33668.394092610375,
      189, 0xd047b8deecc74a81ULL}},
    {PrMode::kSend, Strategy::kSend, Fault::kPartition,
     {12, 261, 0, 178, 158, 145, 0, 0, 0, 0, 0, 0, 12, 11, 0,
      518.54654897732098, 168.81308793465948, 360.38024955052805,
      418, 39343.575033038767, 47651.588867314174,
      483, 0xd799cfdc8738bc05ULL}},
    {PrMode::kSend, Strategy::kSend, Fault::kHedge,
     {12, 111, 0, 0, 0, 0, 0, 0, 39, 18, 39, 0, 12, 11, 0,
      3036.3746681510202, 562.44829045986251, 2878.2083687242271,
      306, 34452.459830815598, 57541.833974208042,
      213, 0x6a8c9a13639b6743ULL}},
    {PrMode::kSend, Strategy::kSend, Fault::kDeadline,
     {12, 110, 0, 0, 0, 4, 4, 34, 0, 0, 0, 0, 12, 12, 0,
      461.22133171781218, 158.47378665727754, 313.59075844716858,
      266, 24891.267810382022, 32579.042361134951,
      191, 0x16ffc08dcc9ece5aULL}},
    {PrMode::kSend, Strategy::kIsend, Fault::kCrash,
     {12, 112, 6, 29, 17, 0, 0, 0, 0, 0, 0, 0, 12, 11, 0,
      516.40860411421397, 227.90216926922812, 365.73289760125056,
      268, 24139.024425252806, 34236.389964796173,
      193, 0xcd94fdb75fbe9577ULL}},
    {PrMode::kSend, Strategy::kIsend, Fault::kPartition,
     {12, 116, 0, 20, 10, 2, 0, 0, 0, 0, 0, 0, 12, 12, 0,
      446.72643994254776, 168.47124516744057, 298.08948521234333,
      272, 24787.654395314297, 33121.491517146322,
      191, 0xed2eacb03f30ace2ULL}},
    {PrMode::kSend, Strategy::kIsend, Fault::kHedge,
     {12, 111, 0, 0, 0, 0, 0, 0, 38, 18, 38, 0, 12, 12, 0,
      2104.3121422460954, 337.49663412584363, 1946.1458428193025,
      306, 31138.980378262659, 46163.258514746143,
      213, 0x1bb5d9a4aaaef437ULL}},
    {PrMode::kSend, Strategy::kIsend, Fault::kDeadline,
     {12, 108, 0, 0, 0, 3, 3, 28, 0, 0, 0, 0, 12, 11, 0,
      438.0221698262593, 138.72848884982889, 279.85587039946637,
      264, 24682.160112241356, 31623.949045520727,
      188, 0x84afcb83cd7bb9aaULL}},
    {PrMode::kSharded, Strategy::kRecv, Fault::kCrash,
     {12, 104, 2, 9, 1, 0, 0, 0, 0, 0, 0, 2, 14, 12, 0,
      507.90450447376071, 213.16126990783232, 384.74183386151014,
      282, 27049.397468656422, 36412.038784629884,
      202, 0x10923c974e727f2dULL}},
    {PrMode::kSharded, Strategy::kRecv, Fault::kPartition,
     {12, 100, 0, 62, 7, 8, 0, 0, 0, 0, 0, 0, 12, 12, 0,
      510.63589489820623, 159.34448447429321, 409.33318553057165,
      257, 25236.85405740872, 32944.450272483016,
      201, 0xbf3a17cadc87de5bULL}},
    {PrMode::kSharded, Strategy::kRecv, Fault::kHedge,
     {12, 90, 0, 0, 0, 0, 0, 0, 30, 14, 30, 0, 12, 11, 0,
      413.75528160709598, 166.7540378414121, 312.4525722394614,
      275, 27926.361114092615, 36536.252591429213,
      197, 0xa23b729bc5f0c66aULL}},
    {PrMode::kSharded, Strategy::kRecv, Fault::kDeadline,
     {12, 90, 0, 0, 0, 4, 4, 30, 0, 0, 0, 0, 12, 11, 0,
      401.73884006940256, 127.04627047071318, 215.95635473271759,
      246, 23711.138370842971, 30492.694308688446,
      192, 0x8db94adb329a16edULL}},
    {PrMode::kSharded, Strategy::kSend, Fault::kCrash,
     {12, 99, 2, 10, 5, 0, 0, 0, 0, 0, 0, 1, 13, 11, 0,
      621.86592510734681, 234.71450142239908, 463.69962568055388,
      267, 25438.53275115135, 35807.850903639555,
      199, 0x237454ac8ab9f1f1ULL}},
    {PrMode::kSharded, Strategy::kSend, Fault::kPartition,
     {12, 89, 0, 9, 5, 1, 0, 0, 0, 0, 0, 0, 12, 11, 0,
      489.51692638368661, 183.48273082098058, 341.88635311304301,
      245, 23303.670833927728, 31935.646978406803,
      186, 0x9968e6cb7e75b398ULL}},
    {PrMode::kSharded, Strategy::kSend, Fault::kHedge,
     {12, 88, 0, 0, 0, 0, 0, 0, 28, 10, 28, 0, 12, 12, 0,
      752.04757021545788, 235.12171091202597, 593.88127078866501,
      274, 28484.323815599499, 39822.029018716501,
      201, 0xa0fa5eccc6a0183bULL}},
    {PrMode::kSharded, Strategy::kSend, Fault::kDeadline,
     {12, 84, 0, 0, 0, 3, 3, 20, 0, 0, 0, 0, 12, 12, 0,
      465.01461212561236, 167.37427214468406, 306.84831269881943,
      240, 23046.112190856991, 31091.011157455156,
      188, 0x4c55833a9bc10632ULL}},
    {PrMode::kSharded, Strategy::kIsend, Fault::kCrash,
     {12, 104, 4, 21, 9, 0, 0, 0, 0, 0, 0, 1, 13, 12, 0,
      664.46524979309208, 250.84438804782113, 534.25481044165213,
      272, 25700.961848203609, 36738.933773769444,
      205, 0x52a458d2aae0d5d2ULL}},
    {PrMode::kSharded, Strategy::kIsend, Fault::kPartition,
     {12, 93, 0, 17, 9, 3, 0, 0, 0, 0, 0, 0, 12, 11, 0,
      504.60930364228108, 171.07285207169056, 346.44300421548814,
      250, 23731.090912148517, 32156.131749854074,
      192, 0xabdcef1d20645fffULL}},
    {PrMode::kSharded, Strategy::kIsend, Fault::kHedge,
     {12, 85, 0, 0, 0, 0, 0, 0, 28, 10, 28, 0, 12, 11, 0,
      2534.3894714524713, 454.92252835478439, 2376.2231720256782,
      270, 30078.255914462061, 48909.192826230777,
      200, 0x08f558fa2618d442ULL}},
    {PrMode::kSharded, Strategy::kIsend, Fault::kDeadline,
     {12, 86, 0, 0, 0, 3, 3, 19, 0, 0, 0, 0, 12, 11, 0,
      437.98454768659974, 154.15687098681246, 287.28713158168318,
      242, 23252.125658796434, 30756.189197614905,
      189, 0x06251653a57df812ULL}},
    {PrMode::kBrokered, Strategy::kRecv, Fault::kCrash,
     {12, 123, 2, 10, 2, 0, 0, 0, 0, 0, 0, 0, 12, 12, 0,
      400.73245141939321, 153.34809458012722, 253.10187814874962,
      279, 25886.869850019033, 33641.483721061712,
      180, 0x0cb854dc3f3cf81fULL}},
    {PrMode::kBrokered, Strategy::kRecv, Fault::kPartition,
     {12, 164, 0, 320, 31, 33, 0, 0, 0, 0, 0, 0, 12, 12, 0,
      410.98046525489156, 154.21480669790358, 263.34989198424796,
      321, 30464.36084967943, 38354.316471451035,
      244, 0x5f046d5271112b52ULL}},
    {PrMode::kBrokered, Strategy::kRecv, Fault::kHedge,
     {12, 131, 0, 0, 0, 0, 0, 0, 5, 4, 5, 0, 12, 12, 0,
      498.97788292430874, 208.13317357669385, 419.11460171288979,
      292, 30636.658182948831, 40996.612182943172,
      176, 0x0d5059297ce09e10ULL}},
    {PrMode::kBrokered, Strategy::kRecv, Fault::kDeadline,
     {12, 136, 0, 0, 0, 5, 5, 40, 0, 0, 0, 0, 12, 12, 0,
      390.00761468350242, 118.46897471990367, 213.53361049662811,
      292, 27406.05647730863, 34167.311774457339,
      193, 0x971be49bbc2ac6a0ULL}},
    {PrMode::kBrokered, Strategy::kSend, Fault::kCrash,
     {12, 134, 2, 10, 7, 0, 0, 0, 0, 0, 0, 1, 13, 12, 0,
      553.88967914451473, 196.29500508239892, 395.7233797177218,
      302, 27023.738645106932, 36214.717231153336,
      201, 0xc64068f424f17299ULL}},
    {PrMode::kBrokered, Strategy::kSend, Fault::kPartition,
     {12, 140, 0, 18, 8, 2, 0, 0, 0, 0, 0, 0, 12, 12, 0,
      463.50275042625361, 156.08927193120581, 315.87217715561002,
      296, 27610.35081475641, 35714.164754565987,
      194, 0x2c6b41331e9063e6ULL}},
    {PrMode::kBrokered, Strategy::kSend, Fault::kHedge,
     {12, 131, 0, 0, 0, 0, 0, 0, 19, 5, 19, 0, 12, 11, 0,
      506.4158389021124, 197.63557819891207, 348.24953947531947,
      306, 32815.647801720908, 43183.695050108909,
      194, 0x953424e0f68b2f32ULL}},
    {PrMode::kBrokered, Strategy::kSend, Fault::kDeadline,
     {12, 136, 0, 0, 0, 3, 3, 27, 0, 0, 0, 0, 12, 12, 0,
      422.65161527608598, 131.99363648077738, 275.02104200544238,
      292, 27934.96966950463, 35481.858720425254,
      194, 0xa11606aeeceb073eULL}},
    {PrMode::kBrokered, Strategy::kIsend, Fault::kCrash,
     {12, 135, 2, 10, 7, 0, 0, 0, 0, 0, 0, 1, 13, 13, 0,
      452.55309188212402, 198.43407399326782, 332.04148254837014,
      303, 27497.388263305595, 37031.238866502172,
      202, 0x48185a62cd280076ULL}},
    {PrMode::kBrokered, Strategy::kIsend, Fault::kPartition,
     {12, 137, 0, 9, 5, 1, 0, 0, 0, 0, 0, 0, 12, 12, 0,
      471.73463527507266, 155.48155022548426, 313.56833584827973,
      293, 27621.136880082024, 36150.785257316486,
      191, 0x210bdd75bbdc5c18ULL}},
    {PrMode::kBrokered, Strategy::kIsend, Fault::kHedge,
     {12, 130, 0, 0, 0, 0, 0, 0, 17, 5, 17, 0, 12, 11, 0,
      457.27379446973282, 197.01840881195778, 377.66863488542856,
      303, 32494.480180895753, 42881.457986981884,
      191, 0x19ac64ebd9b1b17eULL}},
    {PrMode::kBrokered, Strategy::kIsend, Fault::kDeadline,
     {12, 136, 0, 0, 0, 3, 3, 21, 0, 0, 0, 0, 12, 12, 0,
      436.10626330411202, 139.68134222429674, 288.47569003346842,
      292, 27791.772031769688, 35451.526655540183,
      193, 0xbdf5229c6e95d9efULL}},
    {PrMode::kBrokered, Strategy::kRecv, Fault::kBrokerCrash,
     {12, 142, 6, 26, 3, 0, 0, 0, 0, 0, 0, 2, 14, 13, 13,
      570.58623149359062, 227.63302804805991, 412.41993206679768,
      328, 30716.91087360575, 41114.182530334103,
      215, 0x0d4adbee20a864e6ULL}},
    {PrMode::kBrokered, Strategy::kRecv, Fault::kGroupWorkerCrash,
     {12, 128, 5, 11, 2, 0, 0, 0, 0, 0, 0, 1, 13, 12, 0,
      698.79375981308522, 274.97664965771037, 540.62746038629234,
      296, 27301.661370942569, 39845.201662769185,
      196, 0x27f67e03e653d6baULL}},
    {PrMode::kBrokered, Strategy::kSend, Fault::kBrokerCrash,
     {12, 152, 4, 27, 15, 0, 0, 0, 0, 0, 0, 2, 14, 14, 12,
      494.17871022269134, 235.14311055717198, 355.21027981130726,
      334, 31578.851476306605, 42638.255428991841,
      228, 0xa40b356b4ce7fd22ULL}},
    {PrMode::kBrokered, Strategy::kSend, Fault::kGroupWorkerCrash,
     {12, 131, 5, 7, 6, 0, 0, 0, 0, 0, 0, 1, 13, 12, 0,
      521.5028627624248, 219.77546981097944, 420.20015339479022,
      299, 27757.12305810094, 37684.592697862812,
      202, 0x3ca4edcdabb781e8ULL}},
    {PrMode::kBrokered, Strategy::kIsend, Fault::kBrokerCrash,
     {12, 150, 3, 23, 11, 0, 0, 0, 0, 0, 0, 2, 14, 14, 12,
      447.50590335345674, 211.13560616031683, 327.72842672570823,
      332, 32852.886433300519, 43069.294694317818,
      224, 0x235df4bf0d62606aULL}},
    {PrMode::kBrokered, Strategy::kIsend, Fault::kGroupWorkerCrash,
     {12, 134, 5, 7, 6, 0, 0, 0, 0, 0, 0, 1, 13, 11, 0,
      564.29721408305943, 215.4830424430659, 462.99450471542485,
      302, 27885.4626158682, 37985.706201355177,
      206, 0x9a5848d872a59f85ULL}},
};
// clang-format on

class StagePinningTest : public ::testing::TestWithParam<Case> {};

TEST_P(StagePinningTest, SupervisionIsBitIdentical) {
  const Case& c = GetParam();
  const Digest d = run_case(c);
  SCOPED_TRACE("actual row for " + case_name(c) + ":\n" + row(d));
  const Metrics& m = d.metrics;
  const Pin& e = c.expected;
  EXPECT_EQ(m.completed, e.completed);
  EXPECT_EQ(m.legs_spawned, e.legs_spawned);
  EXPECT_EQ(m.legs_lost, e.legs_lost);
  EXPECT_EQ(m.items_recovered, e.items_recovered);
  EXPECT_EQ(m.recovery_legs, e.recovery_legs);
  EXPECT_EQ(m.legs_unreachable, e.legs_unreachable);
  EXPECT_EQ(m.questions_degraded, e.questions_degraded);
  EXPECT_EQ(m.degraded_units_dropped, e.degraded_units_dropped);
  EXPECT_EQ(m.hedges_issued, e.hedges_issued);
  EXPECT_EQ(m.hedge_wins, e.hedge_wins);
  EXPECT_EQ(m.legs_cancelled, e.legs_cancelled);
  EXPECT_EQ(m.question_restarts, e.question_restarts);
  EXPECT_EQ(m.migrations_pr, e.migrations_pr);
  EXPECT_EQ(m.migrations_ap, e.migrations_ap);
  EXPECT_EQ(d.broker_reroutes, e.broker_reroutes);
  EXPECT_DOUBLE_EQ(m.makespan, e.makespan);
  EXPECT_DOUBLE_EQ(m.latencies.mean(), e.latency_mean);
  EXPECT_DOUBLE_EQ(m.latencies.max(), e.latency_max);
  EXPECT_EQ(d.spans, e.spans);
  EXPECT_DOUBLE_EQ(d.span_start_sum, e.span_start_sum);
  EXPECT_DOUBLE_EQ(d.span_end_sum, e.span_end_sum);
  EXPECT_EQ(d.trace.entries().size(), e.trace_entries);
  EXPECT_EQ(d.trace_hash, e.trace_hash);
}

TEST_P(StagePinningTest, FaultExercisesItsRecoveryPath) {
  const Case& c = GetParam();
  const Digest d = run_case(c);
  const Metrics& m = d.metrics;
  const auto seen = [&d](std::string_view text) {
    return d.trace.count_containing(text);
  };
  const char* pr_label =
      c.pr == PrMode::kBrokered ? "during brokered PR" : "during PR";
  EXPECT_EQ(m.completed, 12u);
  switch (c.fault) {
    case Fault::kCrash:
      // Both stages lose a leg to a crash and recover its work.
      EXPECT_GT(seen("lost contact with N"), 0u);
      EXPECT_GT(seen(pr_label), 0u);
      EXPECT_GT(seen("during AP"), 0u);
      EXPECT_GT(m.items_recovered, 0u);
      break;
    case Fault::kPartition:
      EXPECT_GT(seen("unreachable during"), 0u);
      EXPECT_GT(m.items_recovered, 0u);
      break;
    case Fault::kHedge:
      EXPECT_GT(seen("hedged AP leg"), 0u);
      EXPECT_GT(m.legs_cancelled, 0u);
      break;
    case Fault::kDeadline:
      EXPECT_GT(seen("deadline spent"), 0u);
      EXPECT_GT(m.questions_degraded, 0u);
      break;
    case Fault::kBrokerCrash:
      EXPECT_GT(seen("lost contact with broker"), 0u);
      EXPECT_GT(seen("re-routing group"), 0u);
      break;
    case Fault::kGroupWorkerCrash:
      EXPECT_GT(seen("during brokered PR"), 0u);
      EXPECT_GT(m.items_recovered, 0u);
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, StagePinningTest,
                         ::testing::ValuesIn(kCases),
                         [](const auto& info) {
                           return case_name(info.param);
                         });

}  // namespace
}  // namespace qadist::cluster
