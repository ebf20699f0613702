#pragma once

#include <array>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "broker/config.hpp"
#include "broker/topology.hpp"
#include "cache/config.hpp"
#include "cache/lru_cache.hpp"
#include "cluster/metrics.hpp"
#include "cluster/names.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "cluster/node.hpp"
#include "cluster/plan.hpp"
#include "cluster/trace.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "parallel/partition.hpp"
#include "sched/dispatcher.hpp"
#include "sched/failure_detector.hpp"
#include "sched/leg_latency.hpp"
#include "sched/load_table.hpp"
#include "sched/meta_scheduler.hpp"
#include "shard/config.hpp"
#include "shard/shard_map.hpp"
#include "simnet/event.hpp"
#include "simnet/gray_fault.hpp"
#include "simnet/link.hpp"
#include "simnet/link_fault.hpp"
#include "simnet/mailbox.hpp"
#include "simnet/process.hpp"
#include "simnet/simulation.hpp"
#include "simnet/task.hpp"

namespace qadist::cluster {

/// One scripted node crash. A crash halts the node's CPU and disk
/// mid-flight (in-progress work is lost, not paused), drops its load
/// broadcasts, and kills the questions it hosts. With `restart_after >= 0`
/// the node reboots empty that many seconds later and rejoins the pool
/// with its next broadcast.
struct FaultEvent {
  sched::NodeId node = 0;
  Seconds at = 0.0;
  Seconds restart_after = -1.0;  ///< < 0: the node stays down
};

/// Fault injection plan: scripted crashes, plus an optional random crash
/// process (exponential inter-crash gaps with mean `mtbf`, uniform victim)
/// driven by the system seed. A crash that would take down the last live
/// node is skipped (and counted in Metrics::crashes_skipped) so every run
/// can still drain.
struct FaultPlan {
  std::vector<FaultEvent> crashes;
  Seconds mtbf = 0.0;            ///< > 0 enables random crashes
  Seconds restart_after = -1.0;  ///< restart delay for random crashes

  [[nodiscard]] bool enabled() const { return !crashes.empty() || mtbf > 0.0; }
};

/// Reliability envelope for cluster RPCs over an unreliable link: bounded
/// retries with exponential backoff + jitter, and an optional per-question
/// deadline budget. Every send carries an idempotent sequence number, so a
/// duplicated frame or a retry of one whose ack was lost is deduplicated at
/// the receiver rather than processed twice.
struct ReliabilityConfig {
  /// Send attempts beyond the first before a peer is declared unreachable.
  std::size_t max_retries = 3;
  /// First retry waits backoff_base, doubling per attempt up to
  /// backoff_max, each scaled by (1 + backoff_jitter * U[0,1)) to
  /// de-synchronize competing retriers.
  Seconds backoff_base = 0.05;
  Seconds backoff_max = 1.0;
  double backoff_jitter = 0.5;
  /// Per-question time budget measured from submission. Once exceeded, the
  /// coordinator stops re-partitioning lost work and finishes with what it
  /// has, flagging the answer `degraded`. 0 disables the budget (recovery
  /// never gives up — matches the crash-only behavior of earlier builds).
  Seconds question_deadline = 0.0;
};

/// Shared-segment network and cluster-monitoring knobs.
struct NetworkConfig {
  /// Shared-segment Ethernet: all transfers fair-share this link.
  Bandwidth bandwidth = Bandwidth::from_mbps(100);
  /// Fixed cost of every remote transfer (TCP connection setup, RPC
  /// framing) on top of the bandwidth-shared byte time.
  Seconds per_message_overhead = 2e-3;
  std::size_t load_packet_bytes = 64;
  Seconds monitor_period = 1.0;
  Seconds membership_timeout = 3.0;
  /// Time constant for exponentially-damped load averages (the kernel
  /// loadavg the paper's monitors read is damped the same way). A Q/A task
  /// alternates disk-bound (PR) and CPU-bound (AP) phases tens of seconds
  /// long; damping makes the broadcast load reflect a node's *backlog*
  /// rather than which phase its tasks happen to be in, so the question
  /// dispatcher stops chasing phases (see bench_ablations, ablation A).
  Seconds load_smoothing_tau = 30.0;

  /// Link-level fault plan (drops, jitter, duplication, partitions).
  /// Disabled by default: fault-free runs are bit-identical to builds
  /// without the fault layer.
  simnet::LinkFaultPlan faults;
  /// Retry/backoff/deadline envelope, effective once `faults` is enabled.
  ReliabilityConfig reliability;
  /// Heartbeat failure detector: load broadcasts double as heartbeats, and
  /// a peer silent for this many monitor periods becomes kSuspect (it
  /// hardens into kDead at membership_timeout). Suspects are skipped by
  /// placement while any trusted node exists.
  double suspect_after_missed = 2.0;
  /// Detector-driven placement (skip suspects, mark stale load entries) is
  /// active whenever `faults` is enabled; set this to force it on for
  /// crash-only runs too. Default off so existing crash benches keep their
  /// timeout-only placement behavior bit-for-bit.
  bool detector_placement = false;
  /// Suspect-hint hysteresis (sched::FailureDetectorConfig::hint_hysteresis):
  /// after a heartbeat clears a hint-raised suspicion, further hints against
  /// that peer are suppressed for this long while its heartbeats stay
  /// current. Keeps a gray-slow (but lossless) node from flapping between
  /// alive and suspect on sporadic send failures. 0 disables the window —
  /// bit-identical to the pre-hysteresis detector.
  Seconds hint_hysteresis = 0.0;
};

/// Question-dispatcher knobs: the policy under test plus the thresholds of
/// the embedded PR/AP dispatchers.
struct DispatchConfig {
  Policy policy = Policy::kDqa;

  /// Under-load thresholds for the embedded dispatchers (paper Eq. 7-8:
  /// a node is under-loaded while its module load function is below the
  /// load one sub-task generates). The monitored load includes the
  /// deciding question's *own* current activity — roughly one
  /// question-load — so the defaults sit one unit above the
  /// single-sub-task values (0.68 for PR, 1.0 for AP).
  double pr_underload_threshold =
      sched::single_task_load(sched::kPrWeights) + 1.0;
  double ap_underload_threshold =
      sched::single_task_load(sched::kApWeights) + 1.0;
};

/// Intra-question partitioning knobs for the embedded PR/AP dispatchers.
struct PartitionConfig {
  /// PR partitioning strategy: kRecv (the paper's choice — collection
  /// processing cost varies too widely for weight-based partitioning) or
  /// kSend (the ablation). kIsend is rejected: collections are unranked.
  parallel::Strategy pr_strategy = parallel::Strategy::kRecv;

  /// AP partitioning strategy: any of the three.
  parallel::Strategy ap_strategy = parallel::Strategy::kRecv;
  std::size_t ap_chunk = 40;  ///< paragraphs per RECV chunk (paper Fig. 10)

  /// CPU floor per dispatched AP batch: each batch's AP module extracts and
  /// ranks its own top-N_a answer set before returning, regardless of batch
  /// size — "a constant number N_a of answers must be extracted from each
  /// chunk" (paper Sec. 4.1.2). This is what makes tiny RECV chunks
  /// expensive and produces the Figure 10 U-curve.
  Seconds per_batch_answer_cpu = 0.1;
};

/// What the dispatcher front door does with an arrival that finds the
/// cluster at its concurrency limit and the admission queue full.
enum class AdmissionPolicy {
  kReject,      ///< turn the new arrival away (fail fast)
  kShedOldest,  ///< drop the oldest queued question, queue the new one
  kDegrade,     ///< answer the new arrival from cache (or partial) now
};

[[nodiscard]] std::string_view to_string(AdmissionPolicy policy);

/// Admission control and load shedding at the DNS front door (extension;
/// disabled by default). With `max_concurrent == 0` every arrival starts
/// immediately — bit-identical to builds without admission control. With a
/// bound, at most `max_concurrent` questions execute concurrently; up to
/// `queue_capacity` more wait in FIFO order, and past that `policy`
/// decides. An open-loop arrival stream (workload/arrival.hpp) pushed past
/// saturation then sees bounded latency for admitted questions instead of
/// a queue growing without bound.
struct AdmissionConfig {
  std::size_t max_concurrent = 0;  ///< 0 = unlimited (admission off)
  std::size_t queue_capacity = 0;  ///< waiting room beyond max_concurrent
  AdmissionPolicy policy = AdmissionPolicy::kReject;
  /// Load-based shedding (0 = off): while sched::mean_pool_load over the
  /// QA weights exceeds this, arrivals skip the waiting room and go
  /// straight to `policy` — the queue must not mask a saturated pool.
  double load_threshold = 0.0;

  [[nodiscard]] bool enabled() const { return max_concurrent > 0; }
};

/// Tail-tolerance toolkit (extension; disabled by default). Gray nodes —
/// slow disk, throttled CPU — heartbeat happily while stretching every
/// fork-join question to their pace, so the failure detector never helps.
/// These are the mitigations that do:
///
///   * hedging: a stage leg still outstanding past a p95-based delay
///     (measured live from this run's own leg-completion times) gets a
///     backup issued to a second ready replica; first reply wins.
///   * tied requests: when one side of a hedge pair wins, the loser is
///     cancelled — its remaining CPU/disk reservation is released
///     immediately (simnet::FairShareServer::cancel) instead of grinding
///     to completion, and its span closes as a cancelled hedge loser so
///     attribution never double-counts the work.
///   * latency-aware selection: a per-node leg-latency EWMA feeds the
///     meta-scheduler; nodes whose EWMA exceeds `straggler_ratio` × the
///     pool's best are down-ranked like stale entries, steering new legs
///     away from slow-but-alive holders.
///
/// With `hedge` and `latency_aware` both false the entire toolkit is inert:
/// no bookkeeping, no extra wakeups — runs are bit-identical to the
/// pre-tail-tolerance system (pinned by test).
struct TailConfig {
  bool hedge = false;          ///< issue backup legs past the hedge delay
  bool tied = false;           ///< cancel the hedge loser's in-flight work
  bool latency_aware = false;  ///< EWMA-based straggler down-ranking

  /// Hedge trigger: a leg is hedged once outstanding longer than this
  /// quantile of the observed *per-unit* leg walls for its stage, scaled
  /// by the work the leg carries (legs differ wildly in size; an
  /// unnormalized wall quantile hedges big legs merely for being big)...
  double hedge_quantile = 0.95;
  /// ...but never sooner than this floor, and only after the stage has
  /// this many completed-leg observations to estimate the quantile from.
  Seconds hedge_min_delay = 0.5;
  std::size_t hedge_min_samples = 8;

  /// Leg-latency EWMA smoothing (weight of the newest observation).
  double ewma_alpha = 0.2;
  /// A node is a straggler while its per-unit leg-latency EWMA exceeds
  /// this multiple of the fastest node's EWMA.
  double straggler_ratio = 3.0;

  [[nodiscard]] bool enabled() const { return hedge || latency_aware; }
};

/// Cluster configuration, grouped by concern. (The transitional
/// FlatSystemConfig alias shipped for one release and is gone; address the
/// sub-structs directly.)
struct SystemConfig {
  std::size_t nodes = 12;
  NodeConfig node;
  /// Per-node CPU speed overrides (extension; empty = homogeneous). When
  /// set, entry i replaces node.cpu_speed for node i; must have exactly
  /// `nodes` entries.
  std::vector<double> node_cpu_speeds;
  /// Seed for the system's own randomized decisions (only kTwoChoice uses
  /// randomness; everything else is deterministic given the workload).
  std::uint64_t seed = 1;

  NetworkConfig net;
  DispatchConfig dispatch;
  PartitionConfig partition;
  /// Per-node answer/paragraph caches (see cache::CacheConfig). Disabled
  /// by default: uncached runs are bit-identical to the pre-cache system.
  /// With caching on, INTER/DQA route each question to the
  /// rendezvous-preferred node for its signature (the one most likely to
  /// hold its cached answer) unless that node is down or overloaded past
  /// the dispatcher's anti-ping-pong threshold; then the paper's
  /// load-based migration rule decides.
  cache::CacheConfig cache;
  /// Admission control / load shedding (see AdmissionConfig). Disabled by
  /// default: unbounded runs are bit-identical to the pre-admission system.
  AdmissionConfig admission;
  /// Fault injection (see FaultPlan). Empty by default: no crashes.
  FaultPlan faults;
  /// Scripted gray degradation (see simnet::GrayFaultPlan): per-node
  /// CPU/disk slowdown windows with optional per-transfer latency
  /// inflation, invisible to the failure detector. Empty by default: no
  /// gray windows, bit-identical to the pre-gray system.
  simnet::GrayFaultPlan gray;
  /// Corpus sharding / index replication (see shard::ShardConfig).
  /// Disabled by default: unsharded runs are bit-identical to the
  /// pre-shard system.
  shard::ShardConfig shard;
  /// Tail-tolerance toolkit (see TailConfig). Disabled by default:
  /// unhedged runs are bit-identical to the pre-tail-tolerance system.
  TailConfig tail;
  /// Selective search + broker/mediator tier (see broker::BrokerConfig).
  /// Both axes require sharding; disabled by default (brokers = 0,
  /// selectivity = 1.0): flat exhaustive runs are bit-identical to the
  /// pre-broker system (pinned by test).
  broker::BrokerConfig broker;
};

/// The distributed question answering system (paper Fig. 2/3) running on
/// the discrete-event simulator: N nodes with CPUs and disks, a shared
/// network, per-node load monitors broadcasting once a second, and a Q/A
/// task coroutine with the three scheduling points.
///
/// Usage: construct, `submit()` plans with arrival times, then `run()`.
/// Plans must outlive the run.
class System {
 public:
  System(simnet::Simulation& sim, const SystemConfig& config);
  ~System();

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Schedules a question for arrival at absolute sim time `at`. The DNS
  /// front-end assigns it round-robin over the nodes (paper Sec. 3.1).
  void submit(const QuestionPlan& plan, Seconds at);

  /// Membership dynamics (paper Sec. 3.1: "processors must be able to
  /// dynamically join or leave the system pool" — membership is purely
  /// broadcast-driven). A leaving node stops broadcasting at `at` and
  /// drops out of the pool once its last broadcast ages past the
  /// membership timeout; work already placed on it drains normally
  /// (graceful leave). A joining node starts broadcasting at `at` and is
  /// schedulable from its first packet.
  void schedule_leave(sched::NodeId node, Seconds at);
  void schedule_join(sched::NodeId node, Seconds at);

  /// Schedules a crash at absolute sim time `at` (in addition to whatever
  /// config().faults scripts). See FaultEvent for the crash semantics;
  /// `restart_after < 0` means the node stays down.
  void schedule_crash(sched::NodeId node, Seconds at,
                      Seconds restart_after = -1.0);

  /// Whether `node` is currently down from a fault (tests/benches).
  [[nodiscard]] bool node_crashed(sched::NodeId node) const {
    return node_crashed_.at(node) != 0;
  }

  /// Seeds the caches with this question's results before the run starts:
  /// the rendezvous-preferred node gets the answer and the accepted
  /// paragraphs, as if it had answered the question in a previous run.
  /// Benches use this to measure warm-cache throughput without paying a
  /// fill pass inside the measured interval. No-op when caching is off.
  void prewarm(const QuestionPlan& plan);

  /// The node cache-affinity dispatch prefers for this question when every
  /// node is live (rendezvous hash over the full pool); nullopt when the
  /// system has no caches configured. Tests use this to script crashes of
  /// the caching node.
  [[nodiscard]] std::optional<sched::NodeId> preferred_node(
      const QuestionPlan& plan) const;

  /// Whether `node` currently holds a fresh cached answer for `plan`
  /// (introspection only: does not promote or count a probe).
  [[nodiscard]] bool answer_cached(sched::NodeId node,
                                   const QuestionPlan& plan) const;

  /// Lifetime operation counts of one node's caches (zero-initialized
  /// stats when caching is off).
  [[nodiscard]] cache::CacheStats answer_cache_stats(
      sched::NodeId node) const;

  /// The shard placement map, when cfg.shard is enabled (tests/benches
  /// inspect placement and replica states); nullptr otherwise.
  [[nodiscard]] const shard::ShardMap* shard_map() const {
    return shard_map_.get();
  }

  /// Direct node access (metrics inspection in tests/benches).
  [[nodiscard]] Node& node(std::size_t index) { return *nodes_.at(index); }

  /// Optional Fig. 7-style execution trace (only wired when set). When a
  /// tracer is also set, the recorder is attached to it as the text sink,
  /// so both views render the same event stream.
  void set_trace(TraceRecorder* trace) {
    trace_ = trace;
    if (tracer_ != nullptr) tracer_->set_text_sink(trace);
  }

  /// Optional span tracer (obs/span.hpp): one span per question with child
  /// spans per stage (QP/PR/PS/PO/AP) and per PR/AP leg, instant events
  /// for migrations/crashes/recoveries, and a per-node CPU/disk
  /// utilization timeline sampled each monitor period. Must outlive run().
  /// Tracing off (the default) costs one pointer check per event site.
  void set_tracer(obs::Tracer* tracer) {
    tracer_ = tracer;
    if (tracer_ != nullptr && trace_ != nullptr) {
      tracer_->set_text_sink(trace_);
    }
  }

  /// The live metrics store this run measures into (see Metrics for the
  /// snapshot facade). Counters/gauges/histograms registered by System,
  /// Node, and the sched dispatchers all land here.
  [[nodiscard]] const obs::MetricsRegistry& registry() const {
    return registry_;
  }

  /// Runs the simulation until every submitted question completes and
  /// returns the measurements. Call exactly once.
  [[nodiscard]] Metrics run();

  [[nodiscard]] const sched::LoadTable& load_table() const { return table_; }
  [[nodiscard]] const SystemConfig& config() const { return config_; }

 private:
  struct QuestionState;  // per-question bookkeeping (defined in .cpp)
  struct LegSlot;        // coordinator/leg shared state (defined in .cpp)
  struct WorkerSlot;     // ... of a PR or AP worker leg
  struct BrokerSlot;     // ... of a broker-tier leg
  struct HedgeGroup;     // one hedge race: primary + backups (defined in .cpp)
  struct NodeCaches;     // per-node answer/paragraph caches (defined in .cpp)
  // Fork-join stages under supervise() (defined in .cpp): the supervision
  // state plus the hooks each stage supplies, and the four stages.
  struct FanOut;
  struct WorkerStage;      // host-coordinated PR/AP base
  struct PrStage;          // flat PR: RECV deque, SEND blocks or replicas
  struct ApStage;          // AP: RECV chunks, SEND/ISEND partitions
  struct BrokerStage;      // brokered PR on the host: one leg per group
  struct GroupStage;       // a broker's in-group PR workers

  simnet::SimProcess monitor_process(Node& node);
  simnet::SimProcess fault_process();
  simnet::SimProcess question_process(const QuestionPlan& plan,
                                      sched::NodeId dns_node,
                                      Seconds arrived);

  /// Admission front door, invoked at each question's arrival instant.
  /// With admission off this is a tail call into question_process; with it
  /// on, the arrival starts, waits, or is shed per AdmissionConfig.
  void on_arrival(const QuestionPlan& plan, sched::NodeId dns_node);
  /// Starts an admitted question and records its queue wait.
  void start_admitted(const QuestionPlan& plan, sched::NodeId dns_node,
                      Seconds arrived);
  /// Overflow handling for one arrival per the configured policy.
  void shed_arrival(const QuestionPlan& plan, sched::NodeId dns_node);
  /// kDegrade service: answers immediately from the preferred node's cache
  /// when possible (stale entries count), as a flagged partial otherwise.
  void complete_degraded(const QuestionPlan& plan, sched::NodeId dns_node);
  /// Completion hook under admission control: frees the execution slot and
  /// starts the next queued question, if any.
  void finish_admitted();
  /// Declares the run drained once every submitted question is accounted
  /// for (completed, rejected, or shed) — stops the monitor processes.
  void maybe_finish();

  /// Background re-replication after a holder crash: copies `shard` onto
  /// `target` from the rendezvous-best surviving ready replica, paying the
  /// source's disk read, the network transfer, the target's disk write,
  /// and the rebuild-bandwidth pacing floor. Aborts (idempotently) if the
  /// source pool or the target dies mid-copy.
  simnet::SimProcess rebuild_process(shard::ShardId shard,
                                     sched::NodeId target,
                                     std::size_t target_epoch);
  /// Rejoin re-validation: a restarted holder re-scans its stashed shard
  /// copies on disk before they serve retrieval again.
  simnet::SimProcess revalidate_process(sched::NodeId node,
                                        std::size_t epoch);

  /// The fork-join supervisor shared by every stage (PR, AP, the broker
  /// tier's host and in-group levels): waits on the stage's legs with a
  /// reply timeout, settles reports (first reply wins a hedge race),
  /// recovers work from unreachable legs or degrades it past the deadline,
  /// sweeps for crashed legs, issues hedge backups, and rescues a stranded
  /// shared queue. Everything stage-specific goes through FanOut's hooks.
  /// Resolves true once every leg is accounted for, false as soon as the
  /// coordinator itself turned zombie (a crashed or abandoned broker).
  simnet::Task<bool> supervise(FanOut& stage);

  /// The embedded PR/AP dispatcher (DQA only, paper Eq. 7-8): the nodes a
  /// stage runs on and their partition weights. Meta-schedules over the
  /// pool, drops nodes placement may not target, collapses to the heaviest
  /// node when partitioning is disabled, and counts `migrations` when the
  /// stage leaves the host. The host alone under other policies.
  struct StagePlacement {
    std::vector<sched::NodeId> nodes;
    std::vector<double> weights;
  };
  [[nodiscard]] StagePlacement place_stage(sched::NodeId host,
                                           const sched::LoadWeights& weights,
                                           double underload_threshold,
                                           sched::LegStage stage,
                                           obs::Counter& migrations);

  // Stage legs. Each leg shares a slot with its coordinator (pending and
  // in-flight work, completion flag) and reports its slot index on the
  // stage mailbox when done. A leg whose node crashes reports nothing:
  // the coordinator's reply timeout (recv_for membership_timeout) is what
  // detects the loss, mirroring a real scatter-gather over TCP.
  // `relay` is the node the leg talks to — the question host in the flat
  // star, the group's broker under the broker tier (keywords arrive from
  // it, result bytes ship back to it, and it pays the receive disk).
  simnet::SimProcess pr_leg(QuestionState& q,
                            std::shared_ptr<WorkerSlot> slot,
                            std::size_t index,
                            simnet::Mailbox<std::size_t>& reports,
                            sched::NodeId relay);
  simnet::SimProcess ap_leg(QuestionState& q,
                            std::shared_ptr<WorkerSlot> slot,
                            std::size_t index,
                            simnet::Mailbox<std::size_t>& reports);
  /// Broker-tier PR leg: ships the keywords to the group's broker, which
  /// scores/routes, fans the group's units out to in-group shard holders
  /// over the subtree link, supervises them (reply timeouts, in-group
  /// failover), merges their partials, and ships one aggregate back.
  simnet::SimProcess broker_leg(QuestionState& q,
                                std::shared_ptr<BrokerSlot> slot,
                                std::size_t index,
                                simnet::Mailbox<std::size_t>& reports);

  /// Where a ship() call's wall-clock went: time with frames on the wire
  /// (delivered or dropped) versus time sleeping between retry attempts.
  /// Pure bookkeeping for the critical-path attribution — accumulating it
  /// never changes the event sequence.
  struct ShipCost {
    Seconds transfer = 0.0;
    Seconds backoff = 0.0;
  };

  /// Reliable unicast: moves `bytes` from `src` to `dst` with bounded
  /// retries (exponential backoff + jitter) and an idempotent sequence
  /// number per logical message. Resolves true once delivered, false when
  /// the retry budget (or the question deadline, when set) is exhausted —
  /// the peer is then unreachable as far as this RPC is concerned. With no
  /// fault injector installed this is exactly one transfer (bit-identical
  /// fast path). A non-null `cost` accumulates the transfer/backoff split.
  simnet::Task<bool> ship(double bytes, sched::NodeId src, sched::NodeId dst,
                          Seconds deadline, ShipCost* cost = nullptr);

  /// Whether placement may target `node`: it must be up, and — when the
  /// failure detector drives placement — not currently suspected.
  [[nodiscard]] bool schedulable(sched::NodeId node) const;

  /// Whether the question's deadline budget (reliability.question_deadline)
  /// has passed; always false when the budget is disabled.
  [[nodiscard]] bool deadline_exceeded(const QuestionState& q) const;

  /// Least-loaded pool member that is actually up; falls back to any live
  /// node when the table is momentarily empty. A live node always exists
  /// (apply_crash never takes down the last one). Prefers unsuspected
  /// nodes when the detector drives placement.
  [[nodiscard]] sched::NodeId pick_live(
      const sched::LoadWeights& weights) const;
  /// Least-loaded non-crashed pool member other than `exclude`, preferring
  /// unsuspected members and members `stragglers` does not flag (hedge
  /// backups pass the stage's straggler mask); nullopt on an empty pool.
  [[nodiscard]] std::optional<sched::NodeId> least_loaded(
      const sched::LoadWeights& weights,
      std::optional<sched::NodeId> exclude = std::nullopt,
      std::span<const char> stragglers = {}) const;

  /// Rendezvous pick over the currently live pool members (the affinity
  /// dispatch target); nullopt when no live member is known yet.
  [[nodiscard]] std::optional<sched::NodeId> affinity_target(
      std::uint64_t signature) const;

  /// Replica-aware PR assignment (sharded mode only): partitions the given
  /// iterative units over schedulable ready holders of each unit's shard,
  /// weighted by the meta-schedule, least-assigned-first. Units whose
  /// shard has no schedulable ready holder land in `unplaced` — the
  /// question degrades by that much work.
  struct ShardAssignment {
    std::vector<std::pair<sched::NodeId, std::vector<std::size_t>>> legs;
    std::vector<std::size_t> unplaced;
  };
  [[nodiscard]] ShardAssignment assign_pr_units(
      std::span<const std::size_t> units,
      std::optional<sched::NodeId> exclude);

  /// The link a (src, dst) transfer rides. Flat star: the single shared
  /// LAN. Broker tier: endpoints in the same group share that group's
  /// subtree LAN; anything crossing groups rides the core backbone.
  [[nodiscard]] simnet::Link& link_for(sched::NodeId src,
                                       sched::NodeId dst) const;

  /// Collection selection (cfg.broker.selectivity / top_k): which PR
  /// iterative units this question will actually touch, plus the fraction
  /// of retrieval work kept (paragraph-weighted) — the AP stage is trimmed
  /// proportionally, since fewer retrieved paragraphs survive to scoring.
  /// With selection off (or not applicable) this is all units, fraction 1.
  struct SelectionResult {
    std::vector<std::size_t> units;  ///< ascending unit indices to run
    double kept_fraction = 1.0;      ///< selected / total paragraph work
    bool pruned = false;
  };
  [[nodiscard]] SelectionResult select_pr_units(const QuestionPlan& plan);

  void apply_crash(sched::NodeId node);
  void apply_restart(sched::NodeId node);

  /// Gray-fault schedule hooks (only wired when config().gray is enabled).
  /// Windows on one node may overlap; the effective degradation is the
  /// per-resource max over the node's open windows (recompute_gray), so a
  /// node recovers exactly when its last window closes.
  void apply_gray(std::size_t event_index);
  void clear_gray(sched::NodeId node, std::size_t event_index);
  void recompute_gray(sched::NodeId node);
  /// Extra one-way transfer delay from open gray windows on either
  /// endpoint; 0 whenever the plan is disabled (ship() fast path intact).
  [[nodiscard]] Seconds gray_extra_latency(sched::NodeId src,
                                           sched::NodeId dst) const;

  /// Tail-tolerance bookkeeping (all no-ops while config().tail is
  /// disabled). A completed leg's wall time feeds the per-stage hedge-delay
  /// estimate and the per-node per-unit EWMA behind straggler avoidance.
  /// Backup legs (`backup` true) feed only the EWMA: their walls start at
  /// the hedge, not the dispatch, and letting those short walls into the
  /// quantile pool drags the trigger down and over-hedges the next round.
  void observe_leg(sched::LegStage stage, sched::NodeId node, Seconds wall,
                   double units, bool backup = false);
  /// Current per-unit hedge trigger for a stage: the configured quantile
  /// of this run's observed per-unit leg walls. The supervisor scales it
  /// by each leg's unit count (and floors the product with
  /// hedge_min_delay) to get that leg's due time; nullopt until
  /// hedge_min_samples legs have completed.
  [[nodiscard]] std::optional<Seconds> hedge_delay(
      sched::LegStage stage) const;
  /// Straggler mask for meta_schedule(_among) when latency-aware selection
  /// is on; empty span otherwise (scheduling unchanged).
  [[nodiscard]] std::span<const char> straggler_mask(sched::LegStage stage);

  void record_trace(sched::NodeId node, std::string event);
  /// record_trace with structured attributes on the JSON event (the text
  /// view renders identically either way).
  void record_event(sched::NodeId node, std::string event, obs::Attrs attrs);

  /// Hot-path instrument handles, registered once at construction so the
  /// simulation never pays a name lookup. The Metrics facade is built from
  /// these (plus the registry's node gauges) when run() finishes.
  struct Instruments {
    obs::Counter* submitted = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* migrations_qa = nullptr;
    obs::Counter* migrations_pr = nullptr;
    obs::Counter* migrations_ap = nullptr;
    obs::Counter* crashes = nullptr;
    obs::Counter* crashes_skipped = nullptr;
    obs::Counter* legs_lost = nullptr;
    obs::Counter* items_recovered = nullptr;
    obs::Counter* recovery_legs = nullptr;
    obs::Counter* question_restarts = nullptr;
    obs::HistogramMetric* latency = nullptr;
    obs::HistogramMetric* recovery_latency = nullptr;
    obs::HistogramMetric* t_qp = nullptr;
    obs::HistogramMetric* t_pr = nullptr;
    obs::HistogramMetric* t_ps = nullptr;
    obs::HistogramMetric* t_po = nullptr;
    obs::HistogramMetric* t_ap = nullptr;
    obs::HistogramMetric* oh_keyword_send = nullptr;
    obs::HistogramMetric* oh_paragraph_receive = nullptr;
    obs::HistogramMetric* oh_paragraph_send = nullptr;
    obs::HistogramMetric* oh_answer_receive = nullptr;
    obs::HistogramMetric* oh_answer_sort = nullptr;
    obs::Counter* cache_hits = nullptr;        // answer cache
    obs::Counter* cache_misses = nullptr;
    obs::Counter* pr_cache_hits = nullptr;     // paragraph cache
    obs::Counter* pr_cache_misses = nullptr;
    obs::Counter* affinity_routes = nullptr;
    obs::Counter* affinity_fallbacks = nullptr;
    obs::Counter* net_retries = nullptr;       // unreliable-network layer
    obs::Counter* net_send_failures = nullptr;
    obs::Counter* legs_unreachable = nullptr;
    obs::Counter* questions_degraded = nullptr;
    obs::Counter* degraded_units_dropped = nullptr;
    obs::Counter* degraded_stale_served = nullptr;
    obs::Counter* shard_failovers = nullptr;   // shard subsystem
    obs::Counter* shard_rebuilds = nullptr;
    obs::Counter* shard_rebuild_bytes = nullptr;
    obs::Counter* shard_revalidations = nullptr;
    obs::Counter* shard_units_unserved = nullptr;
    obs::Counter* rejoin_cache_clears = nullptr;
    obs::HistogramMetric* shard_rebuild_seconds = nullptr;
    obs::Counter* questions_rejected = nullptr;  // admission control
    obs::Counter* questions_shed = nullptr;
    obs::Counter* admission_degraded = nullptr;
    obs::HistogramMetric* admission_wait = nullptr;
    obs::Counter* legs_spawned = nullptr;        // tail-tolerance toolkit
    obs::Counter* hedges_issued = nullptr;
    obs::Counter* hedge_wins = nullptr;
    obs::Counter* hedge_losses = nullptr;
    obs::Counter* legs_cancelled = nullptr;
    obs::Counter* straggler_avoidances = nullptr;
    obs::Counter* gray_onsets = nullptr;         // gray-fault schedule
    obs::Counter* gray_recoveries = nullptr;
    obs::Counter* selection_questions_pruned = nullptr;  // selective search
    obs::Counter* selection_units_pruned = nullptr;
    obs::Counter* selection_ap_units_pruned = nullptr;
    obs::Counter* selection_fallback_all = nullptr;
    obs::HistogramMetric* selection_shards_selected = nullptr;
    obs::Counter* broker_legs = nullptr;         // broker/mediator tier
    obs::Counter* broker_reroutes = nullptr;
    obs::Counter* broker_unreachable = nullptr;
    obs::Counter* broker_load_relays = nullptr;
  };
  void register_instruments();
  /// Folds per-node CacheStats (evictions, expirations, invalidations,
  /// occupancy) into the registry — called once at the end of run().
  void publish_cache_stats();
  /// Folds the fault injector's and failure detector's lifetime tallies
  /// (drops, duplicates, suspicions, rejoins) into the registry — called
  /// once at the end of run().
  void publish_net_stats();
  /// Publishes per-node storage gauges from the shard map — called once at
  /// the end of run() when sharding is enabled.
  void publish_shard_stats();

  simnet::Simulation& sim_;
  SystemConfig config_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<NodeCaches>> caches_;  // empty: caching off
  std::vector<char> node_broadcasting_;  // membership: monitor active?
  std::vector<char> node_crashed_;       // fault state: node currently down?
  std::vector<std::size_t> crash_epoch_;  // bumped per crash (zombie detection)
  /// Crashes so far (the sum of crash_epoch_): a supervised stage whose
  /// last reply-timeout sweep saw the same count has no crashed leg to
  /// find.
  std::uint64_t crash_count_ = 0;
  std::vector<Seconds> crash_time_;       // last crash time per node
  std::unique_ptr<simnet::Link> network_;
  /// Broker-tier wiring (both empty in the flat star): the hierarchy's
  /// node grouping, the host<->broker core backbone, and one subtree LAN
  /// per group. The flat `network_` stays allocated but unused when the
  /// tier is on.
  std::optional<broker::Topology> topology_;
  std::unique_ptr<simnet::Link> core_link_;
  std::vector<std::unique_ptr<simnet::Link>> subtree_links_;
  std::unique_ptr<simnet::LinkFaultInjector> injector_;  // null: faults off
  std::unique_ptr<shard::ShardMap> shard_map_;  // null: sharding off
  bool shard_partial_ = false;  // R < nodes: replica-aware scheduling on
  sched::FailureDetector detector_;
  bool detector_placement_ = false;
  sched::LoadTable table_;
  /// Tail-tolerance state (untouched while config().tail is disabled).
  sched::LegLatencyTracker leg_latency_;
  /// Per-stage hedge_quantile of the primary per-unit leg walls.
  std::array<RunningQuantile, sched::kLegStages> leg_walls_;
  std::vector<char> straggler_scratch_;
  /// Gray-fault state (empty when disabled): per-node effective extra
  /// link latency, and which plan events are currently open per node.
  std::vector<Seconds> gray_extra_latency_;
  std::vector<std::vector<std::size_t>> gray_open_;
  obs::MetricsRegistry registry_;
  Instruments ins_;
  TraceRecorder* trace_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  std::vector<simnet::UtilizationProbe> cpu_probes_;
  std::vector<simnet::UtilizationProbe> disk_probes_;
  Rng two_choice_rng_{1};
  Rng net_rng_{1};  // backoff jitter (own stream: retries never perturb
                    // the two-choice draw sequence)
  std::uint64_t next_msg_seq_ = 0;  // idempotency tokens for ship()
  sched::NodeId next_dns_node_ = 0;
  Seconds first_submit_ = 0.0;
  Seconds makespan_ = 0.0;
  bool all_done_ = false;
  bool started_ = false;

  /// Admission state (untouched when config().admission is disabled).
  struct QueuedArrival {
    const QuestionPlan* plan = nullptr;
    sched::NodeId dns_node = 0;
    Seconds arrived = 0.0;
  };
  std::deque<QueuedArrival> admission_queue_;
  std::size_t executing_ = 0;          ///< questions currently in flight
  std::size_t admission_queue_peak_ = 0;
};

}  // namespace qadist::cluster
