#include "cluster/system.hpp"
#include <cmath>

#include <algorithm>
#include <utility>

#include "broker/cori.hpp"
#include "cache/affinity.hpp"
#include "cache/question_key.hpp"
#include "common/check.hpp"
#include "common/strings.hpp"

namespace qadist::cluster {

using parallel::Strategy;
using sched::NodeId;

namespace {
constexpr std::size_t kNoUnit = static_cast<std::size_t>(-1);

/// Answer-cache resident: what a hit must reproduce is the final answer
/// payload; everything else about the question is recomputable from it.
struct CachedAnswer {
  std::size_t answer_bytes = 0;
};

/// Paragraph-cache resident: presence is the value — a hit means the
/// accepted, scored paragraphs are already on this node's disk, so the
/// PR stage (and its fused scoring) is skipped.
struct CachedParagraphs {};

/// Byte footprint an answer occupies in the cache (key + payload).
std::size_t answer_footprint(const std::string& key,
                             const QuestionPlan& plan) {
  return key.size() + plan.answer_bytes;
}

/// Byte footprint of the cached paragraph set: the scored paragraph text
/// every PR unit would ship to the host.
std::size_t paragraph_footprint(const std::string& key,
                                const QuestionPlan& plan) {
  std::size_t bytes = key.size();
  for (const auto& unit : plan.pr_units) bytes += unit.bytes_out;
  return bytes;
}

/// FairShareServer::consume with a parking spot: while the coroutine is in
/// service, the (server, handle) pair sits in the leg slot's busy cell so a
/// tied-hedge coordinator can cancel the reservation mid-flight (see
/// FairShareServer::cancel). Suspension-wise identical to ConsumeAwaiter —
/// same await_ready condition, same enqueue — so routing a consume through
/// this awaiter never changes the event sequence.
class [[nodiscard]] CancellableConsume {
 public:
  CancellableConsume(simnet::FairShareServer& server, double work,
                     simnet::FairShareServer*& server_cell,
                     std::coroutine_handle<>& handle_cell)
      : server_(server),
        work_(work),
        server_cell_(server_cell),
        handle_cell_(handle_cell) {}
  bool await_ready() const noexcept { return work_ <= 0.0; }
  void await_suspend(std::coroutine_handle<> h) {
    server_cell_ = &server_;
    handle_cell_ = h;
    server_.enqueue(work_, h);
  }
  void await_resume() noexcept { server_cell_ = nullptr; }

 private:
  simnet::FairShareServer& server_;
  double work_;
  simnet::FairShareServer*& server_cell_;
  std::coroutine_handle<>& handle_cell_;
};
}  // namespace

/// Per-question bookkeeping shared between the main task coroutine and its
/// PR/AP leg coroutines. Lives in the question_process frame, so legs may
/// only touch it while the coordinator is still waiting on them (a leg
/// whose node crashed must exit without reading it — see pr_leg).
struct System::QuestionState {
  const QuestionPlan* plan = nullptr;
  NodeId host = 0;
  Seconds submitted = 0.0;

  // Stage timings (paper Table 8 columns).
  double t_qp = 0.0;
  double t_pr_stage = 0.0;
  double t_ps_max = 0.0;  // scoring time on the slowest PR leg
  double t_po = 0.0;
  double t_ap_stage = 0.0;

  // Overhead components (paper Table 9 columns).
  double oh_keyword_send = 0.0;
  double oh_paragraph_receive = 0.0;
  double oh_paragraph_send = 0.0;
  double oh_answer_receive = 0.0;
  double oh_answer_sort = 0.0;

  /// Absolute deadline (submitted + reliability.question_deadline); 0 when
  /// the budget is disabled.
  Seconds deadline = 0.0;
  /// Work lost to an unreachable peer was dropped instead of re-partitioned
  /// because the deadline budget was spent: the answer is partial.
  bool degraded = false;
};

/// Coordinator/leg shared state for one PR leg. Held by shared_ptr from
/// both sides: the leg outlives the coordinator frame when its node
/// crashes (the coordinator recovers and moves on while the zombie
/// coroutine drains its pending resumptions), so everything the zombie may
/// still touch lives here or in the System.
struct System::PrLegSlot {
  NodeId node = 0;
  std::size_t epoch = 0;  // crash_epoch_[node] at spawn
  /// Pending sub-collections: the stage-shared deque under RECV (legs
  /// compete), a private deque under SEND (the shipped block).
  std::shared_ptr<std::deque<std::size_t>> units;
  std::size_t in_flight = kNoUnit;  // popped, results not yet on the host
  bool reported = false;
  bool declared_dead = false;
  /// The leg gave up on a send (retry budget spent): its node is alive but
  /// unreachable. Set together with `reported`; pending units stay in the
  /// slot for the coordinator to re-partition or drop.
  bool unreachable = false;
  /// Stage span the leg nests under, and the leg's own span. The leg opens
  /// leg_span eagerly and closes it on normal completion; a crashed leg is
  /// a zombie that must not report, so the *coordinator* closes its span
  /// (crashed=1) when the liveness sweep declares the leg dead.
  obs::SpanId stage_span = obs::kNoSpan;
  obs::SpanId leg_span = obs::kNoSpan;

  // --- Tail-tolerance fields (all inert under the default cfg.tail) ---
  Seconds spawned = 0.0;  ///< spawn instant: hedge-trigger + leg-wall basis
  std::size_t done = 0;   ///< units completed so far (latency observation)
  bool hedge_backup = false;  ///< this leg is a hedge backup, work is a copy
  bool hedged = false;  ///< a backup was already issued (or declined) for it
  /// Lost the hedge race. Checked next to the crash epoch after every
  /// co_await: an abandoned leg is a zombie by the same contract — its span
  /// was already closed by the coordinator, its work is covered by the
  /// winner, and it must exit without touching q or reports.
  bool abandoned = false;
  std::shared_ptr<HedgeGroup> group;  ///< the race this leg belongs to
  /// Reservation currently held (tied mode routes consumes through
  /// CancellableConsume), so abandonment can release it mid-service.
  simnet::FairShareServer* busy_server = nullptr;
  std::coroutine_handle<> busy_handle{};

  /// Keeps the report mailbox alive for broker-spawned legs: the inner
  /// mailbox lives in the BrokerSlot, whose coordinator can vanish (broker
  /// crash) while an abandoned worker still runs — the worker's own slot
  /// then holds the last reference, so its final reports.send never
  /// dangles. Null for host-spawned legs (the host drains before exit).
  std::shared_ptr<void> keepalive;
};

/// Coordinator/leg shared state for one AP leg. Exactly one of `chunks`
/// (RECV self-scheduling) or `units` (SEND/ISEND fixed partition) is
/// active. RECV loses at most the in-flight chunk on a crash (answers ship
/// per chunk); SEND/ISEND lose the whole partition (answers ship once at
/// the end).
struct System::ApLegSlot {
  NodeId node = 0;
  std::size_t epoch = 0;
  std::vector<std::size_t> units;
  std::shared_ptr<std::deque<parallel::Chunk>> chunks;
  parallel::Chunk in_flight{};
  bool has_in_flight = false;
  bool reported = false;
  bool declared_dead = false;
  bool unreachable = false;  // see PrLegSlot
  obs::SpanId stage_span = obs::kNoSpan;  // see PrLegSlot
  obs::SpanId leg_span = obs::kNoSpan;

  // --- Tail-tolerance fields — see PrLegSlot ---
  Seconds spawned = 0.0;
  std::size_t done = 0;  ///< paragraphs processed so far
  bool hedge_backup = false;
  bool hedged = false;
  bool abandoned = false;
  std::shared_ptr<HedgeGroup> group;
  simnet::FairShareServer* busy_server = nullptr;
  std::coroutine_handle<> busy_handle{};
};

/// One hedge race: the primary leg plus the backup leg(s) issued against it
/// after the hedge delay elapsed. First member to report wins; the
/// coordinator closes the losers' spans (hedge_loser=1), releases their
/// reservations in tied mode, and stops waiting on them. `covered` /
/// `covered_chunk` record the work snapshot the backups re-run: anything a
/// shared-queue primary picked up *after* the snapshot is not covered and
/// is requeued when the primary is abandoned.
struct System::HedgeGroup {
  std::vector<std::size_t> members;  ///< slot indices (primary first)
  std::vector<std::size_t> covered;  ///< PR units the backups re-run
  parallel::Chunk covered_chunk{};   ///< AP RECV chunk the backups re-run
  bool has_covered_chunk = false;
  bool resolved = false;             ///< a winner was recorded
};

/// Coordinator/broker shared state for one broker-tier PR leg. The host
/// fans the question's selected units out per broker group; the group's
/// broker routes them to in-group shard holders, supervises those inner
/// legs on its own mailbox, merges their partials, and ships one aggregate
/// back. Shared ownership mirrors PrLegSlot: a zombie broker coroutine may
/// only touch this slot and System members.
struct System::BrokerSlot {
  NodeId node = 0;        ///< node carrying the group's brokering duty
  std::size_t epoch = 0;  ///< crash_epoch_[node] at spawn
  std::size_t group = 0;  ///< topology group this leg covers
  /// The group's selected PR units. Kept whole (not drained): a broker
  /// loss loses the partials merged on it, so the host re-routes the full
  /// slice through an acting broker.
  std::vector<std::size_t> units;
  double bytes_out = 0.0;    ///< merged candidate bytes to ship to the host
  std::size_t unserved = 0;  ///< units dropped in-subtree (degraded)
  std::size_t done = 0;      ///< units completed in the subtree
  bool reported = false;
  bool declared_dead = false;
  bool unreachable = false;  // see PrLegSlot
  bool abandoned = false;
  obs::SpanId stage_span = obs::kNoSpan;
  obs::SpanId leg_span = obs::kNoSpan;  // closed by the host on broker loss
  Seconds spawned = 0.0;
  /// Inner report mailbox + the worker slots it serves. Owned here (not in
  /// the coroutine frame) so workers can outlive a crashed broker — each
  /// worker slot holds a keepalive reference to the mailbox.
  std::shared_ptr<simnet::Mailbox<std::size_t>> inner;
  std::vector<std::shared_ptr<PrLegSlot>> workers;
};

/// Per-node cache shards. One pair per node, like the CPUs and disks: a
/// question probes the caches of the node it landed on, which is what the
/// affinity dispatch exists to make the right node.
struct System::NodeCaches {
  cache::LruTtlCache<CachedAnswer> answers;
  cache::LruTtlCache<CachedParagraphs> paragraphs;

  explicit NodeCaches(const cache::CacheConfig& config)
      : answers(config.answers), paragraphs(config.paragraphs) {}
};

System::System(simnet::Simulation& sim, const SystemConfig& config)
    : sim_(sim), config_(config) {
  QADIST_CHECK(config.nodes >= 1);
  QADIST_CHECK(config.partition.pr_strategy != Strategy::kIsend,
               << "ISEND does not apply to PR: collections are unranked "
                  "(paper Sec. 6.3)");
  QADIST_CHECK(config.node_cpu_speeds.empty() ||
                   config.node_cpu_speeds.size() == config.nodes,
               << "node_cpu_speeds arity mismatch");
  nodes_.reserve(config.nodes);
  for (NodeId id = 0; id < config.nodes; ++id) {
    NodeConfig node_config = config.node;
    if (!config.node_cpu_speeds.empty()) {
      node_config.cpu_speed = config.node_cpu_speeds[id];
    }
    nodes_.push_back(std::make_unique<Node>(sim, id, node_config));
  }
  if (config.cache.enabled()) {
    caches_.reserve(config.nodes);
    for (std::size_t i = 0; i < config.nodes; ++i) {
      caches_.push_back(std::make_unique<NodeCaches>(config.cache));
    }
  }
  node_broadcasting_.assign(config.nodes, 1);
  node_crashed_.assign(config.nodes, 0);
  crash_epoch_.assign(config.nodes, 0);
  crash_time_.assign(config.nodes, 0.0);
  two_choice_rng_.reseed(config.seed);
  // Own streams for the fault layer, decorrelated from the two-choice
  // draws by splitmix64-style constants, so enabling faults never perturbs
  // the workload's random decisions.
  net_rng_.reseed(config.seed ^ 0xbf58476d1ce4e5b9ULL);
  network_ = std::make_unique<simnet::Link>(
      sim, "lan", config.net.bandwidth, config.net.per_message_overhead);
  if (config.net.faults.enabled()) {
    injector_ = std::make_unique<simnet::LinkFaultInjector>(
        config.net.faults, config.seed ^ 0x94d049bb133111ebULL);
    network_->set_fault_injector(injector_.get());
  }
  sched::FailureDetectorConfig detector_config{
      config.net.monitor_period, config.net.suspect_after_missed,
      config.net.membership_timeout};
  detector_config.hint_hysteresis = config.net.hint_hysteresis;
  detector_ = sched::FailureDetector(detector_config);
  detector_placement_ =
      config.net.detector_placement || config.net.faults.enabled();
  if (config.tail.enabled()) {
    leg_latency_ =
        sched::LegLatencyTracker(config.nodes, config.tail.ewma_alpha);
    leg_walls_.fill(RunningQuantile(config.tail.hedge_quantile));
  }
  if (config.gray.enabled()) {
    gray_extra_latency_.assign(config.nodes, 0.0);
    gray_open_.assign(config.nodes, {});
    for (const auto& event : config.gray.events) {
      QADIST_CHECK(event.node < config.nodes,
                   << "gray fault targets unknown node " << event.node);
      QADIST_CHECK(std::isfinite(event.at) && event.at >= 0.0,
                   << "gray fault onset time must be finite and >= 0, got "
                   << event.at);
      QADIST_CHECK(!std::isnan(event.recover_after),
                   << "gray fault recover_after must not be NaN");
      QADIST_CHECK(std::isfinite(event.cpu_factor) &&
                       std::isfinite(event.disk_factor) &&
                       event.cpu_factor > 0.0 && event.disk_factor > 0.0,
                   << "gray factors must be positive and finite, got cpu="
                   << event.cpu_factor << " disk=" << event.disk_factor);
      QADIST_CHECK(std::isfinite(event.extra_latency) &&
                       event.extra_latency >= 0.0,
                   << "gray extra_latency must be finite and >= 0, got "
                   << event.extra_latency);
    }
  }
  // Selective search + broker/mediator tier (cfg.broker). Both axes
  // require a sharded corpus — selection scores shards, the tier routes by
  // shard group — and both are off by default: flat runs build no extra
  // links and take no new branches (bit-identical, pinned by test).
  const bool tier_on = config.broker.tier_enabled();
  const bool selection_on =
      config.broker.selection_enabled(config.shard.num_shards);
  if (tier_on || selection_on) {
    QADIST_CHECK(config.shard.enabled(),
                 << "cfg.broker requires a sharded corpus "
                    "(cfg.shard.num_shards > 0)");
    QADIST_CHECK(config.broker.selectivity > 0.0 &&
                     config.broker.selectivity <= 1.0,
                 << "cfg.broker.selectivity must be in (0, 1], got "
                 << config.broker.selectivity);
  }
  if (selection_on && config.broker.stats != nullptr) {
    QADIST_CHECK(config.broker.stats->num_shards() == config.shard.num_shards,
                 << "cfg.broker.stats covers "
                 << config.broker.stats->num_shards() << " shards but "
                 << "cfg.shard.num_shards is " << config.shard.num_shards);
  }
  if (tier_on) {
    QADIST_CHECK(config.broker.brokers <= config.nodes,
                 << "cfg.broker.brokers (" << config.broker.brokers
                 << ") exceeds the node count (" << config.nodes << ")");
    topology_.emplace(config.nodes, config.broker.brokers);
    // Two-level fabric: one subtree LAN per group (same spec as the flat
    // LAN) plus a core backbone between groups. The flat network_ keeps
    // serving runs without the tier; link_for() picks per transfer.
    core_link_ = std::make_unique<simnet::Link>(
        sim, "core", config.broker.core_bandwidth,
        config.net.per_message_overhead);
    subtree_links_.reserve(config.broker.brokers);
    for (std::size_t g = 0; g < config.broker.brokers; ++g) {
      subtree_links_.push_back(std::make_unique<simnet::Link>(
          sim, "subtree" + std::to_string(g), config.net.bandwidth,
          config.net.per_message_overhead));
    }
    if (injector_ != nullptr) {
      core_link_->set_fault_injector(injector_.get());
      for (const auto& link : subtree_links_) {
        link->set_fault_injector(injector_.get());
      }
    }
  }
  if (config.shard.enabled()) {
    if (topology_.has_value()) {
      // Group-constrained placement: each shard lives (and fails over)
      // inside its broker group's subtree, so a broker resolves every
      // shard of its group without crossing the core.
      std::vector<std::pair<shard::NodeId, shard::NodeId>> pools;
      pools.reserve(config.shard.num_shards);
      for (std::size_t s = 0; s < config.shard.num_shards; ++s) {
        const auto [first, last] =
            topology_->group_range(topology_->group_of_shard(s));
        pools.emplace_back(static_cast<shard::NodeId>(first),
                           static_cast<shard::NodeId>(last));
      }
      shard_map_ = std::make_unique<shard::ShardMap>(
          config.shard.num_shards, config.nodes,
          config.shard.effective_replication(config.nodes), pools);
    } else {
      shard_map_ = std::make_unique<shard::ShardMap>(
          config.shard.num_shards, config.nodes,
          config.shard.effective_replication(config.nodes));
    }
    // R = nodes: every node holds every shard, placement is unconstrained,
    // and the legacy scheduling path runs unchanged (bit-compatible with
    // full replication) — only the storage accounting is published. The
    // broker tier and collection selection both force the replica-aware
    // scatter: group placement and pruned unit sets need assign_pr_units
    // even under full replication.
    shard_partial_ =
        config.shard.partial(config.nodes) || tier_on || selection_on;
  }
  register_instruments();
  cpu_probes_.reserve(config.nodes);
  disk_probes_.reserve(config.nodes);
  for (const auto& node : nodes_) {
    node->attach_registry(registry_);
    cpu_probes_.emplace_back(node->cpu());
    disk_probes_.emplace_back(node->disk());
  }
}

void System::register_instruments() {
  ins_.submitted = &registry_.counter("questions_submitted");
  ins_.completed = &registry_.counter("questions_completed");
  ins_.migrations_qa = &registry_.counter("migrations", {{"stage", "qa"}});
  ins_.migrations_pr = &registry_.counter("migrations", {{"stage", "pr"}});
  ins_.migrations_ap = &registry_.counter("migrations", {{"stage", "ap"}});
  ins_.crashes = &registry_.counter("crashes");
  ins_.crashes_skipped = &registry_.counter("crashes_skipped");
  ins_.legs_lost = &registry_.counter("legs_lost");
  ins_.items_recovered = &registry_.counter("items_recovered");
  ins_.recovery_legs = &registry_.counter("recovery_legs");
  ins_.question_restarts = &registry_.counter("question_restarts");
  ins_.latency = &registry_.histogram("question_latency_seconds");
  ins_.recovery_latency = &registry_.histogram("recovery_latency_seconds");
  ins_.t_qp = &registry_.histogram("stage_seconds", {{"stage", "qp"}});
  ins_.t_pr = &registry_.histogram("stage_seconds", {{"stage", "pr"}});
  ins_.t_ps = &registry_.histogram("stage_seconds", {{"stage", "ps"}});
  ins_.t_po = &registry_.histogram("stage_seconds", {{"stage", "po"}});
  ins_.t_ap = &registry_.histogram("stage_seconds", {{"stage", "ap"}});
  ins_.oh_keyword_send =
      &registry_.histogram("overhead_seconds", {{"component", "keyword_send"}});
  ins_.oh_paragraph_receive = &registry_.histogram(
      "overhead_seconds", {{"component", "paragraph_receive"}});
  ins_.oh_paragraph_send = &registry_.histogram(
      "overhead_seconds", {{"component", "paragraph_send"}});
  ins_.oh_answer_receive = &registry_.histogram(
      "overhead_seconds", {{"component", "answer_receive"}});
  ins_.oh_answer_sort =
      &registry_.histogram("overhead_seconds", {{"component", "answer_sort"}});
  // Registered even when caching is off, so the registry schema (and the
  // Metrics view built from it) is stable across configurations.
  ins_.cache_hits = &registry_.counter("cache_hits", {{"cache", "answers"}});
  ins_.cache_misses =
      &registry_.counter("cache_misses", {{"cache", "answers"}});
  ins_.pr_cache_hits =
      &registry_.counter("cache_hits", {{"cache", "paragraphs"}});
  ins_.pr_cache_misses =
      &registry_.counter("cache_misses", {{"cache", "paragraphs"}});
  ins_.affinity_routes = &registry_.counter("affinity_routes");
  ins_.affinity_fallbacks = &registry_.counter("affinity_fallbacks");
  // Unreliable-network layer. Registered unconditionally (like the cache
  // counters) so the registry schema is stable across configurations.
  ins_.net_retries = &registry_.counter("net_retries");
  ins_.net_send_failures = &registry_.counter("net_send_failures");
  ins_.legs_unreachable = &registry_.counter("legs_unreachable");
  ins_.questions_degraded = &registry_.counter("questions_degraded");
  ins_.degraded_units_dropped = &registry_.counter("degraded_units_dropped");
  ins_.degraded_stale_served = &registry_.counter("degraded_stale_served");
  // Shard subsystem. Registered unconditionally, like the layers above.
  ins_.shard_failovers = &registry_.counter("shard_failovers");
  ins_.shard_rebuilds = &registry_.counter("shard_rebuilds");
  ins_.shard_rebuild_bytes = &registry_.counter("shard_rebuild_bytes");
  ins_.shard_revalidations = &registry_.counter("shard_revalidations");
  ins_.shard_units_unserved = &registry_.counter("shard_units_unserved");
  ins_.rejoin_cache_clears = &registry_.counter("rejoin_cache_clears");
  ins_.shard_rebuild_seconds = &registry_.histogram("shard_rebuild_seconds");
  // Admission control. Registered unconditionally, like the layers above.
  ins_.questions_rejected = &registry_.counter("questions_rejected");
  ins_.questions_shed = &registry_.counter("questions_shed");
  ins_.admission_degraded = &registry_.counter("admission_degraded");
  ins_.admission_wait = &registry_.histogram("admission_wait_seconds");
  // Tail-tolerance toolkit + gray faults. Registered unconditionally, like
  // the layers above.
  ins_.legs_spawned = &registry_.counter("legs_spawned");
  ins_.hedges_issued = &registry_.counter("hedges_issued");
  ins_.hedge_wins = &registry_.counter("hedge_wins");
  ins_.hedge_losses = &registry_.counter("hedge_losses");
  ins_.legs_cancelled = &registry_.counter("legs_cancelled");
  ins_.straggler_avoidances = &registry_.counter("straggler_avoidances");
  ins_.gray_onsets = &registry_.counter("gray_onsets");
  ins_.gray_recoveries = &registry_.counter("gray_recoveries");
  // Selective search + broker tier. Registered unconditionally, like the
  // layers above.
  ins_.selection_questions_pruned =
      &registry_.counter("selection_questions_pruned");
  ins_.selection_units_pruned = &registry_.counter("selection_units_pruned");
  ins_.selection_ap_units_pruned =
      &registry_.counter("selection_ap_units_pruned");
  ins_.selection_fallback_all = &registry_.counter("selection_fallback_all");
  ins_.selection_shards_selected =
      &registry_.histogram("selection_shards_selected");
  ins_.broker_legs = &registry_.counter("broker_legs");
  ins_.broker_reroutes = &registry_.counter("broker_reroutes");
  ins_.broker_unreachable = &registry_.counter("broker_unreachable");
  ins_.broker_load_relays = &registry_.counter("broker_load_relays");
}

System::~System() = default;

std::string_view to_string(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kReject:
      return "REJECT";
    case AdmissionPolicy::kShedOldest:
      return "SHED-OLDEST";
    case AdmissionPolicy::kDegrade:
      return "DEGRADE";
  }
  QADIST_UNREACHABLE("bad AdmissionPolicy");
}

void System::record_trace(NodeId node, std::string event) {
  record_event(node, std::move(event), {});
}

void System::record_event(NodeId node, std::string event, obs::Attrs attrs) {
  // With a tracer wired, the instant event IS the record — the attached
  // TraceRecorder (text sink) receives the rendering from the same call.
  if (tracer_ != nullptr) {
    tracer_->instant(sim_.now(), node, std::move(event), std::move(attrs));
    return;
  }
  if (trace_ != nullptr) trace_->record(sim_.now(), node, std::move(event));
}

void System::submit(const QuestionPlan& plan, Seconds at) {
  QADIST_CHECK(!started_, << "submit after run()");
  const NodeId dns_node = next_dns_node_;
  next_dns_node_ = static_cast<NodeId>((next_dns_node_ + 1) % nodes_.size());
  if (ins_.submitted->value() == 0.0 || at < first_submit_) {
    first_submit_ = at;
  }
  ins_.submitted->inc();
  sim_.schedule_at(at, [this, &plan, dns_node] {
    on_arrival(plan, dns_node);
  });
}

void System::on_arrival(const QuestionPlan& plan, NodeId dns_node) {
  const AdmissionConfig& admission = config_.admission;
  if (!admission.enabled()) {
    // Legacy unbounded path: every arrival starts immediately.
    question_process(plan, dns_node, sim_.now());
    return;
  }
  // Load-based shedding: a saturated pool sheds even while the waiting
  // room has space — queueing behind a pool that cannot drain only trades
  // rejections for timeouts.
  const bool pool_overloaded =
      admission.load_threshold > 0.0 &&
      sched::mean_pool_load(table_, sched::kQaWeights) >
          admission.load_threshold;
  if (executing_ < admission.max_concurrent && !pool_overloaded) {
    start_admitted(plan, dns_node, sim_.now());
    return;
  }
  if (!pool_overloaded && admission_queue_.size() < admission.queue_capacity) {
    admission_queue_.push_back(QueuedArrival{&plan, dns_node, sim_.now()});
    admission_queue_peak_ =
        std::max(admission_queue_peak_, admission_queue_.size());
    return;
  }
  shed_arrival(plan, dns_node);
}

void System::shed_arrival(const QuestionPlan& plan, NodeId dns_node) {
  switch (config_.admission.policy) {
    case AdmissionPolicy::kShedOldest:
      // Keep the freshest work: the oldest queued question has already
      // waited longest and is the most likely to be stale to its user.
      // With no waiting room there is no older arrival to shed.
      if (!admission_queue_.empty()) {
        const QueuedArrival oldest = admission_queue_.front();
        admission_queue_.pop_front();
        ins_.questions_shed->inc();
        record_event(oldest.dns_node,
                     "question " + std::to_string(oldest.plan->source.id) +
                         " shed from the admission queue",
                     {{"kind", std::string("admission_shed")}});
        admission_queue_.push_back(QueuedArrival{&plan, dns_node, sim_.now()});
        maybe_finish();
        return;
      }
      [[fallthrough]];
    case AdmissionPolicy::kReject:
      ins_.questions_rejected->inc();
      record_event(dns_node,
                   "question " + std::to_string(plan.source.id) +
                       " rejected at admission",
                   {{"kind", std::string("admission_reject")}});
      maybe_finish();
      return;
    case AdmissionPolicy::kDegrade:
      complete_degraded(plan, dns_node);
      return;
  }
  QADIST_UNREACHABLE("bad AdmissionPolicy");
}

void System::complete_degraded(const QuestionPlan& plan, NodeId dns_node) {
  // Serve what we already have, immediately: probe the rendezvous-preferred
  // node's answer cache (a stale entry still beats nothing), otherwise
  // return a flagged partial answer. No cluster resources are consumed —
  // that is the point of shedding.
  ins_.admission_degraded->inc();
  bool cache_served = false;
  bool stale = false;
  if (!caches_.empty()) {
    const std::string key = cache::normalize_question(plan.source.text);
    if (const auto preferred = preferred_node(plan); preferred.has_value()) {
      NodeCaches& shard = *caches_[*preferred];
      if (shard.answers.find(key, sim_.now()) != nullptr) {
        cache_served = true;
        ins_.cache_hits->inc();
      } else if (shard.answers.peek_stale(key) != nullptr) {
        cache_served = true;
        stale = true;
        ins_.degraded_stale_served->inc();
      }
    }
  }
  if (!cache_served || stale) ins_.questions_degraded->inc();
  record_event(dns_node,
               "question " + std::to_string(plan.source.id) +
                   " degraded by admission control" +
                   (cache_served ? (stale ? " (stale cached answer served)"
                                          : " (cached answer served)")
                                 : " (partial answer)"),
               {{"kind", std::string("admission_degrade")},
                {"cache_served", std::int64_t{cache_served ? 1 : 0}}});
  ins_.latency->observe(0.0);  // answered at its arrival instant
  makespan_ = std::max(makespan_, sim_.now());
  ins_.completed->inc();
  maybe_finish();
}

void System::start_admitted(const QuestionPlan& plan, NodeId dns_node,
                            Seconds arrived) {
  ++executing_;
  ins_.admission_wait->observe(sim_.now() - arrived);
  question_process(plan, dns_node, arrived);
}

void System::finish_admitted() {
  QADIST_CHECK(executing_ > 0);
  --executing_;
  if (!admission_queue_.empty() &&
      executing_ < config_.admission.max_concurrent) {
    const QueuedArrival next = admission_queue_.front();
    admission_queue_.pop_front();
    start_admitted(*next.plan, next.dns_node, next.arrived);
  }
}

void System::maybe_finish() {
  const double accounted = ins_.completed->value() +
                           ins_.questions_rejected->value() +
                           ins_.questions_shed->value();
  if (accounted == ins_.submitted->value()) all_done_ = true;
}

void System::prewarm(const QuestionPlan& plan) {
  QADIST_CHECK(!started_, << "prewarm after run()");
  if (caches_.empty()) return;
  const std::string key = cache::normalize_question(plan.source.text);
  const auto preferred = preferred_node(plan);
  if (!preferred.has_value()) return;
  NodeCaches& shard = *caches_[*preferred];
  shard.answers.insert(key, CachedAnswer{plan.answer_bytes},
                       answer_footprint(key, plan), sim_.now());
  shard.paragraphs.insert(key, CachedParagraphs{},
                          paragraph_footprint(key, plan), sim_.now());
}

std::optional<NodeId> System::preferred_node(const QuestionPlan& plan) const {
  if (caches_.empty()) return std::nullopt;
  const std::uint64_t signature =
      cache::question_signature(cache::normalize_question(plan.source.text));
  std::vector<std::uint32_t> pool;
  pool.reserve(nodes_.size());
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    if (node_crashed_[n] == 0) pool.push_back(n);
  }
  return cache::rendezvous_pick(signature, pool);
}

bool System::answer_cached(NodeId node, const QuestionPlan& plan) const {
  if (caches_.empty()) return false;
  return caches_.at(node)->answers.contains(
      cache::normalize_question(plan.source.text), sim_.now());
}

cache::CacheStats System::answer_cache_stats(NodeId node) const {
  if (caches_.empty()) return {};
  return caches_.at(node)->answers.stats();
}

cache::CacheStats System::paragraph_cache_stats(NodeId node) const {
  if (caches_.empty()) return {};
  return caches_.at(node)->paragraphs.stats();
}

std::optional<NodeId> System::affinity_target(std::uint64_t signature) const {
  std::vector<std::uint32_t> live;
  live.reserve(table_.members().size());
  for (NodeId m : table_.members()) {
    if (schedulable(m)) live.push_back(m);
  }
  return cache::rendezvous_pick(signature, live);
}

void System::schedule_leave(NodeId node, Seconds at) {
  QADIST_CHECK(node < nodes_.size());
  sim_.schedule_at(at, [this, node] { node_broadcasting_[node] = 0; });
}

void System::schedule_join(NodeId node, Seconds at) {
  QADIST_CHECK(node < nodes_.size());
  sim_.schedule_at(at, [this, node] {
    // Joining a crashed node implies a reboot first.
    if (node_crashed_[node] != 0) apply_restart(node);
    node_broadcasting_[node] = 1;
  });
}

void System::schedule_crash(NodeId node, Seconds at, Seconds restart_after) {
  QADIST_CHECK(node < nodes_.size());
  sim_.schedule_at(at, [this, node, restart_after] {
    apply_crash(node);
    if (restart_after >= 0.0 && node_crashed_[node] != 0) {
      sim_.schedule(restart_after, [this, node] { apply_restart(node); });
    }
  });
}

void System::apply_crash(NodeId node) {
  if (node_crashed_[node] != 0) {
    ins_.crashes_skipped->inc();  // already down
    return;
  }
  std::size_t live = 0;
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    if (node_crashed_[n] == 0) ++live;
  }
  if (live <= 1) {
    // Losing the last node would strand every question; skip (and count)
    // so random fault processes can't wedge a run.
    ins_.crashes_skipped->inc();
    record_trace(node, "crash skipped (last live node)");
    return;
  }
  node_crashed_[node] = 1;
  ++crash_epoch_[node];
  ++crash_count_;
  crash_time_[node] = sim_.now();
  node_broadcasting_[node] = 0;  // a dead node broadcasts nothing
  nodes_[node]->crash();
  if (!caches_.empty()) {
    // The caches live in the node's memory: a crash loses them, and the
    // node reboots cold. (Counted as invalidations, not evictions.)
    caches_[node]->answers.clear();
    caches_[node]->paragraphs.clear();
  }
  ins_.crashes->inc();
  record_event(node, "crashed", {{"kind", std::string("crash")}});
  if (shard_map_ != nullptr && shard_partial_) {
    // Failover: drop the dead holder's replicas and start background
    // re-replication of each affected shard onto a surviving node. The map
    // reserves the targets synchronously (no double-assignment on a crash
    // burst); the rebuild processes pay the simulated disk/net cost.
    std::vector<shard::NodeId> live_pool;
    for (NodeId n = 0; n < nodes_.size(); ++n) {
      if (node_crashed_[n] == 0) live_pool.push_back(n);
    }
    const auto plan = shard_map_->fail_node(node, live_pool);
    for (const shard::ShardId s : plan.unavailable) {
      record_event(node,
                   "shard " + std::to_string(s) +
                       " unavailable (no ready replica)",
                   {{"kind", std::string("shard_unavailable")},
                    {"shard", static_cast<std::int64_t>(s)}});
    }
    for (const auto& task : plan.rebuilds) {
      ins_.shard_failovers->inc();
      record_event(task.target,
                   "re-replicating shard " + std::to_string(task.shard) +
                       " (lost N" + std::to_string(node + 1) + ")",
                   {{"kind", std::string("shard_rebuild_start")},
                    {"shard", static_cast<std::int64_t>(task.shard)}});
      rebuild_process(task.shard, task.target, crash_epoch_[task.target]);
    }
  }
  // Deliberately no table_.remove here: membership stays broadcast-driven.
  // The rest of the pool learns of the death either by expiry (the silent
  // node ages past membership_timeout) or when a coordinator's reply
  // timeout fires first.
}

void System::apply_restart(NodeId node) {
  if (node_crashed_[node] == 0) return;
  node_crashed_[node] = 0;
  node_broadcasting_[node] = 1;  // schedulable again from its next broadcast
  nodes_[node]->restart();
  record_event(node, "restarted", {{"kind", std::string("restart")}});
  if (shard_map_ != nullptr && shard_partial_) {
    // The shard copies survived on the rebooted node's disk, but they must
    // be re-scanned before they serve retrieval again (a crash mid-write
    // may have torn one — the magic/version checks in ir::persist are what
    // this validation pass runs).
    revalidate_process(node, crash_epoch_[node]);
  }
}

void System::apply_gray(std::size_t event_index) {
  // Gray onset: the node keeps running (and heartbeating!) but its service
  // rates degrade. The failure detector sees nothing — that is the point.
  const simnet::GrayFaultEvent& event = config_.gray.events[event_index];
  gray_open_[event.node].push_back(event_index);
  recompute_gray(event.node);
  ins_.gray_onsets->inc();
  record_event(event.node, "gray fault onset",
               {{"kind", std::string("gray_onset")},
                {"cpu_factor", event.cpu_factor},
                {"disk_factor", event.disk_factor}});
}

void System::clear_gray(NodeId node, std::size_t event_index) {
  // Only this window closes; overlapping windows on the same node stay
  // open, so the node recovers exactly when its *last* window ends.
  std::erase(gray_open_[node], event_index);
  recompute_gray(node);
  ins_.gray_recoveries->inc();
  record_event(node, "gray fault recovered",
               {{"kind", std::string("gray_recovery")}});
}

void System::recompute_gray(NodeId node) {
  // Effective degradation = the worst of the node's open windows, per
  // resource: concurrent gray causes (a thermal throttle and a sick disk,
  // say) don't multiply each other's service times, the slowest one
  // dominates. With no open window the node is healthy again.
  double cpu = 1.0;
  double disk = 1.0;
  Seconds extra = 0.0;
  for (const std::size_t index : gray_open_[node]) {
    const simnet::GrayFaultEvent& event = config_.gray.events[index];
    cpu = std::max(cpu, event.cpu_factor);
    disk = std::max(disk, event.disk_factor);
    extra = std::max(extra, event.extra_latency);
  }
  if (!gray_open_[node].empty()) {
    nodes_[node]->set_gray(cpu, disk);
  } else {
    nodes_[node]->clear_gray();
  }
  gray_extra_latency_[node] = extra;
}

Seconds System::gray_extra_latency(NodeId src, NodeId dst) const {
  if (gray_extra_latency_.empty()) return 0.0;  // no gray plan configured
  // A degraded NIC/switch port hurts both directions, so a message pays
  // the endpoint penalties additively.
  return gray_extra_latency_[src] + gray_extra_latency_[dst];
}

void System::observe_leg(sched::LegStage stage, NodeId node, Seconds wall,
                         double units, bool backup) {
  if (!config_.tail.enabled()) return;
  // The hedge trigger is a quantile of *primary* per-unit leg walls. A
  // backup's wall is measured from the hedge instant and is short by
  // construction; feeding it back would depress the trigger and
  // over-hedge. Normalizing by units keeps legs of different sizes
  // comparable — the trigger scales back up by each leg's own unit count.
  if (!backup && units > 0.0) {
    leg_walls_[static_cast<std::size_t>(stage)].add(wall / units);
  }
  leg_latency_.observe(node, stage, wall, units);
}

std::optional<Seconds> System::hedge_delay(sched::LegStage stage) const {
  const RunningQuantile& walls = leg_walls_[static_cast<std::size_t>(stage)];
  if (walls.count() < config_.tail.hedge_min_samples) return std::nullopt;
  // Quantile over the completed-leg per-unit walls observed so far (the
  // live analogue of the "issue the backup after the p95" rule), kept
  // up to date by observe_leg; nullopt while there is none. Callers scale
  // by the waiting leg's unit count and apply hedge_min_delay.
  return walls.value();
}

std::span<const char> System::straggler_mask(sched::LegStage stage) {
  if (!config_.tail.latency_aware) return {};
  if (!leg_latency_.straggler_mask(stage, config_.tail.straggler_ratio,
                                   straggler_scratch_)) {
    return {};
  }
  ins_.straggler_avoidances->inc();
  return {straggler_scratch_.data(), straggler_scratch_.size()};
}

bool System::schedulable(NodeId node) const {
  if (node_crashed_[node] != 0) return false;
  if (!detector_placement_) return true;
  return detector_.state(node) == sched::PeerState::kAlive;
}

bool System::deadline_exceeded(const QuestionState& q) const {
  return q.deadline > 0.0 && sim_.now() > q.deadline;
}

simnet::Link& System::link_for(NodeId src, NodeId dst) const {
  // Flat star: the single shared LAN. Broker tier: endpoints inside one
  // group share that group's subtree segment; anything crossing groups
  // rides the core backbone. Never called with kBroadcastNode — the
  // monitor broadcast picks its segment explicitly (see monitor_process).
  if (!topology_.has_value()) return *network_;
  const std::size_t src_group = topology_->group_of_node(src);
  if (src_group == topology_->group_of_node(dst)) {
    return *subtree_links_[src_group];
  }
  return *core_link_;
}

simnet::Task<bool> System::ship(double bytes, NodeId src, NodeId dst,
                                Seconds deadline, ShipCost* cost) {
  // Gray link penalty: a degraded NIC adds propagation delay the failure
  // detector never sees (heartbeats go over Link::send directly and stay
  // on schedule). Guarded so a run without a gray plan emits no extra
  // event — bit-identical to builds without this layer.
  const Seconds gray_extra = gray_extra_latency(src, dst);
  if (gray_extra > 0.0) {
    const Seconds g0 = sim_.now();
    co_await simnet::Delay(sim_, gray_extra);
    if (cost != nullptr) cost->transfer += sim_.now() - g0;
  }
  if (injector_ == nullptr) {
    // Reliable link: exactly the transfer() event sequence, so fault-free
    // runs stay bit-identical to builds without this layer (link_for is
    // the flat LAN whenever the broker tier is off).
    const Seconds t0 = sim_.now();
    co_await link_for(src, dst).transfer(bytes);
    if (cost != nullptr) cost->transfer += sim_.now() - t0;
    co_return true;
  }
  const ReliabilityConfig& rel = config_.net.reliability;
  // One idempotency token per logical message: however many frames the
  // retries and link-level duplications put on the wire, the receiver
  // processes the sequence number once and discards the rest (the link
  // folds the duplicate tally into net_dedup_dropped at the end of the
  // run). The token also keeps redeliveries observable in sim traces.
  [[maybe_unused]] const std::uint64_t seq = next_msg_seq_++;
  Seconds backoff = rel.backoff_base;
  for (std::size_t attempt = 0;; ++attempt) {
    const Seconds t0 = sim_.now();
    const simnet::LinkVerdict verdict =
        co_await link_for(src, dst).send(bytes, src, dst);
    if (cost != nullptr) cost->transfer += sim_.now() - t0;
    if (verdict.delivered) co_return true;
    if (attempt >= rel.max_retries) break;
    if (deadline > 0.0 && sim_.now() >= deadline) break;
    ins_.net_retries->inc();
    const Seconds wait = std::min(backoff, rel.backoff_max) *
                         (1.0 + rel.backoff_jitter * net_rng_.uniform01());
    backoff *= 2.0;
    const Seconds b0 = sim_.now();
    co_await simnet::Delay(sim_, wait);
    if (cost != nullptr) cost->backoff += sim_.now() - b0;
  }
  ins_.net_send_failures->inc();
  co_return false;
}

System::ShardAssignment System::assign_pr_units(
    std::span<const std::size_t> units, std::optional<NodeId> exclude) {
  ShardAssignment out;
  // Eligible pool: every schedulable ready holder of a shard the question
  // touches (the meta-scheduler only weighs nodes that can actually serve
  // some of this question's corpus).
  std::vector<shard::NodeId> eligible;
  {
    std::vector<char> seen(nodes_.size(), 0);
    for (const std::size_t u : units) {
      const shard::ShardId s = shard_map_->shard_of_unit(u);
      for (const NodeId n : shard_map_->ready_holders(s)) {
        if (seen[n] != 0) continue;
        seen[n] = 1;
        if (exclude.has_value() && *exclude == n) continue;
        if (schedulable(n)) eligible.push_back(n);
      }
    }
    std::sort(eligible.begin(), eligible.end());
  }
  // Meta-schedule weights over the eligible pool (DQA). Other policies
  // weigh every holder equally — they still scatter, because the host may
  // simply not hold the shards this question touches.
  std::vector<double> node_weight(nodes_.size(), 1.0);
  if (config_.dispatch.policy == Policy::kDqa && !eligible.empty()) {
    const auto ms = sched::meta_schedule_among(
        table_, eligible, sched::kPrWeights,
        config_.dispatch.pr_underload_threshold, &registry_,
        straggler_mask(sched::LegStage::kPr));
    if (!ms.selected.empty()) {
      // A holder outside the meta-schedule's pick keeps a small floor
      // weight instead of zero: it may be the only node able to serve its
      // shard's units.
      node_weight.assign(nodes_.size(), 1e-3);
      for (std::size_t i = 0; i < ms.selected.size(); ++i) {
        node_weight[ms.selected[i]] = std::max(ms.weights[i], 1e-3);
      }
    }
  }
  // Weighted round-robin per unit: each sub-collection goes to the ready
  // holder of its shard minimizing (assigned + 1) / weight, preferring
  // trusted (unsuspected) holders, ties to the lower node id. Units whose
  // shard has no live holder are unplaced — the caller degrades.
  std::vector<std::size_t> assigned(nodes_.size(), 0);
  std::vector<std::size_t> leg_of(nodes_.size(), kNoUnit);
  for (const std::size_t u : units) {
    const shard::ShardId s = shard_map_->shard_of_unit(u);
    std::optional<NodeId> best;
    double best_cost = 0.0;
    for (const bool allow_suspect : {false, true}) {
      for (const NodeId n : shard_map_->ready_holders(s)) {
        if (exclude.has_value() && *exclude == n) continue;
        if (node_crashed_[n] != 0) continue;
        if (!allow_suspect && !schedulable(n)) continue;
        const double cost =
            static_cast<double>(assigned[n] + 1) / node_weight[n];
        if (!best.has_value() || cost < best_cost) {
          best = n;
          best_cost = cost;
        }
      }
      if (best.has_value()) break;
    }
    if (!best.has_value()) {
      out.unplaced.push_back(u);
      continue;
    }
    ++assigned[*best];
    if (leg_of[*best] == kNoUnit) {
      leg_of[*best] = out.legs.size();
      out.legs.emplace_back(*best, std::deque<std::size_t>{});
    }
    out.legs[leg_of[*best]].second.push_back(u);
  }
  return out;
}

System::SelectionResult System::select_pr_units(const QuestionPlan& plan) {
  SelectionResult out;
  out.units.resize(plan.pr_units.size());
  for (std::size_t i = 0; i < out.units.size(); ++i) out.units[i] = i;
  const std::size_t num_shards = config_.shard.num_shards;
  if (shard_map_ == nullptr || plan.pr_units.empty() ||
      !config_.broker.selection_enabled(num_shards)) {
    return out;
  }
  const std::size_t top_k = config_.broker.effective_top_k(num_shards);
  std::vector<std::size_t> selected;
  if (config_.broker.stats != nullptr) {
    // CORI shard scoring over the persisted per-shard term statistics.
    selected = broker::select_shards(*config_.broker.stats,
                                     plan.processed.keywords, top_k);
  } else {
    // No term statistics supplied: rank shards by the retrieval work they
    // would serve for this question — a size-based proxy for CORI.
    std::vector<double> work(num_shards, 0.0);
    for (std::size_t u = 0; u < plan.pr_units.size(); ++u) {
      work[shard_map_->shard_of_unit(u)] +=
          static_cast<double>(plan.pr_units[u].paragraphs);
    }
    selected = broker::select_shards_by_work(work, top_k);
  }
  std::vector<char> keep(num_shards, 0);
  for (const std::size_t s : selected) keep[s] = 1;
  std::vector<std::size_t> units;
  double kept_paragraphs = 0.0;
  double total_paragraphs = 0.0;
  for (std::size_t u = 0; u < plan.pr_units.size(); ++u) {
    const double p = static_cast<double>(plan.pr_units[u].paragraphs);
    total_paragraphs += p;
    if (keep[shard_map_->shard_of_unit(u)] != 0) {
      units.push_back(u);
      kept_paragraphs += p;
    }
  }
  if (units.empty()) {
    // Every selected shard serves no unit of this plan (fewer units than
    // shards): searching nothing would answer nothing — run exhaustively.
    ins_.selection_fallback_all->inc();
    return out;
  }
  if (units.size() == out.units.size()) return out;  // nothing pruned
  ins_.selection_questions_pruned->inc();
  ins_.selection_units_pruned->inc(
      static_cast<double>(out.units.size() - units.size()));
  ins_.selection_shards_selected->observe(static_cast<double>(selected.size()));
  out.pruned = true;
  out.kept_fraction =
      total_paragraphs > 0.0 ? kept_paragraphs / total_paragraphs : 1.0;
  out.units = std::move(units);
  return out;
}

NodeId System::pick_live(const sched::LoadWeights& weights) const {
  // Two passes over the pool: trusted members first, then any non-crashed
  // member (with the detector driving placement, every member may be a
  // suspect — a suspect still beats an arbitrary fallback node).
  for (const bool allow_suspect : {false, true}) {
    std::optional<NodeId> best;
    double best_load = 0.0;
    for (NodeId m : table_.members()) {
      if (node_crashed_[m] != 0) continue;  // dead but not yet expired
      if (!allow_suspect && !schedulable(m)) continue;
      const double load = sched::load_function(table_.load_of(m), weights);
      if (!best.has_value() || load < best_load) {
        best = m;
        best_load = load;
      }
    }
    if (best.has_value()) return *best;
  }
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    if (node_crashed_[n] == 0) return n;
  }
  QADIST_UNREACHABLE("no live nodes (apply_crash spares the last one)");
}

Metrics System::run() {
  QADIST_CHECK(!started_, << "run() called twice");
  started_ = true;
  // Seed the load table (and the failure detector's peer roster) so
  // dispatch decisions at t=0 see every broadcasting node, then start the
  // per-node monitors.
  for (const auto& node : nodes_) {
    if (node_broadcasting_[node->id()] != 0) {
      table_.update(node->id(), sched::ResourceLoad{}, sim_.now());
      detector_.heartbeat(node->id(), sim_.now());
    }
  }
  for (const auto& node : nodes_) {
    monitor_process(*node);
  }
  for (const auto& fault : config_.faults.crashes) {
    schedule_crash(fault.node, fault.at, fault.restart_after);
  }
  if (config_.faults.mtbf > 0.0) {
    fault_process();
  }
  if (injector_ != nullptr) {
    // Partition instants: bracket every scripted window in the trace and
    // count the cuts. (Only scheduled with faults on, so the fault-free
    // event sequence is untouched.)
    for (const simnet::PartitionWindow& w : config_.net.faults.partitions) {
      const NodeId first = w.isolated.front();
      const auto n = static_cast<std::int64_t>(w.isolated.size());
      sim_.schedule_at(w.from, [this, first, n] {
        registry_.counter("net_partitions").inc();
        record_event(first, "partition started (" + std::to_string(n) +
                                " nodes isolated)",
                     {{"kind", std::string("partition_start")},
                      {"isolated", n}});
      });
      sim_.schedule_at(w.until, [this, first] {
        record_event(first, "partition healed",
                     {{"kind", std::string("partition_end")}});
      });
    }
  }
  if (config_.gray.enabled()) {
    // Gray-fault instants: degrade service rates / inflate link latency on
    // schedule, optionally recovering later. (Only scheduled with a gray
    // plan, so the plan-free event sequence is untouched.)
    for (std::size_t i = 0; i < config_.gray.events.size(); ++i) {
      const simnet::GrayFaultEvent& event = config_.gray.events[i];
      sim_.schedule_at(event.at, [this, i] { apply_gray(i); });
      if (event.recover_after >= 0.0) {
        const NodeId node = event.node;
        sim_.schedule_at(event.at + event.recover_after,
                         [this, node, i] { clear_gray(node, i); });
      }
    }
  }
  sim_.run();
  // Every submitted question must be accounted for: completed (including
  // degraded-at-admission ones), rejected, or shed from the queue.
  const double accounted = ins_.completed->value() +
                           ins_.questions_rejected->value() +
                           ins_.questions_shed->value();
  QADIST_CHECK(accounted == ins_.submitted->value(),
               << "simulation drained with " << accounted << "/"
               << ins_.submitted->value() << " questions accounted for ("
               << ins_.completed->value() << " completed)");
  QADIST_CHECK(admission_queue_.empty() && executing_ == 0,
               << "admission state not drained: " << admission_queue_.size()
               << " queued, " << executing_ << " executing");

  // Publish the run-scoped values, then build the read-only view from the
  // registry — the registry is the single source of truth.
  registry_.gauge("first_submit_seconds").set(first_submit_);
  registry_.gauge("makespan_seconds").set(makespan_);
  registry_.gauge("admission_queue_peak")
      .set(static_cast<double>(admission_queue_peak_));
  for (const auto& node : nodes_) {
    const obs::Labels labels{{"node", std::to_string(node->id())}};
    registry_.gauge("node_cpu_work_seconds", labels)
        .set(node->cpu().work_served());
    registry_.gauge("node_disk_work_bytes", labels)
        .set(node->disk().work_served());
  }
  publish_cache_stats();
  publish_net_stats();
  publish_shard_stats();
  return Metrics::from_registry(registry_);
}

void System::publish_shard_stats() {
  if (shard_map_ == nullptr) return;
  // Per-node index storage: replicas held (any state — a rebuilding copy
  // already pins disk) times the simulated shard artifact size. This is
  // the storage-scaling axis bench_shard_scaling sweeps.
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    const obs::Labels labels{{"node", std::to_string(n)}};
    registry_.gauge("node_storage_bytes", labels)
        .set(static_cast<double>(
            shard_map_->storage_bytes(n, config_.shard.shard_bytes)));
  }
  registry_.gauge("shard_replication")
      .set(static_cast<double>(shard_map_->replication()));
  registry_.gauge("shard_count")
      .set(static_cast<double>(shard_map_->num_shards()));
}

void System::publish_net_stats() {
  // Lifetime tallies of the fault layer, folded once so the registry (and
  // the Metrics view) exposes them alongside the live counters. Created
  // even when faults are off so the schema is stable.
  const auto fold = [this](const char* name, std::uint64_t value) {
    registry_.counter(name).inc(static_cast<double>(value));
  };
  fold("net_drops", injector_ != nullptr ? injector_->random_drops() : 0);
  fold("net_partition_drops",
       injector_ != nullptr ? injector_->partition_drops() : 0);
  fold("net_duplicates", injector_ != nullptr ? injector_->duplicates() : 0);
  // Duplicated frames are exactly the ones the receiver's sequence-number
  // check discards.
  fold("net_dedup_dropped", injector_ != nullptr ? injector_->duplicates() : 0);
  fold("net_partitions", 0);  // incremented live by the window instants
  fold("detector_suspicions", detector_.suspicions_raised());
  fold("detector_false_alarms", detector_.suspicions_cleared());
  fold("detector_deaths", detector_.deaths_confirmed());
  fold("detector_rejoins", detector_.rejoins());
  fold("detector_hints_suppressed", detector_.hints_suppressed());
  const double completed = ins_.completed->value();
  registry_.gauge("degraded_answer_fraction")
      .set(completed > 0.0 ? ins_.questions_degraded->value() / completed
                           : 0.0);
}

void System::publish_cache_stats() {
  if (caches_.empty()) return;
  cache::CacheStats answers_total;
  cache::CacheStats paragraphs_total;
  const auto fold = [](cache::CacheStats& total,
                       const cache::CacheStats& s) {
    total.evictions_entries += s.evictions_entries;
    total.evictions_bytes += s.evictions_bytes;
    total.expirations += s.expirations;
    total.rejected_oversize += s.rejected_oversize;
    total.invalidations += s.invalidations;
    total.insertions += s.insertions;
    total.updates += s.updates;
  };
  for (NodeId n = 0; n < caches_.size(); ++n) {
    const NodeCaches& shard = *caches_[n];
    fold(answers_total, shard.answers.stats());
    fold(paragraphs_total, shard.paragraphs.stats());
    const obs::Labels node_label{{"node", std::to_string(n)}};
    const auto with_cache = [&](const char* cache_name) {
      obs::Labels labels = node_label;
      labels.emplace_back("cache", cache_name);
      return labels;
    };
    registry_.gauge("cache_entries", with_cache("answers"))
        .set(static_cast<double>(shard.answers.size()));
    registry_.gauge("cache_bytes", with_cache("answers"))
        .set(static_cast<double>(shard.answers.bytes()));
    registry_.gauge("cache_entries", with_cache("paragraphs"))
        .set(static_cast<double>(shard.paragraphs.size()));
    registry_.gauge("cache_bytes", with_cache("paragraphs"))
        .set(static_cast<double>(shard.paragraphs.bytes()));
  }
  const auto publish = [&](const char* cache_name,
                           const cache::CacheStats& s) {
    const obs::Labels labels{{"cache", cache_name}};
    registry_.counter("cache_insertions", labels)
        .inc(static_cast<double>(s.insertions));
    registry_.counter("cache_updates", labels)
        .inc(static_cast<double>(s.updates));
    registry_.counter("cache_evictions", labels)
        .inc(static_cast<double>(s.evictions()));
    registry_.counter("cache_expirations", labels)
        .inc(static_cast<double>(s.expirations));
    registry_.counter("cache_invalidations", labels)
        .inc(static_cast<double>(s.invalidations));
    registry_.counter("cache_rejected_oversize", labels)
        .inc(static_cast<double>(s.rejected_oversize));
  };
  publish("answers", answers_total);
  publish("paragraphs", paragraphs_total);
}

simnet::SimProcess System::monitor_process(Node& node) {
  // Periodically: measure local load, fold it into the damped average,
  // broadcast it on the shared segment, refresh the table, and drop silent
  // peers (paper Sec. 3.1). Monitors stop once the workload drains so the
  // event queue can empty.
  sched::ResourceLoad ema;
  while (!all_done_) {
    const auto sample = node.sample_load();
    if (tracer_ != nullptr) {
      // Per-node utilization timeline (Chrome trace counter track): busy
      // fraction of each resource over the monitor period just ended.
      const NodeId id = node.id();
      tracer_->counter_sample(sim_.now(), id, "cpu_util",
                              cpu_probes_[id].sample(sim_.now()));
      tracer_->counter_sample(sim_.now(), id, "disk_util",
                              disk_probes_[id].sample(sim_.now()));
    }
    const double alpha =
        config_.net.load_smoothing_tau > 0.0
            ? 1.0 - std::exp(-config_.net.monitor_period /
                             config_.net.load_smoothing_tau)
            : 1.0;
    ema.cpu += alpha * (sample.cpu - ema.cpu);
    ema.disk += alpha * (sample.disk - ema.disk);
    if (node_broadcasting_[node.id()] != 0) {
      // The broadcast doubles as this node's heartbeat: only a delivered
      // packet refreshes the table and the failure detector, so a lossy or
      // partitioned link starves both — exactly how the rest of the pool
      // would experience it.
      // Under the broker tier the broadcast rides the node's subtree
      // segment (link_for with src == dst); flat runs use the shared LAN,
      // event-for-event as before.
      const simnet::LinkVerdict verdict =
          co_await link_for(node.id(), node.id())
              .send(static_cast<double>(config_.net.load_packet_bytes),
                    node.id(), simnet::kBroadcastNode);
      if (verdict.delivered && topology_.has_value() &&
          topology_->broker_node(topology_->group_of_node(node.id())) ==
              node.id()) {
        // Two-level dissemination: the broker re-publishes its subtree's
        // digest on the core so other groups' load tables stay global.
        // One relay frame per period per broker; a lost relay only delays
        // freshness until the next period, so it is not retried.
        const simnet::LinkVerdict relay = co_await core_link_->send(
            static_cast<double>(config_.net.load_packet_bytes), node.id(),
            simnet::kBroadcastNode);
        if (relay.delivered) ins_.broker_load_relays->inc();
      }
      if (verdict.delivered) {
        const auto before = detector_.heartbeat(node.id(), sim_.now());
        if (before == sched::PeerState::kDead && detector_placement_) {
          // A peer confirmed dead and now heard from again went through an
          // unobserved outage (a graceful leave + rejoin looks the same
          // from here). Its cache shards may hold entries the rest of the
          // pool invalidated or superseded meanwhile — clear them, exactly
          // as a crash does, so a stale answer can't be served. (A crash
          // path already cleared them; this covers the leave/rejoin path.)
          if (!caches_.empty()) {
            caches_[node.id()]->answers.clear();
            caches_[node.id()]->paragraphs.clear();
            ins_.rejoin_cache_clears->inc();
          }
          record_event(node.id(), "peer rejoined after confirmed death",
                       {{"kind", std::string("detector_rejoin")}});
        }
        // The damped broadcast absorbs only `alpha` of newly placed load
        // per period, so keep the complementary share of the reservations
        // alive.
        table_.update(node.id(), ema, sim_.now(),
                      /*reservation_keep=*/1.0 - alpha);
      }
    }
    table_.expire(sim_.now(), config_.net.membership_timeout);
    // Missed-beat sweep. The detector always counts lifecycle transitions
    // (observability), but only drives placement — stale load entries,
    // early removal of confirmed-dead peers — when the fault layer (or the
    // explicit flag) turned detector placement on, so crash-only runs keep
    // their timeout-only behavior bit-for-bit.
    for (const sched::DetectorTransition& t : detector_.sweep(sim_.now())) {
      if (!detector_placement_) continue;
      table_.mark_stale(t.node, t.to == sched::PeerState::kSuspect);
      if (t.to == sched::PeerState::kDead) table_.remove(t.node);
      record_event(t.node,
                   std::string("peer ") + sched::to_string(t.to) + " (was " +
                       sched::to_string(t.from) + ")",
                   {{"kind", std::string("detector_transition")},
                    {"to", std::string(sched::to_string(t.to))}});
    }
    co_await simnet::Delay(sim_, config_.net.monitor_period);
  }
}

simnet::SimProcess System::fault_process() {
  // Random crash generator: exponential inter-crash gaps (mean = MTBF),
  // uniform victim. Deterministic given the config seed; decorrelated from
  // the two-choice stream by a splitmix64-style constant.
  Rng rng(config_.seed ^ 0x9e3779b97f4a7c15ULL);
  while (!all_done_) {
    co_await simnet::Delay(sim_,
                           rng.exponential(1.0 / config_.faults.mtbf));
    if (all_done_) break;
    const NodeId victim = static_cast<NodeId>(rng.below(nodes_.size()));
    apply_crash(victim);
    if (config_.faults.restart_after >= 0.0 && node_crashed_[victim] != 0) {
      sim_.schedule(config_.faults.restart_after,
                    [this, victim] { apply_restart(victim); });
    }
  }
}

simnet::SimProcess System::rebuild_process(shard::ShardId shard,
                                           NodeId target,
                                           std::size_t target_epoch) {
  // Crash protocol: like the stage legs, re-check liveness after EVERY
  // co_await. The target dying voids the reservation (fail_node stripped
  // the kRebuilding replica and scheduled a replacement; our abort is an
  // idempotent no-op). The source dying mid-copy restarts the copy from
  // the next surviving ready replica.
  const Seconds start = sim_.now();
  const double bytes = static_cast<double>(config_.shard.shard_bytes);
  const auto target_dead = [&] {
    return node_crashed_[target] != 0 || crash_epoch_[target] != target_epoch;
  };
  for (;;) {
    const auto src = shard_map_->ready_source(shard);
    if (!src.has_value() || target_dead()) {
      shard_map_->abort_rebuild(shard, target);
      record_event(target,
                   "rebuild of shard " + std::to_string(shard) + " aborted",
                   {{"kind", std::string("shard_rebuild_abort")},
                    {"shard", static_cast<std::int64_t>(shard)}});
      co_return;
    }
    const NodeId source = *src;
    const std::size_t src_epoch = crash_epoch_[source];
    const auto src_dead = [&] { return crash_epoch_[source] != src_epoch; };

    // Read the replica off the source's disk (fair-shared with its PR
    // work), move it over the lossy link, write it on the target.
    co_await nodes_[source]->disk().consume(bytes);
    if (target_dead()) continue;  // loop re-checks and aborts
    if (src_dead()) continue;     // re-pick a source
    const bool delivered = co_await ship(bytes, source, target, 0.0);
    if (target_dead() || src_dead()) continue;
    if (!delivered) {
      // Retry budget spent: back off one monitor period, then start over
      // (possibly from a different source).
      co_await simnet::Delay(sim_, config_.net.monitor_period);
      continue;
    }
    co_await nodes_[target]->disk().consume(bytes);
    if (target_dead() || src_dead()) continue;

    // Pacing floor: re-replication is deliberately bandwidth-capped so it
    // cannot starve foreground retrieval (shard_bytes / rebuild_bandwidth
    // wall-clock minimum per shard).
    const Seconds floor = config_.shard.rebuild_bandwidth.transfer_time(bytes);
    const Seconds elapsed = sim_.now() - start;
    if (floor > elapsed) {
      co_await simnet::Delay(sim_, floor - elapsed);
      if (target_dead()) continue;
    }

    shard_map_->complete_rebuild(shard, target);
    ins_.shard_rebuilds->inc();
    ins_.shard_rebuild_bytes->inc(bytes);
    ins_.shard_rebuild_seconds->observe(sim_.now() - start);
    record_event(target,
                 "shard " + std::to_string(shard) + " re-replicated in " +
                     format_double(sim_.now() - start, 2) + " secs",
                 {{"kind", std::string("shard_rebuild_done")},
                  {"shard", static_cast<std::int64_t>(shard)}});
    co_return;
  }
}

simnet::SimProcess System::revalidate_process(NodeId node, std::size_t epoch) {
  // The rebooted holder's shard copies survived on disk, but each must be
  // re-scanned (magic/version/posting checks) before serving again. A
  // re-crash mid-scan just re-stashes the shards — fail_node already ran.
  const auto shards = shard_map_->begin_validation(node);
  if (shards.empty()) co_return;
  const Seconds start = sim_.now();
  const double bytes =
      static_cast<double>(config_.shard.shard_bytes) * shards.size();
  co_await nodes_[node]->disk().consume(bytes);
  if (node_crashed_[node] != 0 || crash_epoch_[node] != epoch) co_return;
  const Seconds floor = config_.shard.rebuild_bandwidth.transfer_time(bytes);
  const Seconds elapsed = sim_.now() - start;
  if (floor > elapsed) {
    co_await simnet::Delay(sim_, floor - elapsed);
    if (node_crashed_[node] != 0 || crash_epoch_[node] != epoch) co_return;
  }
  const std::size_t promoted = shard_map_->complete_validation(node);
  ins_.shard_revalidations->inc(static_cast<double>(promoted));
  record_event(node,
               "re-validated " + std::to_string(promoted) + " shards in " +
                   format_double(sim_.now() - start, 2) + " secs",
               {{"kind", std::string("shard_revalidated")},
                {"shards", static_cast<std::int64_t>(promoted)}});
}

simnet::SimProcess System::pr_leg(QuestionState& q,
                                  std::shared_ptr<PrLegSlot> slot,
                                  std::size_t index,
                                  simnet::Mailbox<std::size_t>& reports,
                                  NodeId relay) {
  // Crash protocol: after EVERY co_await the leg re-checks its node's
  // crash epoch. Once it moved, this coroutine is a zombie — the
  // coordinator may have recovered the work, finished the question, and
  // destroyed `q` and `reports` — so it exits touching only the slot
  // (shared ownership) and System members. A dead leg never reports;
  // the coordinator's reply timeout is the detection path.
  //
  // `relay` is the coordinator endpoint: the question host in the flat
  // star, the group's broker under the broker tier. Keywords arrive from
  // it, result bytes ship back to it, and it pays the receive disk work —
  // the internal name stays `host` because the leg cannot tell the two
  // apart.
  const NodeId node = slot->node;
  Node& executor = *nodes_[node];
  const QuestionPlan& plan = *q.plan;
  const NodeId host = relay;
  const Seconds deadline = q.deadline;  // stable for this attempt
  bool sent_keywords = node == host;  // local leg ships nothing
  double leg_ps = 0.0;
  std::size_t units_done = 0;
  ShipCost ship_cost;  // wire vs backoff time, stamped on the leg span
  // A leg is gone — and must exit touching nothing but the slot — when its
  // node crashed under it (zombie) or when it lost a hedge race (the
  // coordinator already closed its span and abandoned it).
  const auto dead = [&] {
    return crash_epoch_[node] != slot->epoch || slot->abandoned;
  };
  const bool tied = config_.tail.tied;
  // Unreachable protocol: a ship() that exhausts its retries means the
  // peer is cut off, not crashed. The leg reports its index with the
  // pending work still parked in the slot — the coordinator decides
  // whether to re-partition it over reachable survivors or, past the
  // deadline budget, drop it and flag the answer degraded.
  const auto abort_unreachable = [&] {
    if (tracer_ != nullptr && slot->leg_span != obs::kNoSpan) {
      tracer_->end_span(slot->leg_span, sim_.now(),
                        {{"unreachable", std::int64_t{1}},
                         {"net_seconds", ship_cost.transfer},
                         {"backoff_seconds", ship_cost.backoff}});
      slot->leg_span = obs::kNoSpan;
    }
    q.t_ps_max = std::max(q.t_ps_max, leg_ps);
    slot->unreachable = true;
    slot->reported = true;
    reports.send(index);
  };

  std::uint64_t leg_track = 0;
  if (tracer_ != nullptr) {
    leg_track = tracer_->new_track();
    obs::Attrs attrs{
        {"node", static_cast<std::int64_t>(node)},
        {"strategy",
         std::string(parallel::to_string(config_.partition.pr_strategy))}};
    // Backup legs carry a distinct mark so critical-path attribution can
    // tell a hedge win from a wasted backup (only stamped when hedging is
    // on — default traces stay byte-identical).
    if (slot->hedge_backup) attrs.emplace_back("hedge", std::int64_t{1});
    slot->leg_span = tracer_->begin_span(sim_.now(), "PR leg", node,
                                         leg_track, slot->stage_span,
                                         std::move(attrs));
  }

  while (!slot->units->empty()) {
    const std::size_t idx = slot->units->front();
    slot->units->pop_front();
    slot->in_flight = idx;
    const auto& unit = plan.pr_units[idx];

    if (!sent_keywords) {
      const Seconds t0 = sim_.now();
      const bool delivered =
          co_await ship(static_cast<double>(plan.keyword_bytes), host, node,
                        deadline, &ship_cost);
      if (dead()) co_return;
      if (!delivered) {
        abort_unreachable();
        co_return;
      }
      q.oh_keyword_send += sim_.now() - t0;
      sent_keywords = true;
    }

    const Seconds unit_start = sim_.now();
    const double thrash = executor.work_multiplier();
    // Gray degradation stretches the demand (a slow disk / throttled CPU
    // serves the same bytes slower); the factors are 1.0 outside a gray
    // window, so the multiply is IEEE-exact and the healthy path is
    // untouched.
    const double disk_work =
        unit.demand.disk_bytes * thrash * executor.gray_disk_factor();
    if (tied) {
      co_await CancellableConsume(executor.disk(), disk_work,
                                  slot->busy_server, slot->busy_handle);
    } else {
      co_await executor.disk().consume(disk_work);
    }
    if (dead()) co_return;
    const double cpu_work =
        unit.demand.cpu_seconds * thrash * executor.gray_cpu_factor();
    if (tied) {
      co_await CancellableConsume(executor.cpu(), cpu_work,
                                  slot->busy_server, slot->busy_handle);
    } else {
      co_await executor.cpu().consume(cpu_work);
    }
    if (dead()) co_return;
    record_event(node,
                 "finished collection " + std::to_string(idx) + " in " +
                     format_double(sim_.now() - unit_start, 2) + " secs (" +
                     std::to_string(unit.paragraphs) + " paragraphs)",
                 {{"kind", std::string("pr_unit")},
                  {"unit", static_cast<std::int64_t>(idx)},
                  {"paragraphs", static_cast<std::int64_t>(unit.paragraphs)}});

    // Paragraph scoring runs fused on the retrieval node (paper Fig. 3).
    const Seconds ps0 = sim_.now();
    const double ps_work = unit.ps.cpu_seconds * executor.work_multiplier() *
                           executor.gray_cpu_factor();
    if (tied) {
      co_await CancellableConsume(executor.cpu(), ps_work, slot->busy_server,
                                  slot->busy_handle);
    } else {
      co_await executor.cpu().consume(ps_work);
    }
    if (dead()) co_return;
    leg_ps += sim_.now() - ps0;
    if (tracer_ != nullptr) {
      // Recorded retroactively (begin+end in one go) so a crash mid-PS
      // never leaves a dangling scoring span.
      const obs::SpanId ps_span = tracer_->begin_span(
          ps0, "PS", node, leg_track, slot->leg_span,
          {{"unit", static_cast<std::int64_t>(idx)}});
      tracer_->end_span(ps_span, sim_.now());
    }

    if (node != host && unit.bytes_out > 0) {
      // Ship the scored paragraphs back; the paragraph merging module on
      // the host re-reads them from its disk (paper Eq. 27).
      const Seconds t0 = sim_.now();
      const bool delivered = co_await ship(
          static_cast<double>(unit.bytes_out), node, host, deadline,
          &ship_cost);
      if (dead()) co_return;
      if (!delivered) {
        abort_unreachable();  // in_flight stays set: the unit is redone
        co_return;
      }
      const double receive_work = static_cast<double>(unit.bytes_out) *
                                  nodes_[host]->gray_disk_factor();
      if (tied) {
        co_await CancellableConsume(nodes_[host]->disk(), receive_work,
                                    slot->busy_server, slot->busy_handle);
      } else {
        co_await nodes_[host]->disk().consume(receive_work);
      }
      if (dead()) co_return;
      q.oh_paragraph_receive += sim_.now() - t0;
    }
    // The unit's results now live on the host: durable across our crash.
    slot->in_flight = kNoUnit;
    ++units_done;
    slot->done = units_done;
  }
  q.t_ps_max = std::max(q.t_ps_max, leg_ps);
  if (tracer_ != nullptr && slot->leg_span != obs::kNoSpan) {
    tracer_->end_span(slot->leg_span, sim_.now(),
                      {{"units", static_cast<std::int64_t>(units_done)},
                       {"net_seconds", ship_cost.transfer},
                       {"backoff_seconds", ship_cost.backoff}});
    slot->leg_span = obs::kNoSpan;
  }
  slot->reported = true;
  reports.send(index);
}

simnet::SimProcess System::broker_leg(QuestionState& q,
                                      std::shared_ptr<BrokerSlot> slot,
                                      std::size_t index,
                                      simnet::Mailbox<std::size_t>& reports) {
  // Same zombie contract as pr_leg: after EVERY co_await, re-check the
  // broker's crash epoch and exit touching only the slot and System
  // members. The inner mailbox lives in the slot (workers hold keepalive
  // references), so worker reports never dangle even after this frame and
  // the slot's coordinator copy are gone.
  const NodeId broker = slot->node;
  Node& executor = *nodes_[broker];
  const QuestionPlan& plan = *q.plan;
  const NodeId host = q.host;
  const Seconds deadline = q.deadline;
  ShipCost ship_cost;
  const auto dead = [&] {
    return crash_epoch_[broker] != slot->epoch || slot->abandoned;
  };
  std::uint64_t leg_track = 0;
  if (tracer_ != nullptr) {
    leg_track = tracer_->new_track();
    slot->leg_span = tracer_->begin_span(
        sim_.now(), "PR broker", broker, leg_track, slot->stage_span,
        {{"node", static_cast<std::int64_t>(broker)},
         {"group", static_cast<std::int64_t>(slot->group)},
         {"units", static_cast<std::int64_t>(slot->units.size())}});
  }
  // Same unreachable protocol as pr_leg: report with the group slice still
  // parked in the slot; the host re-routes it through an acting broker or
  // degrades.
  const auto abort_unreachable = [&] {
    if (tracer_ != nullptr && slot->leg_span != obs::kNoSpan) {
      tracer_->end_span(slot->leg_span, sim_.now(),
                        {{"unreachable", std::int64_t{1}},
                         {"net_seconds", ship_cost.transfer},
                         {"backoff_seconds", ship_cost.backoff}});
      slot->leg_span = obs::kNoSpan;
    }
    slot->unreachable = true;
    slot->reported = true;
    reports.send(index);
  };
  // In-subtree degradation: drop units whose shard has no live in-group
  // holder (or whose recovery the deadline no longer affords). Tallied on
  // the slot; the host folds them into the question's degraded accounting
  // when this leg reports.
  const auto drop_units = [&](std::span<const std::size_t> lost) {
    for (const std::size_t u : lost) {
      slot->bytes_out -= static_cast<double>(plan.pr_units[u].bytes_out);
    }
    slot->unserved += lost.size();
    ins_.shard_units_unserved->inc(static_cast<double>(lost.size()));
  };

  // Keywords travel host -> broker once (core backbone across groups).
  if (broker != host) {
    const Seconds t0 = sim_.now();
    const bool delivered =
        co_await ship(static_cast<double>(plan.keyword_bytes), host, broker,
                      deadline, &ship_cost);
    if (dead()) co_return;
    if (!delivered) {
      abort_unreachable();
      co_return;
    }
    q.oh_keyword_send += sim_.now() - t0;
  }

  // Routing: resolve each unit's shard to an in-group ready holder (the
  // grouped shard pools make assign_pr_units in-group by construction).
  co_await executor.cpu().consume(config_.broker.route_cpu *
                                  executor.work_multiplier() *
                                  executor.gray_cpu_factor());
  if (dead()) co_return;

  simnet::Mailbox<std::size_t>& inner = *slot->inner;
  std::uint64_t swept_crashes = crash_count_;
  const auto spawn = [&](NodeId node, std::deque<std::size_t> block) {
    auto ws = std::make_shared<PrLegSlot>();
    ws->node = node;
    ws->epoch = crash_epoch_[node];
    ws->units = std::make_shared<std::deque<std::size_t>>(std::move(block));
    ws->stage_span = slot->leg_span;
    ws->spawned = sim_.now();
    ws->keepalive = slot->inner;
    ins_.legs_spawned->inc();
    slot->workers.push_back(ws);
    pr_leg(q, ws, slot->workers.size() - 1, inner, broker);
  };
  {
    auto assignment = assign_pr_units(slot->units, std::nullopt);
    for (auto& [node, block] : assignment.legs) spawn(node, std::move(block));
    if (!assignment.unplaced.empty()) {
      drop_units(assignment.unplaced);
      record_trace(broker, "no ready replica in group " +
                               std::to_string(slot->group) + " for " +
                               std::to_string(assignment.unplaced.size()) +
                               " collections (degraded)");
    }
  }

  std::size_t outstanding = slot->workers.size();
  while (outstanding > 0) {
    const auto msg = co_await inner.recv_for(config_.net.membership_timeout);
    if (dead()) co_return;
    if (msg.has_value()) {
      --outstanding;
      PrLegSlot& s = *slot->workers[*msg];
      if (!s.unreachable) {
        observe_leg(sched::LegStage::kPr, s.node, sim_.now() - s.spawned,
                    static_cast<double>(s.done), false);
        slot->done += s.done;
        // Partial merge runs on the broker — the serial reduce the tier
        // takes off the question host.
        co_await executor.cpu().consume(config_.shard.partial_merge_cpu *
                                        executor.work_multiplier() *
                                        executor.gray_cpu_factor());
        if (dead()) co_return;
        continue;
      }
      // Worker alive but cut off from the broker: recover the work still
      // parked in the slot over other in-group holders, or degrade once
      // the deadline budget is spent.
      ins_.legs_unreachable->inc();
      detector_.suspect_hint(s.node, sim_.now());
      if (detector_placement_) table_.mark_stale(s.node);
      record_trace(broker, "N" + std::to_string(s.node + 1) +
                               " unreachable during brokered PR");
      std::vector<std::size_t> lost;
      if (s.in_flight != kNoUnit) {
        lost.push_back(s.in_flight);
        s.in_flight = kNoUnit;
      }
      for (const std::size_t u : *s.units) lost.push_back(u);
      s.units->clear();
      if (lost.empty()) continue;
      if (deadline_exceeded(q)) {
        drop_units(lost);
        record_trace(broker, "deadline spent: dropped " +
                                 std::to_string(lost.size()) +
                                 " collections (degraded)");
        continue;
      }
      ins_.items_recovered->inc(static_cast<double>(lost.size()));
      auto redo = assign_pr_units(lost, s.node);
      for (auto& [node, block] : redo.legs) {
        spawn(node, std::move(block));
        ++outstanding;
        ins_.recovery_legs->inc();
      }
      if (!redo.unplaced.empty()) drop_units(redo.unplaced);
      continue;
    }
    // Reply timeout: sweep the subtree for crashed workers and fail their
    // units over to surviving in-group replicas.
    if (crash_count_ == swept_crashes) continue;  // see question_process
    swept_crashes = crash_count_;
    std::vector<std::pair<NodeId, std::deque<std::size_t>>> respawn;
    for (const auto& wsp : slot->workers) {
      PrLegSlot& s = *wsp;
      if (s.reported || s.declared_dead || s.abandoned) continue;
      if (crash_epoch_[s.node] == s.epoch) continue;  // still alive
      s.declared_dead = true;
      --outstanding;
      ins_.legs_lost->inc();
      if (tracer_ != nullptr && s.leg_span != obs::kNoSpan) {
        tracer_->end_span(s.leg_span, sim_.now(),
                          {{"crashed", std::int64_t{1}}});
        s.leg_span = obs::kNoSpan;
      }
      table_.remove(s.node);
      record_trace(broker, "lost contact with N" + std::to_string(s.node + 1) +
                               " during brokered PR");
      std::vector<std::size_t> lost;
      if (s.in_flight != kNoUnit) {
        lost.push_back(s.in_flight);
        s.in_flight = kNoUnit;
      }
      for (const std::size_t u : *s.units) lost.push_back(u);
      s.units->clear();
      if (lost.empty()) continue;
      ins_.items_recovered->inc(static_cast<double>(lost.size()));
      ins_.recovery_latency->observe(sim_.now() - crash_time_[s.node]);
      auto redo = assign_pr_units(lost, s.node);
      for (auto& leg : redo.legs) respawn.push_back(std::move(leg));
      if (!redo.unplaced.empty()) {
        drop_units(redo.unplaced);
        record_trace(broker, "no surviving replica in group " +
                                 std::to_string(slot->group) + " for " +
                                 std::to_string(redo.unplaced.size()) +
                                 " collections (degraded)");
      }
    }
    for (auto& [node, block] : respawn) {
      spawn(node, std::move(block));
      ++outstanding;
      ins_.recovery_legs->inc();
    }
  }

  // Fan-in: one merged aggregate per group back to the host (instead of
  // one stream per worker leg), plus the host's receive disk work.
  const double aggregate = std::max(slot->bytes_out, 0.0);
  if (broker != host && aggregate > 0.0) {
    const Seconds t0 = sim_.now();
    const bool delivered =
        co_await ship(aggregate, broker, host, deadline, &ship_cost);
    if (dead()) co_return;
    if (!delivered) {
      abort_unreachable();
      co_return;
    }
    co_await nodes_[host]->disk().consume(aggregate *
                                          nodes_[host]->gray_disk_factor());
    if (dead()) co_return;
    q.oh_paragraph_receive += sim_.now() - t0;
  }
  if (tracer_ != nullptr && slot->leg_span != obs::kNoSpan) {
    tracer_->end_span(slot->leg_span, sim_.now(),
                      {{"units", static_cast<std::int64_t>(slot->done)},
                       {"unserved", static_cast<std::int64_t>(slot->unserved)},
                       {"net_seconds", ship_cost.transfer},
                       {"backoff_seconds", ship_cost.backoff}});
    slot->leg_span = obs::kNoSpan;
  }
  slot->reported = true;
  reports.send(index);
}

simnet::SimProcess System::ap_leg(QuestionState& q,
                                  std::shared_ptr<ApLegSlot> slot,
                                  std::size_t index,
                                  simnet::Mailbox<std::size_t>& reports) {
  // Same crash protocol as pr_leg (see there).
  const NodeId node = slot->node;
  Node& executor = *nodes_[node];
  const QuestionPlan& plan = *q.plan;
  const NodeId host = q.host;
  const Seconds deadline = q.deadline;
  const bool remote = node != host;
  const Seconds leg_start = sim_.now();
  std::size_t processed = 0;
  ShipCost ship_cost;  // see pr_leg
  // Crashed-or-abandoned check; see pr_leg.
  const auto dead = [&] {
    return crash_epoch_[node] != slot->epoch || slot->abandoned;
  };
  const bool tied = config_.tail.tied;
  // Same unreachable protocol as pr_leg: give up, leave the pending work
  // in the slot, report for the coordinator to recover or degrade.
  const auto abort_unreachable = [&] {
    if (tracer_ != nullptr && slot->leg_span != obs::kNoSpan) {
      tracer_->end_span(slot->leg_span, sim_.now(),
                        {{"unreachable", std::int64_t{1}},
                         {"net_seconds", ship_cost.transfer},
                         {"backoff_seconds", ship_cost.backoff}});
      slot->leg_span = obs::kNoSpan;
    }
    slot->unreachable = true;
    slot->reported = true;
    reports.send(index);
  };

  if (tracer_ != nullptr) {
    const std::uint64_t leg_track = tracer_->new_track();
    obs::Attrs attrs{
        {"node", static_cast<std::int64_t>(node)},
        {"strategy",
         std::string(parallel::to_string(config_.partition.ap_strategy))}};
    if (slot->hedge_backup) attrs.emplace_back("hedge", std::int64_t{1});
    slot->leg_span =
        tracer_->begin_span(sim_.now(), "AP leg", node, leg_track,
                            slot->stage_span, std::move(attrs));
  }

  // Each batch: ship paragraphs in, burn CPU per paragraph, ship answers
  // back. Answers return per batch, which is why tiny RECV chunks pay more
  // overhead (paper Sec. 4.1.2).
  if (slot->chunks != nullptr) {
    // RECV: compete for chunks. Only the in-flight chunk is at risk on a
    // crash — earlier chunks already returned their answers.
    while (!slot->chunks->empty()) {
      const parallel::Chunk chunk = slot->chunks->front();
      slot->chunks->pop_front();
      slot->in_flight = chunk;
      slot->has_in_flight = true;
      std::size_t bytes_in = 0;
      std::size_t bytes_out = 0;
      for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
        bytes_in += plan.ap_units[i].bytes_in;
        bytes_out += plan.ap_units[i].answer_bytes_out;
      }
      if (remote && bytes_in > 0) {
        const Seconds t0 = sim_.now();
        const bool delivered = co_await ship(static_cast<double>(bytes_in),
                                             host, node, deadline, &ship_cost);
        if (dead()) co_return;
        if (!delivered) {
          abort_unreachable();  // in-flight chunk stays in the slot
          co_return;
        }
        q.oh_paragraph_send += sim_.now() - t0;
      }
      for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
        const double work = plan.ap_units[i].demand.cpu_seconds *
                            executor.work_multiplier() *
                            executor.gray_cpu_factor();
        if (tied) {
          co_await CancellableConsume(executor.cpu(), work, slot->busy_server,
                                      slot->busy_handle);
        } else {
          co_await executor.cpu().consume(work);
        }
        if (dead()) co_return;
        ++processed;
        slot->done = processed;
      }
      // Per-batch answer extraction floor (paper Sec. 4.1.2).
      const double floor_work =
          config_.partition.per_batch_answer_cpu * executor.gray_cpu_factor();
      if (tied) {
        co_await CancellableConsume(executor.cpu(), floor_work,
                                    slot->busy_server, slot->busy_handle);
      } else {
        co_await executor.cpu().consume(floor_work);
      }
      if (dead()) co_return;
      if (remote && bytes_out > 0) {
        const Seconds t0 = sim_.now();
        const bool delivered = co_await ship(static_cast<double>(bytes_out),
                                             node, host, deadline, &ship_cost);
        if (dead()) co_return;
        if (!delivered) {
          abort_unreachable();  // answers never landed: chunk is redone
          co_return;
        }
        q.oh_answer_receive += sim_.now() - t0;
      }
      slot->has_in_flight = false;  // answers are back: chunk is durable
    }
  } else {
    // SEND/ISEND: the sender shipped us a fixed partition; move its input
    // once, process, return answers once. Nothing is durable until the
    // final answer transfer lands, so a crash loses the whole partition.
    std::size_t bytes_in = 0;
    std::size_t bytes_out = 0;
    for (std::size_t i : slot->units) {
      bytes_in += plan.ap_units[i].bytes_in;
      bytes_out += plan.ap_units[i].answer_bytes_out;
    }
    if (remote && bytes_in > 0) {
      const Seconds t0 = sim_.now();
      const bool delivered = co_await ship(static_cast<double>(bytes_in),
                                           host, node, deadline, &ship_cost);
      if (dead()) co_return;
      if (!delivered) {
        abort_unreachable();  // the whole partition stays in the slot
        co_return;
      }
      q.oh_paragraph_send += sim_.now() - t0;
    }
    for (std::size_t i : slot->units) {
      const double work = plan.ap_units[i].demand.cpu_seconds *
                          executor.work_multiplier() *
                          executor.gray_cpu_factor();
      if (tied) {
        co_await CancellableConsume(executor.cpu(), work, slot->busy_server,
                                    slot->busy_handle);
      } else {
        co_await executor.cpu().consume(work);
      }
      if (dead()) co_return;
      ++processed;
      slot->done = processed;
    }
    if (processed > 0) {
      // One answer-extraction pass per partition (paper Sec. 4.1.2).
      const double floor_work =
          config_.partition.per_batch_answer_cpu * executor.gray_cpu_factor();
      if (tied) {
        co_await CancellableConsume(executor.cpu(), floor_work,
                                    slot->busy_server, slot->busy_handle);
      } else {
        co_await executor.cpu().consume(floor_work);
      }
      if (dead()) co_return;
    }
    if (remote && bytes_out > 0) {
      const Seconds t0 = sim_.now();
      const bool delivered = co_await ship(static_cast<double>(bytes_out),
                                           node, host, deadline, &ship_cost);
      if (dead()) co_return;
      if (!delivered) {
        abort_unreachable();  // answers never landed: partition is redone
        co_return;
      }
      q.oh_answer_receive += sim_.now() - t0;
    }
  }
  if (processed > 0) {
    record_event(node,
                 "finished " + std::to_string(processed) + " paragraphs in " +
                     format_double(sim_.now() - leg_start, 2) + " secs",
                 {{"kind", std::string("ap_done")},
                  {"paragraphs", static_cast<std::int64_t>(processed)}});
  }
  if (tracer_ != nullptr && slot->leg_span != obs::kNoSpan) {
    tracer_->end_span(slot->leg_span, sim_.now(),
                      {{"paragraphs", static_cast<std::int64_t>(processed)},
                       {"net_seconds", ship_cost.transfer},
                       {"backoff_seconds", ship_cost.backoff}});
    slot->leg_span = obs::kNoSpan;
  }
  slot->reported = true;
  reports.send(index);
}

simnet::SimProcess System::question_process(const QuestionPlan& plan,
                                            NodeId dns_node,
                                            Seconds arrived) {
  QuestionState q;
  q.plan = &plan;
  // Latency is measured from the arrival instant: a question that waited
  // in the admission queue pays that wait in its response time (and
  // against its deadline budget). Without admission control arrived is
  // always now().
  q.submitted = arrived;
  if (config_.net.reliability.question_deadline > 0.0) {
    q.deadline = q.submitted + config_.net.reliability.question_deadline;
  }
  NodeId host = dns_node;
  std::size_t restarts = 0;

  // Cache identity of this question: the normalized text is the cache key
  // on every node, and its signature drives the affinity dispatch. Empty
  // key <=> caching off, so the uncached path stays byte-identical.
  const bool cache_on = !caches_.empty();
  const std::string cache_key =
      cache_on ? cache::normalize_question(plan.source.text) : std::string();
  bool served_from_cache = false;  // answered by an answer-cache hit

  // Selective search: which PR units (and, scaled, AP candidates) this
  // question touches. Computed lazily at most once per question — the
  // selection counters must not double-count across host-crash restarts,
  // and answer-cache hits must not count at all. With selection off this
  // is the identity and the question is byte-identical to the flat path.
  std::optional<SelectionResult> sel_opt;
  std::size_t ap_count = plan.ap_units.size();
  const auto ensure_selection = [&] {
    if (sel_opt.has_value()) return;
    sel_opt = select_pr_units(plan);
    if (sel_opt->pruned && !plan.ap_units.empty()) {
      // Fewer sub-collections searched => proportionally fewer candidate
      // paragraphs reach Answer Processing. At least one survives: the
      // selected shards always contribute something.
      ap_count = std::clamp(
          static_cast<std::size_t>(std::ceil(
              static_cast<double>(plan.ap_units.size()) * sel_opt->kept_fraction)),
          std::size_t{1}, plan.ap_units.size());
      ins_.selection_ap_units_pruned->inc(
          static_cast<double>(plan.ap_units.size() - ap_count));
    }
  };

  // One span per question lifetime; stage spans nest under it on the same
  // track, PR/AP legs fork onto their own tracks.
  std::uint64_t q_track = 0;
  obs::SpanId q_span = obs::kNoSpan;
  if (tracer_ != nullptr) {
    q_track = tracer_->new_track();
    q_span = tracer_->begin_span(
        sim_.now(), "question", dns_node, q_track, obs::kNoSpan,
        {{"question", static_cast<std::int64_t>(plan.source.id)},
         {"policy", std::string(to_string(config_.dispatch.policy))}});
  }

  // The DNS front-end may hand a question to a node that has left the
  // pool or crashed (its A record outlives the membership): reroute to the
  // least loaded live member, regardless of policy.
  if (!table_.is_member(host) || node_crashed_[host] != 0) {
    host = pick_live(sched::kQaWeights);
  }

  // ---- Scheduling point 1 (first placement only; a retry after a host
  // crash goes straight to the least-loaded live node instead).
  if (config_.dispatch.policy == Policy::kTwoChoice) {
    // Power-of-two-choices: sample two members, keep the lighter.
    const auto members = table_.members();
    if (members.size() >= 2) {
      const NodeId a = members[two_choice_rng_.below(members.size())];
      NodeId b = a;
      while (b == a) b = members[two_choice_rng_.below(members.size())];
      const double la =
          sched::load_function(table_.load_of(a), sched::kQaWeights);
      const double lb =
          sched::load_function(table_.load_of(b), sched::kQaWeights);
      const NodeId choice = la <= lb ? a : b;
      if (choice != host && schedulable(choice)) {
        const bool moved = co_await ship(
            static_cast<double>(plan.question_bytes), host, choice, q.deadline);
        if (moved) {
          host = choice;
          ins_.migrations_qa->inc();
        }  // else: the question stays put — the home node can always host
      }
    }
  } else if (config_.dispatch.policy != Policy::kDns && table_.is_member(host)) {
    // With caching on, the question dispatcher routes by cache affinity:
    // steer the question to the rendezvous-preferred node (the one most
    // likely to hold its cached answer) unless that node is overloaded or
    // gone — then the paper's load-based rule decides as usual.
    std::optional<NodeId> preferred;
    if (cache_on && config_.dispatch.cache_affinity) {
      preferred = affinity_target(cache::question_signature(cache_key));
    }
    const auto decision =
        preferred.has_value()
            ? sched::decide_affinity(table_, host, *preferred,
                                     sched::kQaWeights,
                                     sched::single_task_load(sched::kQaWeights),
                                     &registry_)
            : sched::decide_migration(
                  table_, host, sched::kQaWeights,
                  sched::single_task_load(sched::kQaWeights), &registry_);
    if (decision.migrate && schedulable(decision.target)) {
      const bool moved =
          co_await ship(static_cast<double>(plan.question_bytes), host,
                        decision.target, q.deadline);
      if (moved) {
        host = decision.target;
        ins_.migrations_qa->inc();
        record_trace(host, "question " + std::to_string(plan.source.id) +
                               " migrated from N" +
                               std::to_string(dns_node + 1));
      }
    }
  }
  if (node_crashed_[host] != 0) host = pick_live(sched::kQaWeights);

  // Backup target for a hedged leg: the least-loaded live member other
  // than the (presumed slow) primary, preferring unsuspected non-straggler
  // members. Returns nullopt when the pool holds no alternative.
  const auto pick_backup =
      [&](NodeId exclude, const sched::LoadWeights& weights,
          sched::LegStage stage) -> std::optional<NodeId> {
    const auto mask = straggler_mask(stage);
    for (const bool allow_straggler : {false, true}) {
      for (const bool allow_suspect : {false, true}) {
        std::optional<NodeId> best;
        double best_load = 0.0;
        for (const NodeId m : table_.members()) {
          if (m == exclude || node_crashed_[m] != 0) continue;
          if (!allow_suspect && !schedulable(m)) continue;
          if (!allow_straggler && m < mask.size() && mask[m] != 0) continue;
          const double load = sched::load_function(table_.load_of(m), weights);
          if (!best.has_value() || load < best_load) {
            best = m;
            best_load = load;
          }
        }
        if (best.has_value()) return best;
      }
    }
    return std::nullopt;
  };

  // ---- Attempt loop: one pass per host. A host crash loses the question
  // (its state dies with the process); after the front-end's reply timeout
  // it is resubmitted to a surviving node and starts over from QP.
  for (;;) {
    q.host = host;
    q.degraded = false;  // a restarted attempt recomputes everything
    const std::size_t host_epoch = crash_epoch_[host];
    const auto host_dead = [&] { return crash_epoch_[host] != host_epoch; };
    bool failed = false;

    nodes_[host]->question_arrived();
    // Reserve the question's expected load so simultaneous arrivals don't
    // all herd onto the same momentarily-idle node before the next
    // broadcast. Under heavy churn the host may not be a table member at
    // this point (every member was dead or suspect and pick_live fell back
    // to a non-crashed node, or membership expired during a migration
    // ship) — then there is no entry to reserve against; the node's next
    // broadcast will carry its true load.
    if (table_.is_member(host)) {
      table_.reserve(host, sched::ResourceLoad{sched::kQaWeights.cpu,
                                               sched::kQaWeights.disk});
    }
    record_trace(host, "started question " + std::to_string(plan.source.id));

    // ---- Cache probe (before QP): an answer hit short-circuits the whole
    // QP->PR->PS->PO->AP pipeline; a paragraph hit on answer miss still
    // skips the disk-bound PR stage. The probe itself costs lookup_cpu on
    // the host's CPU, hit or miss.
    bool cached_paragraphs = false;
    if (cache_on) {
      const Seconds t0 = sim_.now();
      co_await nodes_[host]->cpu().consume(config_.cache.lookup_cpu *
                                           nodes_[host]->work_multiplier() *
                                           nodes_[host]->gray_cpu_factor());
      failed = host_dead();
      bool cached_answer = false;
      if (!failed) {
        NodeCaches& shard = *caches_[host];
        if (config_.cache.answers.enabled()) {
          cached_answer = shard.answers.find(cache_key, sim_.now()) != nullptr;
          (cached_answer ? ins_.cache_hits : ins_.cache_misses)->inc();
        }
        if (!cached_answer && config_.cache.paragraphs.enabled()) {
          cached_paragraphs =
              shard.paragraphs.find(cache_key, sim_.now()) != nullptr;
          (cached_paragraphs ? ins_.pr_cache_hits : ins_.pr_cache_misses)
              ->inc();
        }
      }
      if (tracer_ != nullptr) {
        // Recorded retroactively so a crash mid-probe leaves no dangling
        // span; the lookup is pure CPU, so begin+end brackets it exactly.
        const obs::SpanId sp = tracer_->begin_span(
            t0, "cache lookup", host, q_track, q_span,
            {{"answer_hit", std::int64_t{cached_answer ? 1 : 0}},
             {"paragraph_hit", std::int64_t{cached_paragraphs ? 1 : 0}}});
        tracer_->end_span(sp, sim_.now());
      }
      if (!failed && cached_answer) {
        record_trace(host, "question " + std::to_string(plan.source.id) +
                               " answered from cache");
        served_from_cache = true;
        break;
      }
    }

    // ---- QP (sequential, on the host).
    if (!failed) {
      const Seconds t0 = sim_.now();
      obs::SpanId sp = obs::kNoSpan;
      if (tracer_ != nullptr) {
        sp = tracer_->begin_span(t0, "QP", host, q_track, q_span, {});
      }
      co_await nodes_[host]->cpu().consume(plan.qp.cpu_seconds *
                                           nodes_[host]->work_multiplier() *
                                           nodes_[host]->gray_cpu_factor());
      failed = host_dead();
      q.t_qp = sim_.now() - t0;
      if (sp != obs::kNoSpan) tracer_->end_span(sp, sim_.now());
    }

    // ---- Scheduling point 2: the PR dispatcher (DQA only). Skipped
    // entirely on a paragraph-cache hit: the accepted, scored paragraphs
    // are already on the host's disk from a previous run of this question.
    if (!failed && !cached_paragraphs) {
      // Replica-aware mode (R < nodes): placement is constrained to ready
      // replica holders, so the scatter is computed per unit by
      // assign_pr_units instead of the unconstrained meta-schedule below.
      const bool sharded = shard_partial_;
      ensure_selection();
      const SelectionResult& sel = *sel_opt;
      // Broker tier: the host routes per-group slices through mediator
      // nodes instead of fanning out to every holder itself.
      const bool brokered = topology_.has_value();
      std::vector<NodeId> pr_nodes{host};
      std::vector<double> pr_weights{1.0};
      // table_.size() can hit zero under mass churn (every member crashed,
      // partitioned away, or expired) — then the host carries the stage
      // alone, same as when every selected node turns out dead below.
      if (!sharded && config_.dispatch.policy == Policy::kDqa &&
          table_.size() > 0) {
        auto ms = sched::meta_schedule(table_, sched::kPrWeights,
                                       config_.dispatch.pr_underload_threshold,
                                       &registry_,
                                       straggler_mask(sched::LegStage::kPr));
        // Drop nodes that crashed (but have not yet expired from the
        // table) or are currently suspected by the failure detector.
        std::vector<NodeId> live_sel;
        std::vector<double> live_w;
        for (std::size_t i = 0; i < ms.selected.size(); ++i) {
          if (!schedulable(ms.selected[i])) continue;
          live_sel.push_back(ms.selected[i]);
          live_w.push_back(ms.weights[i]);
        }
        ms.selected = std::move(live_sel);
        ms.weights = std::move(live_w);
        if (ms.selected.empty()) {
          ms.selected = {host};
          ms.weights = {1.0};
        }
        if (!config_.partition.enable && ms.selected.size() > 1) {
          // Partitioning disabled: keep only the heaviest-weighted node.
          const std::size_t best = static_cast<std::size_t>(
              std::max_element(ms.weights.begin(), ms.weights.end()) -
              ms.weights.begin());
          ms.selected = {ms.selected[best]};
          ms.weights = {1.0};
          ms.partitioned = false;
        }
        if (!(ms.selected.size() == 1 && ms.selected[0] == host)) {
          ins_.migrations_pr->inc();
        }
        pr_nodes = std::move(ms.selected);
        pr_weights = std::move(ms.weights);
      }

      // ---- PR stage with supervision. Legs report on `reports`; a reply
      // silence of membership_timeout triggers a liveness sweep, and dead
      // legs' unfinished sub-collections are recovered: requeued on the
      // shared deque under RECV, re-partitioned over the surviving stage
      // nodes under SEND. Finished units are durable (their paragraphs
      // already reached the host disk), so recovery is per-unit.
      const Seconds pr_start = sim_.now();
      obs::SpanId pr_span = obs::kNoSpan;
      if (tracer_ != nullptr) {
        pr_span = tracer_->begin_span(
            pr_start, "PR", host, q_track, q_span,
            {{"legs", static_cast<std::int64_t>(pr_nodes.size())},
             {"units", static_cast<std::int64_t>(sel.units.size())}});
      }
      if (brokered) {
        // ---- Brokered PR: slice the selected units by shard group, hand
        // each slice to that group's broker, and supervise the brokers the
        // way the flat path supervises worker legs. A broker that crashes
        // or goes unreachable has its whole slice re-routed through an
        // acting broker in the same group (finished units are redone — the
        // aggregate never shipped), or dropped as degraded when the group
        // has no usable delegate left. No hedging at this level: the
        // brokers already re-run straggling workers' units in-subtree.
        simnet::Mailbox<std::size_t> reports(sim_);
        std::vector<std::shared_ptr<BrokerSlot>> slots;
        std::uint64_t swept_crashes = crash_count_;
        const auto spawn_broker = [&](NodeId node, std::size_t group,
                                      std::vector<std::size_t> units) {
          auto slot = std::make_shared<BrokerSlot>();
          slot->node = node;
          slot->epoch = crash_epoch_[node];
          slot->group = group;
          slot->units = std::move(units);
          for (const std::size_t u : slot->units) {
            slot->bytes_out += static_cast<double>(plan.pr_units[u].bytes_out);
          }
          slot->stage_span = pr_span;
          slot->spawned = sim_.now();
          slot->inner = std::make_shared<simnet::Mailbox<std::size_t>>(sim_);
          ins_.broker_legs->inc();
          ins_.legs_spawned->inc();
          slots.push_back(slot);
          broker_leg(q, slot, slots.size() - 1, reports);
        };
        // A group's acting broker: the designated one (first node of the
        // group) when it is schedulable, otherwise the least-loaded live
        // member of the group range.
        const auto acting_broker =
            [&](std::size_t group,
                std::optional<NodeId> exclude) -> std::optional<NodeId> {
          const NodeId designated = topology_->broker_node(group);
          if (designated != exclude && schedulable(designated)) {
            return designated;
          }
          const auto [first, last] = topology_->group_range(group);
          const auto pick =
              sched::pick_delegate(table_, first, last, sched::kPrWeights);
          if (!pick.has_value() || pick == exclude ||
              node_crashed_[*pick] != 0) {
            return std::nullopt;
          }
          return pick;
        };
        const auto degrade_units = [&](std::size_t count) {
          q.degraded = true;
          ins_.degraded_units_dropped->inc(static_cast<double>(count));
          ins_.shard_units_unserved->inc(static_cast<double>(count));
        };
        std::vector<std::vector<std::size_t>> by_group(
            config_.broker.brokers);
        for (const std::size_t u : sel.units) {
          by_group[topology_->group_of_shard(shard_map_->shard_of_unit(u))]
              .push_back(u);
        }
        bool off_host = false;
        std::size_t groups_used = 0;
        for (std::size_t g = 0; g < by_group.size(); ++g) {
          if (by_group[g].empty()) continue;
          ++groups_used;
          const auto broker = acting_broker(g, std::nullopt);
          if (!broker.has_value()) {
            degrade_units(by_group[g].size());
            record_trace(host, "group " + std::to_string(g) +
                                   " has no usable broker: dropped " +
                                   std::to_string(by_group[g].size()) +
                                   " collections (degraded)");
            continue;
          }
          if (*broker != topology_->broker_node(g)) {
            ins_.broker_reroutes->inc();
          }
          if (*broker != host) off_host = true;
          spawn_broker(*broker, g, std::move(by_group[g]));
        }
        if (off_host || groups_used > 1) ins_.migrations_pr->inc();

        std::size_t outstanding = slots.size();
        // Re-route a failed broker's whole slice (or degrade it once no
        // delegate or deadline budget remains).
        const auto reroute = [&](BrokerSlot& s) {
          if (s.units.empty()) return;
          if (deadline_exceeded(q)) {
            degrade_units(s.units.size());
            record_trace(host, "deadline spent: dropped " +
                                   std::to_string(s.units.size()) +
                                   " collections (degraded)");
            return;
          }
          const auto next = acting_broker(s.group, s.node);
          if (!next.has_value()) {
            degrade_units(s.units.size());
            record_trace(host, "group " + std::to_string(s.group) +
                                   " has no surviving broker: dropped " +
                                   std::to_string(s.units.size()) +
                                   " collections (degraded)");
            return;
          }
          ins_.broker_reroutes->inc();
          ins_.recovery_legs->inc();
          record_trace(host, "re-routing group " + std::to_string(s.group) +
                                 " through N" + std::to_string(*next + 1));
          spawn_broker(*next, s.group, s.units);
          ++outstanding;
        };
        while (outstanding > 0) {
          const auto msg =
              co_await reports.recv_for(config_.net.membership_timeout);
          if (msg.has_value()) {
            --outstanding;
            BrokerSlot& s = *slots[*msg];
            if (!s.unreachable) {
              observe_leg(sched::LegStage::kPr, s.node, sim_.now() - s.spawned,
                          static_cast<double>(s.done), false);
              if (s.unserved > 0) {
                // The broker already counted the unserved units against
                // shard_units_unserved at the site where they were lost.
                q.degraded = true;
                ins_.degraded_units_dropped->inc(
                    static_cast<double>(s.unserved));
              }
              if (!host_dead()) {
                // One merge per broker aggregate — not one per worker leg.
                // This is the serial-cost redistribution the tier buys.
                co_await nodes_[host]->cpu().consume(
                    config_.shard.partial_merge_cpu *
                    nodes_[host]->work_multiplier() *
                    nodes_[host]->gray_cpu_factor());
              }
              continue;
            }
            ins_.broker_unreachable->inc();
            ins_.legs_unreachable->inc();
            detector_.suspect_hint(s.node, sim_.now());
            if (detector_placement_) table_.mark_stale(s.node);
            record_trace(host, "broker N" + std::to_string(s.node + 1) +
                                   " unreachable during PR");
            if (host_dead()) continue;  // the whole question restarts
            reroute(s);
            continue;
          }
          // Reply timeout: sweep for crashed brokers. Their worker legs
          // are orphaned — abandon them (zombie contract) and close their
          // spans here, since neither the dead broker nor anyone else will.
          if (crash_count_ == swept_crashes) continue;  // see the PR loop
          swept_crashes = crash_count_;
          const bool host_down = host_dead();
          const std::size_t count = slots.size();
          for (std::size_t i = 0; i < count; ++i) {
            BrokerSlot& s = *slots[i];
            if (s.reported || s.declared_dead || s.abandoned) continue;
            if (crash_epoch_[s.node] == s.epoch) continue;  // still alive
            s.declared_dead = true;
            --outstanding;
            ins_.legs_lost->inc();
            if (tracer_ != nullptr && s.leg_span != obs::kNoSpan) {
              tracer_->end_span(s.leg_span, sim_.now(),
                                {{"crashed", std::int64_t{1}}});
              s.leg_span = obs::kNoSpan;
            }
            for (const auto& wsp : s.workers) {
              PrLegSlot& w = *wsp;
              if (w.reported || w.declared_dead || w.abandoned) continue;
              w.abandoned = true;
              if (tracer_ != nullptr && w.leg_span != obs::kNoSpan) {
                tracer_->end_span(w.leg_span, sim_.now(),
                                  {{"orphaned", std::int64_t{1}}});
                w.leg_span = obs::kNoSpan;
              }
            }
            table_.remove(s.node);
            record_trace(host, "lost contact with broker N" +
                                   std::to_string(s.node + 1) + " during PR");
            if (host_down) continue;  // the whole question restarts anyway
            ins_.items_recovered->inc(static_cast<double>(s.units.size()));
            ins_.recovery_latency->observe(sim_.now() - crash_time_[s.node]);
            reroute(s);
          }
        }
      } else {
        simnet::Mailbox<std::size_t> reports(sim_);
        std::vector<std::shared_ptr<PrLegSlot>> slots;
        std::uint64_t swept_crashes = crash_count_;
        const auto spawn = [&](NodeId node,
                               std::shared_ptr<std::deque<std::size_t>> units,
                               std::shared_ptr<HedgeGroup> group = nullptr,
                               bool backup = false) {
          auto slot = std::make_shared<PrLegSlot>();
          slot->node = node;
          slot->epoch = crash_epoch_[node];
          slot->units = std::move(units);
          slot->stage_span = pr_span;
          slot->spawned = sim_.now();
          slot->group = std::move(group);
          slot->hedge_backup = backup;
          (backup ? ins_.hedges_issued : ins_.legs_spawned)->inc();
          slots.push_back(slot);
          pr_leg(q, slot, slots.size() - 1, reports, host);
        };
        const bool shared_queue =
            !sharded && (config_.partition.pr_strategy == Strategy::kRecv ||
                         pr_nodes.size() == 1);
        std::shared_ptr<std::deque<std::size_t>> shared_units;
        if (sharded) {
          // Scatter-gather over replica holders. Legs get private queues:
          // holders of different shards cannot compete for each other's
          // units, so the RECV shared deque does not apply here. With
          // selection off, sel.units is every unit — the pre-broker path.
          auto assignment = assign_pr_units(sel.units, std::nullopt);
          bool off_host = false;
          for (auto& [node, block] : assignment.legs) {
            if (node != host) off_host = true;
            spawn(node, std::make_shared<std::deque<std::size_t>>(
                            std::move(block)));
          }
          if (off_host || assignment.legs.size() > 1) {
            ins_.migrations_pr->inc();
          }
          if (!assignment.unplaced.empty()) {
            // Shards with no live ready holder: their slice of the corpus
            // cannot be searched right now. Degrade rather than block on a
            // rebuild — the paper's interactive deadline beats completeness.
            q.degraded = true;
            ins_.degraded_units_dropped->inc(
                static_cast<double>(assignment.unplaced.size()));
            ins_.shard_units_unserved->inc(
                static_cast<double>(assignment.unplaced.size()));
            record_trace(host,
                         "no ready replica for " +
                             std::to_string(assignment.unplaced.size()) +
                             " collections (degraded)");
          }
        } else if (shared_queue) {
          // Receiver-controlled: every leg competes for the sub-collection
          // queue (paper Fig. 7a: "four nodes compete for the 8 sub-
          // collections").
          shared_units = std::make_shared<std::deque<std::size_t>>();
          for (std::size_t i = 0; i < plan.pr_units.size(); ++i) {
            shared_units->push_back(i);
          }
          for (NodeId node : pr_nodes) spawn(node, shared_units);
        } else {
          // SEND ablation: weighted contiguous blocks of sub-collections.
          const auto partitions =
              parallel::partition_send(plan.pr_units.size(), pr_weights);
          for (const auto& p : partitions) {
            spawn(pr_nodes[p.worker],
                  std::make_shared<std::deque<std::size_t>>(p.items.begin(),
                                                            p.items.end()));
          }
        }

        std::size_t outstanding = slots.size();
        const bool hedge_on = config_.tail.hedge;
        // Settles a hedge race in favor of `winner`: counts the win/loss,
        // abandons every unresolved member (closing its span and, in tied
        // mode, cancelling its in-service reservation), and requeues any
        // in-flight unit a shared-queue primary picked up *after* the
        // hedge snapshot (nobody else covers that one).
        const auto resolve_hedge = [&](std::size_t winner) {
          PrLegSlot& w = *slots[winner];
          if (w.group == nullptr || w.group->resolved) return;
          const auto group = w.group;
          group->resolved = true;
          (w.hedge_backup ? ins_.hedge_wins : ins_.hedge_losses)->inc();
          bool requeued = false;
          for (const std::size_t m : group->members) {
            if (m == winner) continue;
            PrLegSlot& s = *slots[m];
            if (s.reported || s.declared_dead || s.abandoned) continue;
            s.abandoned = true;
            --outstanding;
            if (tracer_ != nullptr && s.leg_span != obs::kNoSpan) {
              // The loser never closes its own span (it exits at its next
              // co_await); close it here so critical-path attribution can
              // both skip it and bill its duration as hedge waste.
              tracer_->end_span(
                  s.leg_span, sim_.now(),
                  {{"hedge_loser", std::int64_t{1}},
                   {"cancelled", std::int64_t{config_.tail.tied ? 1 : 0}}});
              s.leg_span = obs::kNoSpan;
            }
            if (config_.tail.tied && s.busy_server != nullptr) {
              if (s.busy_server->cancel(s.busy_handle)) {
                ins_.legs_cancelled->inc();
              }
              s.busy_server = nullptr;
            }
            if (!s.hedge_backup && s.in_flight != kNoUnit &&
                std::find(group->covered.begin(), group->covered.end(),
                          s.in_flight) == group->covered.end()) {
              if (shared_units != nullptr) {
                shared_units->push_front(s.in_flight);
                requeued = true;
              }
            }
            s.in_flight = kNoUnit;
          }
          if (requeued) {
            bool any_live = false;
            for (const auto& sp : slots) {
              if (!sp->reported && !sp->declared_dead && !sp->abandoned &&
                  !sp->hedge_backup) {
                any_live = true;
                break;
              }
            }
            if (!any_live) {
              spawn(pick_live(sched::kPrWeights), shared_units);
              ++outstanding;
              ins_.recovery_legs->inc();
            }
          }
        };
        // Due time for a waiting leg: the per-unit wall quantile scaled by
        // the units the leg carries (done + in-flight + still queued),
        // floored by hedge_min_delay. Scaling by the leg's own size is
        // what keeps big-but-healthy legs from tripping the trigger.
        const auto hedge_due = [&](const PrLegSlot& s, Seconds per_unit) {
          const double expected = static_cast<double>(
              s.done + (s.in_flight != kNoUnit ? 1 : 0) +
              (s.units != nullptr ? s.units->size() : 0));
          return s.spawned + std::max(per_unit * std::max(expected, 1.0),
                                      config_.tail.hedge_min_delay);
        };
        while (outstanding > 0) {
          // Hedge trigger: wake before the reply timeout when the oldest
          // hedgeable leg crosses the observed leg-wall quantile. A leg is
          // hedgeable once its remaining work is private (a shared-queue
          // leg only after the shared deque drained — its in-flight unit
          // is then all that is left of the stage on that node).
          Seconds wait = config_.net.membership_timeout;
          bool hedge_wake = false;
          if (hedge_on) {
            if (const auto delay = hedge_delay(sched::LegStage::kPr)) {
              std::optional<Seconds> due;
              for (const auto& sp : slots) {
                const PrLegSlot& s = *sp;
                if (s.reported || s.declared_dead || s.abandoned ||
                    s.hedged || s.hedge_backup) {
                  continue;
                }
                if (shared_queue &&
                    (!shared_units->empty() || s.in_flight == kNoUnit)) {
                  continue;
                }
                const Seconds at = hedge_due(s, *delay);
                if (!due.has_value() || at < *due) due = at;
              }
              if (due.has_value() && *due - sim_.now() < wait) {
                wait = std::max(*due - sim_.now(), 0.0);
                hedge_wake = true;
              }
            }
          }
          const auto msg = co_await reports.recv_for(wait);
          if (msg.has_value()) {
            --outstanding;
            PrLegSlot& s = *slots[*msg];
            if (!s.unreachable) {
              observe_leg(sched::LegStage::kPr, s.node, sim_.now() - s.spawned,
                          static_cast<double>(s.done), s.hedge_backup);
              resolve_hedge(*msg);
              if (sharded && !host_dead()) {
                // Partial merge: fold this shard leg's scored paragraphs
                // into the host's merged candidate stream feeding
                // Paragraph Ordering (the scatter-gather reduce step).
                co_await nodes_[host]->cpu().consume(
                    config_.shard.partial_merge_cpu *
                    nodes_[host]->work_multiplier() *
                    nodes_[host]->gray_cpu_factor());
              }
              continue;
            }
            // The leg burned its retry budget talking to its node: alive
            // but cut off. Steer placement away from it, then either
            // re-partition the work still parked in the slot over
            // reachable survivors or — past the deadline budget — drop it
            // and flag the answer degraded.
            ins_.legs_unreachable->inc();
            detector_.suspect_hint(s.node, sim_.now());
            if (detector_placement_) table_.mark_stale(s.node);
            record_trace(host, "N" + std::to_string(s.node + 1) +
                                   " unreachable during PR");
            // An unreachable backup drops out of its race without recovery:
            // its units are copies, the primary still owns the work.
            if (s.hedge_backup) continue;
            if (host_dead()) continue;  // the whole question restarts
            std::deque<std::size_t> lost;
            if (s.in_flight != kNoUnit) {
              lost.push_back(s.in_flight);
              s.in_flight = kNoUnit;
            }
            if (!shared_queue) {
              for (std::size_t u : *s.units) lost.push_back(u);
              s.units->clear();
            }
            if (lost.empty()) continue;
            if (deadline_exceeded(q)) {
              q.degraded = true;
              ins_.degraded_units_dropped->inc(
                  static_cast<double>(lost.size()));
              record_trace(host, "deadline spent: dropped " +
                                     std::to_string(lost.size()) +
                                     " collections (degraded)");
              continue;
            }
            ins_.items_recovered->inc(static_cast<double>(lost.size()));
            record_trace(host, "recovered " + std::to_string(lost.size()) +
                                   " collections from unreachable N" +
                                   std::to_string(s.node + 1));
            if (sharded) {
              // Failover to surviving replicas of each lost unit's shard
              // (excluding the unreachable holder). Units whose shard has
              // no other live ready holder are dropped: degraded.
              const std::vector<std::size_t> lost_units(lost.begin(),
                                                        lost.end());
              auto assignment = assign_pr_units(lost_units, s.node);
              for (auto& [node, block] : assignment.legs) {
                spawn(node, std::make_shared<std::deque<std::size_t>>(
                                std::move(block)));
                ++outstanding;
                ins_.recovery_legs->inc();
              }
              if (!assignment.unplaced.empty()) {
                q.degraded = true;
                ins_.degraded_units_dropped->inc(
                    static_cast<double>(assignment.unplaced.size()));
                ins_.shard_units_unserved->inc(
                    static_cast<double>(assignment.unplaced.size()));
                record_trace(host,
                             "no surviving replica for " +
                                 std::to_string(assignment.unplaced.size()) +
                                 " collections (degraded)");
              }
              continue;
            }
            if (shared_queue) {
              for (auto it = lost.rbegin(); it != lost.rend(); ++it) {
                shared_units->push_front(*it);
              }
              bool any_live = false;
              for (const auto& sp : slots) {
                // A backup leg drains a private copy, not the shared
                // deque, so it cannot rescue requeued units.
                if (!sp->reported && !sp->declared_dead && !sp->abandoned &&
                    !sp->hedge_backup) {
                  any_live = true;
                  break;
                }
              }
              if (!any_live) {
                spawn(pick_live(sched::kPrWeights), shared_units);
                ++outstanding;
                ins_.recovery_legs->inc();
              }
            } else {
              std::vector<NodeId> survivors;
              std::vector<double> weights;
              for (std::size_t i = 0; i < pr_nodes.size(); ++i) {
                if (pr_nodes[i] == s.node || !schedulable(pr_nodes[i])) {
                  continue;
                }
                survivors.push_back(pr_nodes[i]);
                weights.push_back(pr_weights[i]);
              }
              if (survivors.empty()) {
                survivors.push_back(host);  // host is live and local
                weights.push_back(1.0);
              }
              const auto parts =
                  parallel::partition_send(lost.size(), weights);
              for (const auto& p : parts) {
                auto block = std::make_shared<std::deque<std::size_t>>();
                for (std::size_t j : p.items) block->push_back(lost[j]);
                spawn(survivors[p.worker], std::move(block));
                ++outstanding;
                ins_.recovery_legs->inc();
              }
            }
            continue;
          }
          if (hedge_wake) {
            // The shortened wait elapsed because a leg crossed the hedge
            // trigger, not because replies went silent: issue backups for
            // every due leg, then go back to waiting. Each leg is hedged
            // (or declined — no placement available) at most once.
            const auto delay = hedge_delay(sched::LegStage::kPr);
            if (delay.has_value()) {
              const std::size_t count = slots.size();
              for (std::size_t i = 0; i < count; ++i) {
                PrLegSlot& s = *slots[i];
                if (s.reported || s.declared_dead || s.abandoned ||
                    s.hedged || s.hedge_backup) {
                  continue;
                }
                if (shared_queue &&
                    (!shared_units->empty() || s.in_flight == kNoUnit)) {
                  continue;
                }
                if (sim_.now() < hedge_due(s, *delay)) continue;
                s.hedged = true;
                // Snapshot of the primary's remaining work — what the
                // backup re-runs. Private-queue legs only ever drain this
                // set, so the backups cover the primary completely.
                std::vector<std::size_t> snapshot;
                if (s.in_flight != kNoUnit) snapshot.push_back(s.in_flight);
                if (!shared_queue) {
                  for (const std::size_t u : *s.units) snapshot.push_back(u);
                }
                if (snapshot.empty()) continue;
                auto group = std::make_shared<HedgeGroup>();
                group->members.push_back(i);
                group->covered = snapshot;
                if (sharded) {
                  // Backups must be replica holders. Only hedge when the
                  // whole snapshot is placeable off the primary — a partial
                  // backup could not take over on a win.
                  auto assignment = assign_pr_units(snapshot, s.node);
                  if (!assignment.unplaced.empty() ||
                      assignment.legs.empty()) {
                    continue;
                  }
                  s.group = group;
                  for (auto& [node, block] : assignment.legs) {
                    spawn(node,
                          std::make_shared<std::deque<std::size_t>>(
                              std::move(block)),
                          group, /*backup=*/true);
                    group->members.push_back(slots.size() - 1);
                    ++outstanding;
                  }
                } else {
                  const auto backup_node =
                      pick_backup(s.node, sched::kPrWeights,
                                  sched::LegStage::kPr);
                  if (!backup_node.has_value()) continue;
                  s.group = group;
                  spawn(*backup_node,
                        std::make_shared<std::deque<std::size_t>>(
                            snapshot.begin(), snapshot.end()),
                        group, /*backup=*/true);
                  group->members.push_back(slots.size() - 1);
                  ++outstanding;
                }
                record_trace(host, "hedged PR leg on N" +
                                       std::to_string(s.node + 1));
              }
            }
            continue;
          }
          // Reply timeout: sweep the unreported legs for dead nodes. A
          // sweep finds only legs whose node crashed after their spawn, so
          // with no crash since the last one it would find nothing.
          if (crash_count_ == swept_crashes) continue;
          swept_crashes = crash_count_;
          const bool host_down = host_dead();
          std::size_t requeued = 0;
          std::vector<std::pair<NodeId, std::deque<std::size_t>>> respawn;
          for (const auto& sp : slots) {
            PrLegSlot& s = *sp;
            if (s.reported || s.declared_dead || s.abandoned) continue;
            if (crash_epoch_[s.node] == s.epoch) continue;  // still alive
            s.declared_dead = true;
            --outstanding;
            ins_.legs_lost->inc();
            if (tracer_ != nullptr && s.leg_span != obs::kNoSpan) {
              // The leg is a zombie and will never close its own span.
              tracer_->end_span(s.leg_span, sim_.now(),
                                {{"crashed", std::int64_t{1}}});
              s.leg_span = obs::kNoSpan;
            }
            table_.remove(s.node);
            record_trace(host, "lost contact with N" +
                                   std::to_string(s.node + 1) + " during PR");
            if (host_down) continue;  // the whole question restarts anyway
            // A dead backup's units are copies; whoever it was backing up
            // still owns the work — nothing to recover.
            if (s.hedge_backup) continue;
            std::deque<std::size_t> lost;
            if (s.in_flight != kNoUnit) {
              lost.push_back(s.in_flight);
              s.in_flight = kNoUnit;
            }
            if (!shared_queue) {
              for (std::size_t u : *s.units) lost.push_back(u);
              s.units->clear();
            }
            if (lost.empty()) continue;
            ins_.items_recovered->inc(static_cast<double>(lost.size()));
            ins_.recovery_latency->observe(sim_.now() - crash_time_[s.node]);
            record_trace(host, "recovered " + std::to_string(lost.size()) +
                                   " collections from N" +
                                   std::to_string(s.node + 1));
            if (sharded) {
              // Failover to surviving replicas (apply_crash already struck
              // the dead holder from the map and kicked off background
              // re-replication; retrieval needs only what's ready now).
              const std::vector<std::size_t> lost_units(lost.begin(),
                                                        lost.end());
              auto assignment = assign_pr_units(lost_units, s.node);
              for (auto& leg : assignment.legs) {
                respawn.push_back(std::move(leg));
              }
              if (!assignment.unplaced.empty()) {
                q.degraded = true;
                ins_.degraded_units_dropped->inc(
                    static_cast<double>(assignment.unplaced.size()));
                ins_.shard_units_unserved->inc(
                    static_cast<double>(assignment.unplaced.size()));
                record_trace(host,
                             "no surviving replica for " +
                                 std::to_string(assignment.unplaced.size()) +
                                 " collections (degraded)");
              }
              continue;
            }
            if (shared_queue) {
              // Requeue at the front: surviving legs pick the units up the
              // next time they hit the deque.
              for (auto it = lost.rbegin(); it != lost.rend(); ++it) {
                shared_units->push_front(*it);
              }
              requeued += lost.size();
            } else {
              // Re-partition the dead leg's block over the surviving stage
              // nodes (their original weights).
              std::vector<NodeId> survivors;
              std::vector<double> weights;
              for (std::size_t i = 0; i < pr_nodes.size(); ++i) {
                if (!schedulable(pr_nodes[i])) continue;
                survivors.push_back(pr_nodes[i]);
                weights.push_back(pr_weights[i]);
              }
              if (survivors.empty()) {
                survivors.push_back(host);  // host is live: !host_down
                weights.push_back(1.0);
              }
              const auto parts =
                  parallel::partition_send(lost.size(), weights);
              for (const auto& p : parts) {
                std::deque<std::size_t> block;
                for (std::size_t j : p.items) block.push_back(lost[j]);
                respawn.emplace_back(survivors[p.worker], std::move(block));
              }
            }
          }
          for (auto& [node, block] : respawn) {
            spawn(node, std::make_shared<std::deque<std::size_t>>(
                            std::move(block)));
            ++outstanding;
            ins_.recovery_legs->inc();
          }
          if (requeued > 0) {
            // If no surviving leg is still draining the shared deque, the
            // requeued units would be stranded: spawn a recovery leg.
            bool any_live = false;
            for (const auto& sp : slots) {
              if (!sp->reported && !sp->declared_dead && !sp->abandoned &&
                  !sp->hedge_backup) {
                any_live = true;
                break;
              }
            }
            if (!any_live) {
              spawn(pick_live(sched::kPrWeights), shared_units);
              ++outstanding;
              ins_.recovery_legs->inc();
            }
          }
        }
      }
      q.t_pr_stage = sim_.now() - pr_start;
      if (pr_span != obs::kNoSpan) tracer_->end_span(pr_span, sim_.now());
      failed = host_dead();
    }

    // ---- PO (sequential and centralized, on the host).
    if (!failed) {
      const Seconds t0 = sim_.now();
      obs::SpanId sp = obs::kNoSpan;
      if (tracer_ != nullptr) {
        sp = tracer_->begin_span(t0, "PO", host, q_track, q_span, {});
      }
      co_await nodes_[host]->cpu().consume(plan.po.cpu_seconds *
                                           nodes_[host]->work_multiplier() *
                                           nodes_[host]->gray_cpu_factor());
      failed = host_dead();
      q.t_po = sim_.now() - t0;
      if (sp != obs::kNoSpan) tracer_->end_span(sp, sim_.now());
      if (!failed) {
        record_trace(host, "accepted " +
                               std::to_string(plan.accepted_paragraphs) +
                               " paragraphs");
      }
    }

    // ---- Scheduling point 3: the AP dispatcher (DQA only).
    if (!failed && !plan.ap_units.empty()) {
      // Covers the paragraph-cache-hit path, where the PR stage (and its
      // ensure_selection call) was skipped: AP still processes only the
      // candidates the selected sub-collections would have produced.
      ensure_selection();
      std::vector<NodeId> ap_nodes{host};
      std::vector<double> ap_weights{1.0};
      // Same empty-pool guard as the PR dispatcher above.
      if (config_.dispatch.policy == Policy::kDqa && table_.size() > 0) {
        auto ms = sched::meta_schedule(table_, sched::kApWeights,
                                       config_.dispatch.ap_underload_threshold,
                                       &registry_,
                                       straggler_mask(sched::LegStage::kAp));
        std::vector<NodeId> live_sel;
        std::vector<double> live_w;
        for (std::size_t i = 0; i < ms.selected.size(); ++i) {
          if (!schedulable(ms.selected[i])) continue;
          live_sel.push_back(ms.selected[i]);
          live_w.push_back(ms.weights[i]);
        }
        ms.selected = std::move(live_sel);
        ms.weights = std::move(live_w);
        if (ms.selected.empty()) {
          ms.selected = {host};
          ms.weights = {1.0};
        }
        if (!config_.partition.enable && ms.selected.size() > 1) {
          const std::size_t best = static_cast<std::size_t>(
              std::max_element(ms.weights.begin(), ms.weights.end()) -
              ms.weights.begin());
          ms.selected = {ms.selected[best]};
          ms.weights = {1.0};
          ms.partitioned = false;
        }
        if (!(ms.selected.size() == 1 && ms.selected[0] == host)) {
          ins_.migrations_ap->inc();
        }
        ap_nodes = std::move(ms.selected);
        ap_weights = std::move(ms.weights);
      }

      // ---- AP stage with supervision. Recovery granularity follows the
      // answer path: RECV loses only the in-flight chunk (requeued on the
      // shared deque); SEND/ISEND lose the whole partition (answers ship
      // once at the end), which is re-partitioned over the survivors.
      const Seconds ap_start = sim_.now();
      obs::SpanId ap_span = obs::kNoSpan;
      if (tracer_ != nullptr) {
        ap_span = tracer_->begin_span(
            ap_start, "AP", host, q_track, q_span,
            {{"legs", static_cast<std::int64_t>(ap_nodes.size())},
             {"paragraphs", static_cast<std::int64_t>(ap_count)}});
      }
      {
        simnet::Mailbox<std::size_t> reports(sim_);
        std::vector<std::shared_ptr<ApLegSlot>> slots;
        std::uint64_t swept_crashes = crash_count_;
        const auto spawn =
            [&](NodeId node, std::vector<std::size_t> units,
                std::shared_ptr<std::deque<parallel::Chunk>> chunks,
                std::shared_ptr<HedgeGroup> group = nullptr,
                bool backup = false) {
              auto slot = std::make_shared<ApLegSlot>();
              slot->node = node;
              slot->epoch = crash_epoch_[node];
              slot->units = std::move(units);
              slot->chunks = std::move(chunks);
              slot->stage_span = ap_span;
              slot->spawned = sim_.now();
              slot->group = std::move(group);
              slot->hedge_backup = backup;
              (backup ? ins_.hedges_issued : ins_.legs_spawned)->inc();
              slots.push_back(slot);
              ap_leg(q, slot, slots.size() - 1, reports);
            };
        const bool shared_queue =
            config_.partition.ap_strategy == Strategy::kRecv || ap_nodes.size() == 1;
        std::shared_ptr<std::deque<parallel::Chunk>> shared_chunks;
        if (shared_queue) {
          shared_chunks = std::make_shared<std::deque<parallel::Chunk>>();
          for (const auto& c :
               parallel::make_chunks(ap_count, config_.partition.ap_chunk)) {
            shared_chunks->push_back(c);
          }
          for (NodeId node : ap_nodes) spawn(node, {}, shared_chunks);
        } else {
          const auto partitions =
              config_.partition.ap_strategy == Strategy::kIsend
                  ? parallel::partition_isend(ap_count, ap_weights)
                  : parallel::partition_send(ap_count, ap_weights);
          for (const auto& p : partitions) {
            spawn(ap_nodes[p.worker], p.items, nullptr);
          }
        }

        std::size_t outstanding = slots.size();
        const bool hedge_on = config_.tail.hedge;
        // Hedge-race settlement — the AP twin of the PR resolve_hedge; the
        // only structural difference is the covered work unit (an in-flight
        // RECV chunk instead of PR sub-collections).
        const auto resolve_hedge = [&](std::size_t winner) {
          ApLegSlot& w = *slots[winner];
          if (w.group == nullptr || w.group->resolved) return;
          const auto group = w.group;
          group->resolved = true;
          (w.hedge_backup ? ins_.hedge_wins : ins_.hedge_losses)->inc();
          bool requeued = false;
          for (const std::size_t m : group->members) {
            if (m == winner) continue;
            ApLegSlot& s = *slots[m];
            if (s.reported || s.declared_dead || s.abandoned) continue;
            s.abandoned = true;
            --outstanding;
            if (tracer_ != nullptr && s.leg_span != obs::kNoSpan) {
              tracer_->end_span(
                  s.leg_span, sim_.now(),
                  {{"hedge_loser", std::int64_t{1}},
                   {"cancelled", std::int64_t{config_.tail.tied ? 1 : 0}}});
              s.leg_span = obs::kNoSpan;
            }
            if (config_.tail.tied && s.busy_server != nullptr) {
              if (s.busy_server->cancel(s.busy_handle)) {
                ins_.legs_cancelled->inc();
              }
              s.busy_server = nullptr;
            }
            if (!s.hedge_backup && s.has_in_flight &&
                !(group->has_covered_chunk &&
                  s.in_flight.begin == group->covered_chunk.begin &&
                  s.in_flight.end == group->covered_chunk.end)) {
              // The primary moved on to a chunk nobody covers: requeue it.
              if (shared_chunks != nullptr) {
                shared_chunks->push_front(s.in_flight);
                requeued = true;
              }
            }
            s.has_in_flight = false;
          }
          if (requeued) {
            bool any_live = false;
            for (const auto& sp : slots) {
              if (!sp->reported && !sp->declared_dead && !sp->abandoned &&
                  !sp->hedge_backup) {
                any_live = true;
                break;
              }
            }
            if (!any_live) {
              spawn(pick_live(sched::kApWeights), {}, shared_chunks);
              ++outstanding;
              ins_.recovery_legs->inc();
            }
          }
        };
        // Per-unit due time — the AP analogue of the PR loop's hedge_due.
        // RECV legs carry done paragraphs plus the in-flight chunk; a
        // SEND/ISEND partition is fixed, so its size alone is the load
        // (done already counts within it).
        const auto hedge_due = [&](const ApLegSlot& s, Seconds per_unit) {
          const double expected =
              shared_queue
                  ? static_cast<double>(
                        s.done + (s.has_in_flight ? s.in_flight.size() : 0))
                  : static_cast<double>(s.units.size());
          return s.spawned + std::max(per_unit * std::max(expected, 1.0),
                                      config_.tail.hedge_min_delay);
        };
        while (outstanding > 0) {
          // Hedge trigger — see the PR loop for the protocol.
          Seconds wait = config_.net.membership_timeout;
          bool hedge_wake = false;
          if (hedge_on) {
            if (const auto delay = hedge_delay(sched::LegStage::kAp)) {
              std::optional<Seconds> due;
              for (const auto& sp : slots) {
                const ApLegSlot& s = *sp;
                if (s.reported || s.declared_dead || s.abandoned ||
                    s.hedged || s.hedge_backup) {
                  continue;
                }
                if (shared_queue) {
                  if (!shared_chunks->empty() || !s.has_in_flight) continue;
                } else if (s.units.empty()) {
                  continue;
                }
                const Seconds at = hedge_due(s, *delay);
                if (!due.has_value() || at < *due) due = at;
              }
              if (due.has_value() && *due - sim_.now() < wait) {
                wait = std::max(*due - sim_.now(), 0.0);
                hedge_wake = true;
              }
            }
          }
          const auto msg = co_await reports.recv_for(wait);
          if (msg.has_value()) {
            --outstanding;
            ApLegSlot& s = *slots[*msg];
            if (!s.unreachable) {
              observe_leg(sched::LegStage::kAp, s.node, sim_.now() - s.spawned,
                          static_cast<double>(s.done), s.hedge_backup);
              resolve_hedge(*msg);
              continue;
            }
            // Unreachable leg: same decision as in PR — recover the
            // stranded paragraphs over reachable survivors, or drop them
            // once the deadline budget is spent.
            ins_.legs_unreachable->inc();
            detector_.suspect_hint(s.node, sim_.now());
            if (detector_placement_) table_.mark_stale(s.node);
            record_trace(host, "N" + std::to_string(s.node + 1) +
                                   " unreachable during AP");
            // An unreachable backup drops out of its race without
            // recovery: its paragraphs are copies the primary still owns.
            if (s.hedge_backup) continue;
            if (host_dead()) continue;
            std::vector<std::size_t> lost;
            std::size_t lost_count = 0;
            if (s.chunks != nullptr) {
              if (s.has_in_flight) lost_count = s.in_flight.size();
            } else {
              lost = std::move(s.units);
              s.units.clear();
              lost_count = lost.size();
            }
            if (lost_count == 0) continue;
            if (deadline_exceeded(q)) {
              q.degraded = true;
              s.has_in_flight = false;  // RECV: the chunk dies with the leg
              ins_.degraded_units_dropped->inc(
                  static_cast<double>(lost_count));
              record_trace(host, "deadline spent: dropped " +
                                     std::to_string(lost_count) +
                                     " paragraphs (degraded)");
              continue;
            }
            ins_.items_recovered->inc(static_cast<double>(lost_count));
            record_trace(host, "recovered " + std::to_string(lost_count) +
                                   " paragraphs from unreachable N" +
                                   std::to_string(s.node + 1));
            if (s.chunks != nullptr) {
              s.chunks->push_front(s.in_flight);
              s.has_in_flight = false;
              bool any_live = false;
              for (const auto& sp : slots) {
                if (!sp->reported && !sp->declared_dead && !sp->abandoned &&
                    !sp->hedge_backup) {
                  any_live = true;
                  break;
                }
              }
              if (!any_live) {
                spawn(pick_live(sched::kApWeights), {}, shared_chunks);
                ++outstanding;
                ins_.recovery_legs->inc();
              }
            } else {
              std::vector<NodeId> survivors;
              std::vector<double> weights;
              for (std::size_t i = 0; i < ap_nodes.size(); ++i) {
                if (ap_nodes[i] == s.node || !schedulable(ap_nodes[i])) {
                  continue;
                }
                survivors.push_back(ap_nodes[i]);
                weights.push_back(ap_weights[i]);
              }
              if (survivors.empty()) {
                survivors.push_back(host);
                weights.push_back(1.0);
              }
              const auto parts =
                  config_.partition.ap_strategy == Strategy::kIsend
                      ? parallel::partition_isend(lost.size(), weights)
                      : parallel::partition_send(lost.size(), weights);
              for (const auto& p : parts) {
                std::vector<std::size_t> block;
                block.reserve(p.items.size());
                for (std::size_t j : p.items) block.push_back(lost[j]);
                spawn(survivors[p.worker], std::move(block), nullptr);
                ++outstanding;
                ins_.recovery_legs->inc();
              }
            }
            continue;
          }
          if (hedge_wake) {
            // Timed out at a hedge trigger: issue backups for the due legs.
            // Not a failure signal, so skip the crash sweep below.
            for (std::size_t i = 0; i < slots.size(); ++i) {
              ApLegSlot& s = *slots[i];
              if (s.reported || s.declared_dead || s.abandoned || s.hedged ||
                  s.hedge_backup) {
                continue;
              }
              if (shared_queue) {
                if (!shared_chunks->empty() || !s.has_in_flight) continue;
              } else if (s.units.empty()) {
                continue;
              }
              const auto delay = hedge_delay(sched::LegStage::kAp);
              if (!delay.has_value() || sim_.now() < hedge_due(s, *delay)) {
                continue;
              }
              s.hedged = true;  // one hedge per leg, even if declined
              std::vector<std::size_t> snapshot;
              auto group = std::make_shared<HedgeGroup>();
              if (shared_queue) {
                // The backup re-ships the in-flight chunk as a fixed
                // partition of its own; the chunk ids identify coverage.
                snapshot.reserve(s.in_flight.size());
                for (std::size_t u = s.in_flight.begin; u < s.in_flight.end;
                     ++u) {
                  snapshot.push_back(u);
                }
                group->covered_chunk = s.in_flight;
                group->has_covered_chunk = true;
              } else {
                snapshot = s.units;
              }
              if (snapshot.empty()) continue;
              const auto backup_node =
                  pick_backup(s.node, sched::kApWeights, sched::LegStage::kAp);
              if (!backup_node.has_value()) continue;
              group->members.push_back(i);
              s.group = group;
              spawn(*backup_node, std::move(snapshot), nullptr, group, true);
              group->members.push_back(slots.size() - 1);
              ++outstanding;
              record_trace(host,
                           "hedged AP leg on N" + std::to_string(s.node + 1));
            }
            continue;
          }
          // Reply timeout: sweep for dead nodes.
          if (crash_count_ == swept_crashes) continue;  // see the PR loop
          swept_crashes = crash_count_;
          const bool host_down = host_dead();
          std::size_t requeued = 0;
          std::vector<std::pair<NodeId, std::vector<std::size_t>>> respawn;
          for (const auto& sp : slots) {
            ApLegSlot& s = *sp;
            if (s.reported || s.declared_dead || s.abandoned) continue;
            if (crash_epoch_[s.node] == s.epoch) continue;  // still alive
            s.declared_dead = true;
            --outstanding;
            ins_.legs_lost->inc();
            if (tracer_ != nullptr && s.leg_span != obs::kNoSpan) {
              tracer_->end_span(s.leg_span, sim_.now(),
                                {{"crashed", std::int64_t{1}}});
              s.leg_span = obs::kNoSpan;
            }
            table_.remove(s.node);
            record_trace(host, "lost contact with N" +
                                   std::to_string(s.node + 1) + " during AP");
            if (host_down) continue;
            // A crashed backup needs no recovery: it held copies of
            // paragraphs the primary is still processing.
            if (s.hedge_backup) continue;
            if (s.chunks != nullptr) {
              if (!s.has_in_flight) continue;
              s.chunks->push_front(s.in_flight);
              s.has_in_flight = false;
              requeued += s.in_flight.size();
              ins_.items_recovered->inc(
                  static_cast<double>(s.in_flight.size()));
              ins_.recovery_latency->observe(sim_.now() - crash_time_[s.node]);
              record_trace(host, "requeued chunk of " +
                                     std::to_string(s.in_flight.size()) +
                                     " paragraphs from N" +
                                     std::to_string(s.node + 1));
            } else {
              std::vector<std::size_t> lost = std::move(s.units);
              s.units.clear();
              if (lost.empty()) continue;
              ins_.items_recovered->inc(static_cast<double>(lost.size()));
              ins_.recovery_latency->observe(sim_.now() - crash_time_[s.node]);
              record_trace(host, "recovered " + std::to_string(lost.size()) +
                                     " paragraphs from N" +
                                     std::to_string(s.node + 1));
              std::vector<NodeId> survivors;
              std::vector<double> weights;
              for (std::size_t i = 0; i < ap_nodes.size(); ++i) {
                if (!schedulable(ap_nodes[i])) continue;
                survivors.push_back(ap_nodes[i]);
                weights.push_back(ap_weights[i]);
              }
              if (survivors.empty()) {
                survivors.push_back(host);
                weights.push_back(1.0);
              }
              const auto parts =
                  config_.partition.ap_strategy == Strategy::kIsend
                      ? parallel::partition_isend(lost.size(), weights)
                      : parallel::partition_send(lost.size(), weights);
              for (const auto& p : parts) {
                std::vector<std::size_t> block;
                block.reserve(p.items.size());
                for (std::size_t j : p.items) block.push_back(lost[j]);
                respawn.emplace_back(survivors[p.worker], std::move(block));
              }
            }
          }
          for (auto& [node, block] : respawn) {
            spawn(node, std::move(block), nullptr);
            ++outstanding;
            ins_.recovery_legs->inc();
          }
          if (requeued > 0) {
            bool any_live = false;
            for (const auto& sp : slots) {
              if (!sp->reported && !sp->declared_dead && !sp->abandoned &&
                  !sp->hedge_backup) {
                any_live = true;
                break;
              }
            }
            if (!any_live) {
              spawn(pick_live(sched::kApWeights), {}, shared_chunks);
              ++outstanding;
              ins_.recovery_legs->inc();
            }
          }
        }
      }
      q.t_ap_stage = sim_.now() - ap_start;
      if (ap_span != obs::kNoSpan) tracer_->end_span(ap_span, sim_.now());
      failed = host_dead();
    }

    // ---- Answer merging + sorting (host).
    if (!failed) {
      const Seconds t0 = sim_.now();
      co_await nodes_[host]->cpu().consume(plan.answer_sort.cpu_seconds *
                                           nodes_[host]->work_multiplier() *
                                           nodes_[host]->gray_cpu_factor());
      failed = host_dead();
      q.oh_answer_sort = sim_.now() - t0;
    }

    if (!failed) {
      // Success: remember the results on the node that computed them, so a
      // repeat of this question (routed here by affinity) hits. A degraded
      // (partial) answer must not poison the cache.
      if (cache_on && !q.degraded) {
        NodeCaches& shard = *caches_[host];
        if (config_.cache.answers.enabled()) {
          shard.answers.insert(cache_key, CachedAnswer{plan.answer_bytes},
                               answer_footprint(cache_key, plan), sim_.now());
        }
        if (config_.cache.paragraphs.enabled()) {
          shard.paragraphs.insert(cache_key, CachedParagraphs{},
                                  paragraph_footprint(cache_key, plan),
                                  sim_.now());
        }
      }
      break;  // the host survived the whole attempt
    }

    // Host crash: everything this attempt computed died with it (no
    // question_departed — the crash already zeroed the residents). The
    // front-end notices after its reply timeout and resubmits.
    const Seconds detect = crash_time_[host] + config_.net.membership_timeout;
    if (detect > sim_.now()) {
      co_await simnet::Delay(sim_, detect - sim_.now());
    }
    ++restarts;
    ins_.question_restarts->inc();
    record_trace(host, "question " + std::to_string(plan.source.id) +
                           " lost its host; resubmitting");
    host = pick_live(sched::kQaWeights);
  }

  if (q.degraded) {
    ins_.questions_degraded->inc();
    // Best effort before returning a partial answer: a stale (TTL-expired
    // or superseded) cached answer for the same question, if this node
    // still holds one, is served alongside the degraded flag.
    bool stale_served = false;
    if (cache_on && caches_[host]->answers.peek_stale(cache_key) != nullptr) {
      stale_served = true;
      ins_.degraded_stale_served->inc();
    }
    record_event(host,
                 "question " + std::to_string(plan.source.id) +
                     " answered degraded" +
                     (stale_served ? " (stale cached answer served)" : ""),
                 {{"kind", std::string("degraded")},
                  {"stale_cache", std::int64_t{stale_served ? 1 : 0}}});
  }

  record_trace(host, "answered question " + std::to_string(plan.source.id) +
                         " in " + format_double(sim_.now() - q.submitted, 2) +
                         " secs");

  nodes_[host]->question_departed();

  // ---- Bookkeeping. Stage and overhead distributions describe the full
  // pipeline (paper Tables 8/9), so cache-served questions are excluded —
  // they would drag every column toward the probe cost. Latency keeps all
  // questions: the latency collapse IS the cache's effect.
  const Seconds latency = sim_.now() - q.submitted;
  ins_.latency->observe(latency);
  makespan_ = std::max(makespan_, sim_.now());
  if (!served_from_cache) {
    ins_.t_qp->observe(q.t_qp);
    ins_.t_pr->observe(std::max(0.0, q.t_pr_stage - q.t_ps_max));
    ins_.t_ps->observe(q.t_ps_max);
    ins_.t_po->observe(q.t_po);
    ins_.t_ap->observe(q.t_ap_stage);
    ins_.oh_keyword_send->observe(q.oh_keyword_send);
    ins_.oh_paragraph_receive->observe(q.oh_paragraph_receive);
    ins_.oh_paragraph_send->observe(q.oh_paragraph_send);
    ins_.oh_answer_receive->observe(q.oh_answer_receive);
    ins_.oh_answer_sort->observe(q.oh_answer_sort);
  }
  if (q_span != obs::kNoSpan) {
    obs::Attrs attrs{
        {"latency_seconds", latency},
        {"restarts", static_cast<std::int64_t>(restarts)},
        {"cached", std::int64_t{served_from_cache ? 1 : 0}}};
    // Only stamp the degraded flag when the fault layer is active so traces
    // from fault-free runs stay byte-identical with pre-fault builds.
    if (injector_ != nullptr) {
      attrs.emplace_back("degraded", std::int64_t{q.degraded ? 1 : 0});
    }
    tracer_->end_span(q_span, sim_.now(), std::move(attrs));
  }
  ins_.completed->inc();
  if (config_.admission.enabled()) finish_admitted();
  maybe_finish();
}

}  // namespace qadist::cluster
