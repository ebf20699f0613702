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

/// Coordinator/leg shared state every fork-join leg carries, whichever
/// stage spawned it (PR worker, AP worker, broker). Held by shared_ptr from
/// both sides: the leg outlives the coordinator frame when its node crashes
/// (the coordinator recovers and moves on while the zombie coroutine drains
/// its pending resumptions), so everything the zombie may still touch lives
/// here or in the System.
struct System::LegSlot {
  NodeId node = 0;
  std::size_t epoch = 0;  // crash_epoch_[node] at spawn
  bool reported = false;
  bool declared_dead = false;
  /// The leg gave up on a send (retry budget spent): its node is alive but
  /// unreachable. Set together with `reported`; the pending work stays in
  /// the slot for the coordinator to recover or drop.
  bool unreachable = false;
  /// Stage span the leg nests under, and the leg's own span. The leg opens
  /// leg_span eagerly and closes it when it reports; a crashed leg is a
  /// zombie that must not report, so the *coordinator* closes its span
  /// (crashed=1) when the liveness sweep declares the leg dead.
  obs::SpanId stage_span = obs::kNoSpan;
  obs::SpanId leg_span = obs::kNoSpan;
  Seconds spawned = 0.0;  ///< spawn instant: hedge-trigger + leg-wall basis
  std::size_t done = 0;   ///< units completed so far (latency observation)

  // --- Tail-tolerance fields (all inert under the default cfg.tail) ---
  bool hedge_backup = false;  ///< this leg is a hedge backup, work is a copy
  bool hedged = false;  ///< a backup was already issued (or declined) for it
  /// Lost the hedge race, or orphaned by its crashed broker. Checked next
  /// to the crash epoch after every co_await: an abandoned leg is a zombie
  /// by the same contract — its span was already closed by the coordinator,
  /// its work is covered elsewhere, and it must exit without touching q or
  /// reports.
  bool abandoned = false;
  std::shared_ptr<HedgeGroup> group;  ///< the race this leg belongs to
  /// Reservation currently held (leg consumes go through consume()), so a
  /// tied abandonment can release it mid-service.
  simnet::FairShareServer* busy_server = nullptr;
  std::coroutine_handle<> busy_handle{};
  /// Keeps the report mailbox alive for broker-spawned legs: the inner
  /// mailbox lives in the BrokerSlot, whose coordinator can vanish (broker
  /// crash) while an abandoned worker still runs — the worker's own slot
  /// then holds the last reference, so its final reports.send never
  /// dangles. Null for host-spawned legs (the host drains before exit).
  std::shared_ptr<void> keepalive;

  /// FairShareServer::consume with a parking spot: while the leg is in
  /// service, the (server, handle) pair sits in busy_server/busy_handle so
  /// a tied-hedge coordinator can cancel the reservation mid-flight (see
  /// FairShareServer::cancel). Suspension-wise identical to ConsumeAwaiter
  /// — same await_ready condition, same enqueue — so routing a consume
  /// through it never changes the event sequence.
  struct [[nodiscard]] Consume {
    LegSlot& slot;
    simnet::FairShareServer& server;
    double work;
    bool await_ready() const noexcept { return work <= 0.0; }
    void await_suspend(std::coroutine_handle<> h) {
      slot.busy_server = &server;
      slot.busy_handle = h;
      server.enqueue(work, h);
    }
    void await_resume() noexcept { slot.busy_server = nullptr; }
  };
  Consume consume(simnet::FairShareServer& server, double work) {
    return {*this, server, work};
  }

  /// A zombie: its node crashed since the spawn, or it was abandoned.
  [[nodiscard]] bool gone(const std::vector<std::size_t>& crash_epochs) const {
    return crash_epochs[node] != epoch || abandoned;
  }

  /// Still owed a report: not reported, declared dead or abandoned.
  [[nodiscard]] bool live() const {
    return !reported && !declared_dead && !abandoned;
  }

  /// Opens the leg span: its node and partition strategy, plus a hedge
  /// mark on backups so critical-path attribution can tell a hedge win
  /// from a wasted backup (only stamped when hedging is on — default
  /// traces stay byte-identical).
  void open_span(obs::Tracer& tracer, Seconds now, const char* name,
                 Strategy strategy, std::uint64_t track) {
    obs::Attrs attrs{{"node", static_cast<std::int64_t>(node)},
                     {"strategy", std::string(parallel::to_string(strategy))}};
    if (hedge_backup) attrs.emplace_back("hedge", std::int64_t{1});
    leg_span = tracer.begin_span(now, name, node, track, stage_span,
                                 std::move(attrs));
  }

  /// Closes the leg span, if still open, with `attrs`.
  void close_span(obs::Tracer* tracer, Seconds now, obs::Attrs attrs) {
    if (tracer == nullptr || leg_span == obs::kNoSpan) return;
    tracer->end_span(leg_span, now, std::move(attrs));
    leg_span = obs::kNoSpan;
  }

  /// The leg's last act: closes its span with `counts` plus the
  /// wire/backoff split of its ships, and reports `index` to the
  /// coordinator. (The attrs are built only when tracing.)
  using Counts = std::initializer_list<std::pair<const char*, std::int64_t>>;
  void report(obs::Tracer* tracer, Seconds now, Counts counts,
              const ShipCost& cost, simnet::Mailbox<std::size_t>& reports,
              std::size_t index) {
    if (tracer != nullptr && leg_span != obs::kNoSpan) {
      obs::Attrs attrs(counts.begin(), counts.end());
      attrs.emplace_back("net_seconds", cost.transfer);
      attrs.emplace_back("backoff_seconds", cost.backoff);
      close_span(tracer, now, std::move(attrs));
    }
    reported = true;
    reports.send(index);
  }

  /// Unreachable protocol: a ship() that exhausts its retries means the
  /// peer is cut off, not crashed. The leg reports with its pending work
  /// still parked in the slot — the coordinator decides whether to recover
  /// it over reachable survivors or, past the deadline budget, drop it and
  /// flag the answer degraded.
  void report_unreachable(obs::Tracer* tracer, Seconds now,
                          const ShipCost& cost,
                          simnet::Mailbox<std::size_t>& reports,
                          std::size_t index) {
    unreachable = true;
    report(tracer, now, {{"unreachable", 1}}, cost, reports, index);
  }
};

/// PR or AP worker leg. Work comes one chunk at a time from `chunks` —
/// the stage-shared queue under RECV (legs compete) or a private queue of
/// one-unit PR chunks — or, for AP, as one fixed batch in `units` (a
/// SEND/ISEND partition, a hedge snapshot or recovered paragraphs). RECV
/// loses at most the in-flight chunk on a crash (AP answers ship per
/// chunk, PR paragraphs per unit); a batch is lost whole (its answers ship
/// once at the end).
struct System::WorkerSlot : LegSlot {
  std::shared_ptr<std::deque<parallel::Chunk>> chunks;
  std::vector<std::size_t> units;
  parallel::Chunk in_flight{};  // popped, results not yet on the host
  bool has_in_flight = false;
};

/// One hedge race: the primary leg plus the backup leg(s) issued against it
/// after the hedge delay elapsed. First member to report wins; the
/// coordinator closes the losers' spans (hedge_loser=1), releases their
/// reservations in tied mode, and stops waiting on them. `covered` records
/// the work snapshot the backups re-run (PR units, or the paragraphs of an
/// AP chunk): anything a shared-queue primary picked up *after* the
/// snapshot is not covered and is requeued when the primary is abandoned.
struct System::HedgeGroup {
  std::vector<std::size_t> members;  ///< slot indices (primary first)
  std::vector<std::size_t> covered;  ///< items the backups re-run
  bool resolved = false;             ///< a winner was recorded
};

/// Broker-tier PR leg. The host fans the question's selected units out per
/// broker group; the group's broker routes them to in-group shard holders,
/// supervises those inner legs on its own mailbox, merges their partials,
/// and ships one aggregate back.
struct System::BrokerSlot : LegSlot {
  std::size_t group = 0;  ///< topology group this leg covers
  /// The group's selected PR units. Kept whole (not drained): a broker
  /// loss loses the partials merged on it, so the host re-routes the full
  /// slice through an acting broker.
  std::vector<std::size_t> units;
  double bytes_out = 0.0;    ///< merged candidate bytes to ship to the host
  std::size_t unserved = 0;  ///< units dropped in-subtree (degraded)
  /// Inner report mailbox + the worker slots it serves. Owned here (not in
  /// the coroutine frame) so workers can outlive a crashed broker — each
  /// worker slot holds a keepalive reference to the mailbox.
  std::shared_ptr<simnet::Mailbox<std::size_t>> inner;
  std::vector<std::shared_ptr<LegSlot>> workers;
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
      out.legs.emplace_back(*best, std::vector<std::size_t>{});
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
  if (const auto best = least_loaded(weights)) return *best;
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

// ---------------------------------------------------------------------------
// Fork-join supervision. One coroutine (supervise) runs every stage's
// coordinator loop; a stage is a FanOut subclass that places its legs and
// supplies, through the hooks below, only what differs between PR, AP and
// the two broker-tier levels. See DESIGN.md, "One fork-join supervisor".

/// A supervised fork-join stage: its legs, the supervisor's bookkeeping,
/// and the stage hooks. The supervisor owns spawning and the outstanding
/// count; stages create legs (make_leg/make_queue_leg) and hand them to
/// spawn().
struct System::FanOut {
  /// `legs` is where the stage's slots live — the BrokerSlot's worker list
  /// for a broker's in-group stage (so the host can orphan them when the
  /// broker dies), the stage's own list otherwise. The coordinator is the
  /// node supervision events are recorded on; it is lost once its crash
  /// epoch moves past `coordinator_epoch`.
  FanOut(System& system, QuestionState& question,
         simnet::Mailbox<std::size_t>& mailbox, NodeId coordinator_node,
         std::size_t coordinator_epoch_at_start, obs::SpanId span,
         std::vector<std::shared_ptr<LegSlot>>* legs = nullptr)
      : sys(system),
        q(question),
        reports(mailbox),
        slots(legs != nullptr ? *legs : own_slots),
        coordinator(coordinator_node),
        coordinator_epoch(coordinator_epoch_at_start),
        stage_span(span),
        swept_crashes(system.crash_count_) {}
  FanOut(const FanOut&) = delete;
  FanOut& operator=(const FanOut&) = delete;
  virtual ~FanOut() = default;

  System& sys;
  QuestionState& q;
  simnet::Mailbox<std::size_t>& reports;
  std::vector<std::shared_ptr<LegSlot>>& slots;
  const NodeId coordinator;
  const std::size_t coordinator_epoch;
  const obs::SpanId stage_span;  ///< parent span of every leg

  // What the stage is, as the supervisor's shared code needs it.
  sched::LegStage stage = sched::LegStage::kPr;  ///< hedge-delay pool
  sched::LoadWeights weights = sched::kPrWeights;  ///< rescue/backup pick
  std::string_view label;      ///< "PR", "AP", "brokered PR" (trace text)
  std::string_view leg_noun;   ///< before "N<k>" in trace text ("broker ")
  std::string_view item_noun;  ///< "collections" or "paragraphs"
  bool hedge = false;          ///< issue backups past the hedge delay
  bool shared_queue = false;   ///< primaries compete for one queue (RECV)
  std::shared_ptr<void> keepalive;            ///< handed to every leg
  obs::Counter* spawn_tally = nullptr;        ///< extra count per spawn
  obs::Counter* unreachable_tally = nullptr;  ///< extra count per cut-off

  // Supervisor state.
  std::size_t outstanding = 0;  ///< spawned legs not yet accounted for
  std::uint64_t swept_crashes;  ///< crash_count_ at the last sweep
  /// Set during a crash sweep: recovery legs start once the sweep is over,
  /// so every loss of one sweep is recorded before any replacement runs.
  bool defer_spawns = false;
  std::vector<std::shared_ptr<LegSlot>> deferred;

  [[nodiscard]] bool coordinator_down() const {
    return sys.crash_epoch_[coordinator] != coordinator_epoch;
  }

  /// Issues a leg (a hedge backup when `group` is set): stamps the common
  /// fields, counts it, and starts it unless a sweep defers the start.
  void spawn(std::shared_ptr<LegSlot> slot,
             std::shared_ptr<HedgeGroup> group = nullptr) {
    slot->epoch = sys.crash_epoch_[slot->node];
    slot->stage_span = stage_span;
    slot->spawned = sys.sim_.now();
    slot->keepalive = keepalive;
    slot->hedge_backup = group != nullptr;
    (slot->hedge_backup ? sys.ins_.hedges_issued : sys.ins_.legs_spawned)
        ->inc();
    if (spawn_tally != nullptr) spawn_tally->inc();
    if (defer_spawns) {
      deferred.push_back(std::move(slot));
      return;
    }
    if (group != nullptr) group->members.push_back(slots.size());
    slot->group = std::move(group);
    start(std::move(slot));
  }
  void spawn_recovery(std::shared_ptr<LegSlot> slot) {
    sys.ins_.recovery_legs->inc();
    spawn(std::move(slot));
  }

  /// Lost work past the deadline, or with nowhere to run: the answer is
  /// partial by that much...
  void drop_degraded(std::size_t count) {
    q.degraded = true;
    sys.ins_.degraded_units_dropped->inc(static_cast<double>(count));
  }
  /// ...and, for shard work, counted as work no live replica could serve.
  void drop_unserved(std::size_t count) {
    drop_degraded(count);
    sys.ins_.shard_units_unserved->inc(static_cast<double>(count));
  }
  [[nodiscard]] std::string node_name(const LegSlot& leg) const {
    return std::string(leg_noun) + "N" + std::to_string(leg.node + 1);
  }

  // --- Hooks ---------------------------------------------------------------
  /// Starts the stage's leg coroutine on `slot`, reporting `index`.
  virtual void launch(std::shared_ptr<LegSlot> slot, std::size_t index) = 0;
  /// A leg on `node` with private work `items`.
  virtual std::shared_ptr<LegSlot> make_leg(
      NodeId node, std::vector<std::size_t> items) = 0;
  /// A leg on `node` draining the shared queue (shared-queue stages only).
  virtual std::shared_ptr<LegSlot> make_queue_leg(NodeId /*node*/) {
    QADIST_UNREACHABLE("stage has no shared queue");
  }
  /// Puts `items` back at the front of the shared queue.
  virtual void requeue(const std::vector<std::size_t>& /*items*/) {
    QADIST_UNREACHABLE("stage has no shared queue");
  }
  /// The coordinator itself must exit now, touching nothing but its slot
  /// (a crashed or abandoned broker).
  [[nodiscard]] virtual bool zombie() const { return false; }
  /// The unfinished work of a primary leg — its in-flight items, then its
  /// private queue — emptied from the slot when `take` is set.
  virtual std::vector<std::size_t> pending(LegSlot& leg, bool take) = 0;
  /// Deadline degradation of lost work.
  virtual void drop(std::span<const std::size_t> lost) {
    drop_degraded(lost.size());
  }
  /// Recovers a failed leg's lost work (requeue, re-partition, replica
  /// failover or broker re-route); true when it went back on the shared
  /// queue, which may then need a rescue leg.
  virtual bool recover(LegSlot& leg, std::vector<std::size_t> lost,
                       bool crashed) = 0;
  /// A leg reported normally (after hedge settlement): the stage's own
  /// bookkeeping, then the node charged a partial-merge CPU pass, if any.
  virtual Node* on_report(LegSlot& /*leg*/) { return nullptr; }
  /// A crashed leg was just declared dead.
  virtual void on_lost(LegSlot& /*leg*/) {}
  /// Work units a live primary carries, scaling its hedge due time;
  /// nullopt while it may not be hedged (only asked when `hedge` is set).
  [[nodiscard]] virtual std::optional<double> hedge_units(
      const LegSlot& /*leg*/) const {
    return std::nullopt;
  }
  /// Where the backups re-running `covered` for `leg` go; empty declines.
  virtual std::vector<std::pair<NodeId, std::vector<std::size_t>>>
  backup_placement(const LegSlot& leg, std::vector<std::size_t> covered) {
    const auto node =
        sys.least_loaded(weights, leg.node, sys.straggler_mask(stage));
    if (!node.has_value()) return {};
    return {{*node, std::move(covered)}};
  }

  // --- Supervision steps (System::supervise drives them) -------------------
  /// When `leg` is due a hedge backup: the per-unit wall quantile scaled
  /// by the units it carries, floored by hedge_min_delay — scaling by the
  /// leg's own size is what keeps big-but-healthy legs from tripping the
  /// trigger. Only a live primary not yet hedged qualifies.
  [[nodiscard]] std::optional<Seconds> hedge_due(const LegSlot& leg,
                                                 Seconds per_unit) const {
    if (!leg.live() || leg.hedged || leg.hedge_backup) return std::nullopt;
    const auto units = hedge_units(leg);
    if (!units.has_value()) return std::nullopt;
    return leg.spawned + std::max(per_unit * std::max(*units, 1.0),
                                  sys.config_.tail.hedge_min_delay);
  }

  /// The leg burned its retry budget talking to its node: alive but cut
  /// off. Steers placement away from it, then recovers the work still
  /// parked in the slot or — past the deadline budget — drops it and flags
  /// the answer degraded.
  void settle_unreachable(LegSlot& leg) {
    sys.ins_.legs_unreachable->inc();
    if (unreachable_tally != nullptr) unreachable_tally->inc();
    sys.detector_.suspect_hint(leg.node, sys.sim_.now());
    if (sys.detector_placement_) sys.table_.mark_stale(leg.node);
    sys.record_trace(coordinator, node_name(leg) + " unreachable during " +
                                      std::string(label));
    // An unreachable backup drops out of its race without recovery: its
    // work is a copy the primary still owns. A lost coordinator's question
    // restarts whole.
    if (leg.hedge_backup || coordinator_down()) return;
    std::vector<std::size_t> lost = pending(leg, /*take=*/true);
    if (lost.empty()) return;
    if (sys.deadline_exceeded(q)) {
      degrade(lost);
      return;
    }
    if (recover(leg, std::move(lost), /*crashed=*/false)) rescue();
  }

  /// Drops lost work past the deadline budget and records it.
  void degrade(std::span<const std::size_t> lost) {
    drop(lost);
    sys.record_trace(coordinator, "deadline spent: dropped " +
                                      std::to_string(lost.size()) + " " +
                                      std::string(item_noun) + " (degraded)");
  }

  /// Settles a hedge race in favor of slot `winner`: counts the win/loss,
  /// abandons every unresolved member (closing its span and, in tied mode,
  /// cancelling its in-service reservation), and requeues in-flight work a
  /// shared-queue primary picked up after the hedge snapshot (nobody else
  /// covers it).
  void resolve_hedge(std::size_t winner) {
    LegSlot& w = *slots[winner];
    if (w.group == nullptr || w.group->resolved) return;
    const auto group = w.group;
    group->resolved = true;
    (w.hedge_backup ? sys.ins_.hedge_wins : sys.ins_.hedge_losses)->inc();
    const bool tied = sys.config_.tail.tied;
    bool requeued = false;
    for (const std::size_t m : group->members) {
      if (m == winner) continue;
      LegSlot& s = *slots[m];
      if (!s.live()) continue;
      s.abandoned = true;
      --outstanding;
      // The loser never closes its own span (it exits at its next
      // co_await); close it here so critical-path attribution can both
      // skip it and bill its duration as hedge waste.
      s.close_span(sys.tracer_, sys.sim_.now(),
                   {{"hedge_loser", std::int64_t{1}},
                    {"cancelled", std::int64_t{tied ? 1 : 0}}});
      if (tied && s.busy_server != nullptr) {
        if (s.busy_server->cancel(s.busy_handle)) {
          sys.ins_.legs_cancelled->inc();
        }
        s.busy_server = nullptr;
      }
      if (s.hedge_backup || !shared_queue) continue;
      const auto left = pending(s, /*take=*/true);
      if (!left.empty() && std::find(group->covered.begin(),
                                     group->covered.end(), left.front()) ==
                               group->covered.end()) {
        requeue(left);
        requeued = true;
      }
    }
    if (requeued) rescue();
  }

  /// Issues backups for every due leg. Each leg is hedged (or declined —
  /// no placement available) at most once.
  void issue_hedges() {
    const auto delay = sys.hedge_delay(stage);
    if (!delay.has_value()) return;
    const std::size_t count = slots.size();
    for (std::size_t i = 0; i < count; ++i) {
      LegSlot& s = *slots[i];
      const auto due = hedge_due(s, *delay);
      if (!due.has_value() || sys.sim_.now() < *due) continue;
      s.hedged = true;
      std::vector<std::size_t> covered = pending(s, /*take=*/false);
      if (covered.empty()) continue;
      auto targets = backup_placement(s, covered);
      if (targets.empty()) continue;
      auto group = std::make_shared<HedgeGroup>();
      group->members.push_back(i);
      group->covered = std::move(covered);
      s.group = group;
      for (auto& [node, items] : targets) {
        spawn(make_leg(node, std::move(items)), group);
      }
      sys.record_trace(coordinator, "hedged " + std::string(label) +
                                        " leg on " + node_name(s));
    }
  }

  /// Reply timeout: sweeps the unreported legs for dead nodes and recovers
  /// their work. A sweep finds only legs whose node crashed after their
  /// spawn, so with no crash since the last one it would find nothing.
  void sweep_crashes() {
    if (sys.crash_count_ == swept_crashes) return;
    swept_crashes = sys.crash_count_;
    const bool lost_coordinator = coordinator_down();
    bool requeued = false;
    defer_spawns = true;
    const std::size_t count = slots.size();
    for (std::size_t i = 0; i < count; ++i) {
      LegSlot& s = *slots[i];
      if (!s.live() || sys.crash_epoch_[s.node] == s.epoch) continue;
      s.declared_dead = true;
      --outstanding;
      sys.ins_.legs_lost->inc();
      // The leg is a zombie and will never close its own span.
      s.close_span(sys.tracer_, sys.sim_.now(), {{"crashed", std::int64_t{1}}});
      on_lost(s);
      sys.table_.remove(s.node);
      sys.record_trace(coordinator, "lost contact with " + node_name(s) +
                                        " during " + std::string(label));
      // A lost coordinator's question restarts whole anyway; a dead
      // backup's work is a copy whoever it was backing up still owns.
      if (lost_coordinator || s.hedge_backup) continue;
      std::vector<std::size_t> lost = pending(s, /*take=*/true);
      if (lost.empty()) continue;
      sys.ins_.recovery_latency->observe(sys.sim_.now() -
                                         sys.crash_time_[s.node]);
      if (recover(s, std::move(lost), /*crashed=*/true)) requeued = true;
    }
    defer_spawns = false;
    for (auto& slot : std::exchange(deferred, {})) start(std::move(slot));
    if (requeued) rescue();
  }

  /// Requeued shared-queue work is stranded unless a live primary still
  /// drains the queue (a backup drains a private copy): spawns a recovery
  /// leg for it then.
  void rescue() {
    for (const auto& sp : slots) {
      if (sp->live() && !sp->hedge_backup) return;
    }
    spawn_recovery(make_queue_leg(sys.pick_live(weights)));
  }

 private:
  void start(std::shared_ptr<LegSlot> slot) {
    slots.push_back(slot);
    ++outstanding;
    launch(std::move(slot), slots.size() - 1);
  }

  std::vector<std::shared_ptr<LegSlot>> own_slots;  // unless `legs` is given
};

/// A host-coordinated worker stage (PR or AP) placed by the embedded
/// dispatcher: legs on `nodes` with `node_weights`. Under RECV the legs
/// compete for one shared chunk queue; SEND/ISEND legs get weighted
/// partitions, and recovery re-partitions lost work over the survivors.
struct System::WorkerStage : FanOut {
  WorkerStage(System& system, QuestionState& question,
              simnet::Mailbox<std::size_t>& mailbox, NodeId host,
              std::size_t host_epoch, obs::SpanId span,
              StagePlacement placement, Strategy partitioner,
              std::vector<std::shared_ptr<LegSlot>>* legs = nullptr)
      : FanOut(system, question, mailbox, host, host_epoch, span, legs),
        nodes(std::move(placement.nodes)),
        node_weights(std::move(placement.weights)),
        strategy(partitioner) {
    shared_queue = strategy == Strategy::kRecv || nodes.size() == 1;
    hedge = sys.config_.tail.hedge;
  }

  std::vector<NodeId> nodes;
  std::vector<double> node_weights;
  Strategy strategy;
  std::shared_ptr<std::deque<parallel::Chunk>> queue;  // RECV only

  /// RECV: cuts `count` items into `chunk`-item chunks on the shared queue
  /// and starts a leg draining it on every stage node. SEND/ISEND:
  /// weighted partitions.
  void place_legs(std::size_t count, std::size_t chunk) {
    if (shared_queue) {
      queue = std::make_shared<std::deque<parallel::Chunk>>();
      for (const auto& c : parallel::make_chunks(count, chunk)) {
        queue->push_back(c);
      }
      for (const NodeId node : nodes) spawn(make_queue_leg(node));
      return;
    }
    for (auto& p : partition(count, node_weights)) {
      spawn(make_leg(nodes[p.worker], std::move(p.items)));
    }
  }

  /// Weighted SEND/ISEND partition of `count` items over `over`.
  [[nodiscard]] std::vector<parallel::Partition> partition(
      std::size_t count, std::span<const double> over) const {
    return strategy == Strategy::kIsend
               ? parallel::partition_isend(count, over)
               : parallel::partition_send(count, over);
  }

  /// Re-partitions `lost` over the stage nodes still schedulable (never
  /// `exclude`), with their original weights — or onto the host, live and
  /// local, when none is.
  void repartition(const std::vector<std::size_t>& lost,
                   std::optional<NodeId> exclude) {
    std::vector<NodeId> survivors;
    std::vector<double> weights_left;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i] == exclude || !sys.schedulable(nodes[i])) continue;
      survivors.push_back(nodes[i]);
      weights_left.push_back(node_weights[i]);
    }
    if (survivors.empty()) {
      survivors.push_back(coordinator);
      weights_left.push_back(1.0);
    }
    for (const auto& p : partition(lost.size(), weights_left)) {
      std::vector<std::size_t> block;
      block.reserve(p.items.size());
      for (const std::size_t j : p.items) block.push_back(lost[j]);
      spawn_recovery(make_leg(survivors[p.worker], std::move(block)));
    }
  }

  std::shared_ptr<LegSlot> make_queue_leg(NodeId node) override {
    auto slot = std::make_shared<WorkerSlot>();
    slot->node = node;
    slot->chunks = queue;
    return slot;
  }
  void requeue(const std::vector<std::size_t>& items) override {
    // At the front, so surviving legs pick it up next. Chunks never split:
    // the items are exactly one chunk.
    queue->push_front(parallel::Chunk{items.front(), items.back() + 1});
  }
  std::vector<std::size_t> pending(LegSlot& leg, bool take) override {
    auto& s = static_cast<WorkerSlot&>(leg);
    std::vector<std::size_t> items = s.units;
    const auto add = [&items](const parallel::Chunk& c) {
      for (std::size_t i = c.begin; i < c.end; ++i) items.push_back(i);
    };
    if (s.has_in_flight) add(s.in_flight);
    const bool private_queue = s.chunks != nullptr && !shared_queue;
    if (private_queue) std::for_each(s.chunks->begin(), s.chunks->end(), add);
    if (take) {
      s.units.clear();
      s.has_in_flight = false;
      if (private_queue) s.chunks->clear();
    }
    return items;
  }
  [[nodiscard]] std::optional<double> hedge_units(
      const LegSlot& leg) const override {
    // A fixed batch's size alone is its load (done already counts within
    // it). A queue leg carries what it did, its in-flight chunk and what
    // it still has queued privately; a shared-queue leg is hedgeable only
    // once the queue drained — its in-flight chunk is then all that is
    // left of the stage on that node.
    const auto& s = static_cast<const WorkerSlot&>(leg);
    if (!s.units.empty()) return static_cast<double>(s.units.size());
    if (s.chunks == nullptr) return std::nullopt;
    if (shared_queue && (!queue->empty() || !s.has_in_flight)) {
      return std::nullopt;
    }
    std::size_t units = s.done + (s.has_in_flight ? s.in_flight.size() : 0);
    if (!shared_queue) units += s.chunks->size();  // one-unit chunks (PR)
    return static_cast<double>(units);
  }
};

/// Flat PR (scheduling point 2). RECV legs compete for the shared
/// sub-collection deque (paper Fig. 7a: "four nodes compete for the 8
/// sub-collections"); SEND legs drain weighted contiguous blocks; in
/// replica-aware mode each leg drains the units assign_pr_units gave it.
/// Every PR queue holds one-unit chunks: finished units are durable
/// (their paragraphs already reached the coordinator's disk), so recovery
/// is per unit.
struct System::PrStage : WorkerStage {
  PrStage(System& system, QuestionState& question,
          simnet::Mailbox<std::size_t>& mailbox, NodeId host,
          std::size_t host_epoch, obs::SpanId span, StagePlacement placement,
          bool replica_aware,
          std::vector<std::shared_ptr<LegSlot>>* legs = nullptr)
      : WorkerStage(system, question, mailbox, host, host_epoch, span,
                    std::move(placement),
                    system.config_.partition.pr_strategy, legs),
        sharded(replica_aware) {
    // Holders of different shards cannot compete for each other's units.
    shared_queue = shared_queue && !sharded;
    label = "PR";
    item_noun = "collections";
  }

  const bool sharded;

  void place(std::span<const std::size_t> units) {
    if (!sharded) {
      place_legs(q.plan->pr_units.size(), /*chunk=*/1);
      return;
    }
    // Scatter-gather over replica holders. With selection off, `units` is
    // every unit — the pre-broker path.
    const auto unplaced = scatter(units, std::nullopt);
    if (slots.size() > 1 ||
        (!slots.empty() && slots.front()->node != coordinator)) {
      sys.ins_.migrations_pr->inc();
    }
    if (!unplaced.empty()) {
      // Shards with no live ready holder: their slice of the corpus cannot
      // be searched right now. Degrade rather than block on a rebuild —
      // the paper's interactive deadline beats completeness.
      drop_unserved(unplaced.size());
      sys.record_trace(coordinator, "no ready replica for " +
                                        std::to_string(unplaced.size()) +
                                        " collections (degraded)");
    }
  }

  void launch(std::shared_ptr<LegSlot> slot, std::size_t index) override {
    sys.pr_leg(q, std::static_pointer_cast<WorkerSlot>(std::move(slot)),
               index, reports, coordinator);
  }
  std::shared_ptr<LegSlot> make_leg(NodeId node,
                                    std::vector<std::size_t> items) override {
    auto slot = std::make_shared<WorkerSlot>();
    slot->node = node;
    slot->chunks = std::make_shared<std::deque<parallel::Chunk>>();
    for (const std::size_t u : items) slot->chunks->push_back({u, u + 1});
    return slot;
  }
  bool recover(LegSlot& leg, std::vector<std::size_t> lost,
               bool crashed) override {
    sys.ins_.items_recovered->inc(static_cast<double>(lost.size()));
    sys.record_trace(coordinator, "recovered " + std::to_string(lost.size()) +
                                      " collections from " +
                                      (crashed ? "" : "unreachable ") +
                                      node_name(leg));
    if (shared_queue) {
      requeue(lost);
      return true;
    }
    if (!sharded) {
      repartition(lost, crashed ? std::nullopt : std::optional(leg.node));
      return false;
    }
    // Units whose shard has no other live ready holder: degraded.
    const auto unplaced = scatter(lost, leg.node);
    if (!unplaced.empty()) {
      drop_unserved(unplaced.size());
      sys.record_trace(coordinator, "no surviving replica for " +
                                        std::to_string(unplaced.size()) +
                                        " collections (degraded)");
    }
    return false;
  }
  /// Spawns one private-queue leg per ready holder assign_pr_units picks
  /// for `units`; returns the units no ready holder can take. Recovery
  /// fails over lost units to surviving replicas, never the lost holder
  /// `exclude` (a crash already struck it from the map and kicked off
  /// background re-replication; retrieval needs only what is ready now).
  std::vector<std::size_t> scatter(std::span<const std::size_t> units,
                                   std::optional<NodeId> exclude) {
    auto assignment = sys.assign_pr_units(units, exclude);
    for (auto& [node, block] : assignment.legs) {
      auto leg = make_leg(node, std::move(block));
      if (exclude.has_value()) {
        spawn_recovery(std::move(leg));
      } else {
        spawn(std::move(leg));
      }
    }
    return std::move(assignment.unplaced);
  }
  Node* on_report(LegSlot& /*leg*/) override {
    // Partial merge: fold each shard leg's scored paragraphs into the
    // coordinator's merged candidate stream feeding Paragraph Ordering
    // (the scatter-gather reduce step).
    return sharded ? sys.nodes_[coordinator].get() : nullptr;
  }
  std::vector<std::pair<NodeId, std::vector<std::size_t>>> backup_placement(
      const LegSlot& leg, std::vector<std::size_t> covered) override {
    if (!sharded) return FanOut::backup_placement(leg, std::move(covered));
    // Backups must be replica holders. Only hedge when the whole snapshot
    // is placeable off the primary — a partial backup could not take over
    // on a win.
    auto assignment = sys.assign_pr_units(covered, leg.node);
    if (!assignment.unplaced.empty()) return {};
    return std::move(assignment.legs);
  }
};

/// AP (scheduling point 3). Recovery granularity follows the answer path:
/// RECV loses only the in-flight chunk (requeued on the shared deque);
/// SEND/ISEND lose the whole partition (answers ship once at the end),
/// which is re-partitioned over the survivors.
struct System::ApStage : WorkerStage {
  ApStage(System& system, QuestionState& question,
          simnet::Mailbox<std::size_t>& mailbox, NodeId host,
          std::size_t host_epoch, obs::SpanId span, StagePlacement placement)
      : WorkerStage(system, question, mailbox, host, host_epoch, span,
                    std::move(placement),
                    system.config_.partition.ap_strategy) {
    stage = sched::LegStage::kAp;
    weights = sched::kApWeights;
    label = "AP";
    item_noun = "paragraphs";
  }

  void launch(std::shared_ptr<LegSlot> slot, std::size_t index) override {
    sys.ap_leg(q, std::static_pointer_cast<WorkerSlot>(std::move(slot)),
               index, reports);
  }
  std::shared_ptr<LegSlot> make_leg(NodeId node,
                                    std::vector<std::size_t> items) override {
    auto slot = std::make_shared<WorkerSlot>();
    slot->node = node;
    slot->units = std::move(items);
    return slot;
  }
  bool recover(LegSlot& leg, std::vector<std::size_t> lost,
               bool crashed) override {
    sys.ins_.items_recovered->inc(static_cast<double>(lost.size()));
    const std::string count = std::to_string(lost.size());
    sys.record_trace(coordinator,
                     (crashed && shared_queue ? "requeued chunk of "
                                              : "recovered ") +
                         count + " paragraphs from " +
                         (crashed ? "" : "unreachable ") + node_name(leg));
    if (shared_queue) {
      requeue(lost);
      return true;
    }
    repartition(lost, crashed ? std::nullopt : std::optional(leg.node));
    return false;
  }
};

/// Brokered PR on the host: slices the selected units by shard group and
/// hands each slice to that group's broker. A broker that crashes or goes
/// unreachable has its whole slice re-routed through an acting broker in
/// the same group (finished units are redone — the aggregate never
/// shipped), or dropped as degraded when the group has no usable delegate
/// left. No hedging at this level: the brokers already re-run straggling
/// workers' units in-subtree.
struct System::BrokerStage : FanOut {
  BrokerStage(System& system, QuestionState& question,
              simnet::Mailbox<std::size_t>& mailbox, NodeId host,
              std::size_t host_epoch, obs::SpanId span)
      : FanOut(system, question, mailbox, host, host_epoch, span) {
    label = "PR";
    leg_noun = "broker ";
    item_noun = "collections";
    spawn_tally = sys.ins_.broker_legs;
    unreachable_tally = sys.ins_.broker_unreachable;
  }

  [[nodiscard]] std::size_t group_of(std::size_t unit) const {
    return sys.topology_->group_of_shard(sys.shard_map_->shard_of_unit(unit));
  }

  /// A group's acting broker: the designated one (first node of the group)
  /// when it is schedulable, otherwise the least-loaded live member of the
  /// group range.
  [[nodiscard]] std::optional<NodeId> acting_broker(
      std::size_t group, std::optional<NodeId> exclude) const {
    const NodeId designated = sys.topology_->broker_node(group);
    if (designated != exclude && sys.schedulable(designated)) {
      return designated;
    }
    const auto [first, last] = sys.topology_->group_range(group);
    const auto pick =
        sched::pick_delegate(sys.table_, first, last, sched::kPrWeights);
    if (!pick.has_value() || pick == exclude ||
        sys.node_crashed_[*pick] != 0) {
      return std::nullopt;
    }
    return pick;
  }

  void place(std::span<const std::size_t> units) {
    std::vector<std::vector<std::size_t>> by_group(sys.config_.broker.brokers);
    for (const std::size_t u : units) by_group[group_of(u)].push_back(u);
    bool off_host = false;
    std::size_t groups_used = 0;
    for (std::size_t g = 0; g < by_group.size(); ++g) {
      if (by_group[g].empty()) continue;
      ++groups_used;
      const auto broker = acting_broker(g, std::nullopt);
      if (!broker.has_value()) {
        drop_unserved(by_group[g].size());
        sys.record_trace(coordinator, "group " + std::to_string(g) +
                                          " has no usable broker: dropped " +
                                          std::to_string(by_group[g].size()) +
                                          " collections (degraded)");
        continue;
      }
      if (*broker != sys.topology_->broker_node(g)) {
        sys.ins_.broker_reroutes->inc();
      }
      if (*broker != coordinator) off_host = true;
      spawn(make_leg(*broker, std::move(by_group[g])));
    }
    if (off_host || groups_used > 1) sys.ins_.migrations_pr->inc();
  }

  void launch(std::shared_ptr<LegSlot> slot, std::size_t index) override {
    sys.broker_leg(q, std::static_pointer_cast<BrokerSlot>(std::move(slot)),
                   index, reports);
  }
  std::shared_ptr<LegSlot> make_leg(NodeId node,
                                    std::vector<std::size_t> items) override {
    auto slot = std::make_shared<BrokerSlot>();
    slot->node = node;
    slot->group = group_of(items.front());
    slot->units = std::move(items);
    for (const std::size_t u : slot->units) {
      slot->bytes_out += static_cast<double>(q.plan->pr_units[u].bytes_out);
    }
    slot->inner = std::make_shared<simnet::Mailbox<std::size_t>>(sys.sim_);
    return slot;
  }
  std::vector<std::size_t> pending(LegSlot& leg, bool /*take*/) override {
    return static_cast<BrokerSlot&>(leg).units;  // a slice is redone whole
  }
  void drop(std::span<const std::size_t> lost) override {
    drop_unserved(lost.size());
  }
  bool recover(LegSlot& leg, std::vector<std::size_t> lost,
               bool crashed) override {
    auto& s = static_cast<BrokerSlot&>(leg);
    // A slice counts as recovered work when its broker crashed; one cut
    // off by the network is re-routed without being counted.
    if (crashed) {
      sys.ins_.items_recovered->inc(static_cast<double>(lost.size()));
    }
    if (sys.deadline_exceeded(q)) {
      degrade(lost);
      return false;
    }
    const auto next = acting_broker(s.group, s.node);
    if (!next.has_value()) {
      drop(lost);
      sys.record_trace(coordinator, "group " + std::to_string(s.group) +
                                        " has no surviving broker: dropped " +
                                        std::to_string(lost.size()) +
                                        " collections (degraded)");
      return false;
    }
    sys.ins_.broker_reroutes->inc();
    sys.record_trace(coordinator, "re-routing group " +
                                      std::to_string(s.group) + " through N" +
                                      std::to_string(*next + 1));
    spawn_recovery(make_leg(*next, std::move(lost)));
    return false;
  }
  Node* on_report(LegSlot& leg) override {
    // The broker already counted the unserved units against
    // shard_units_unserved at the site where they were lost.
    const auto& s = static_cast<const BrokerSlot&>(leg);
    if (s.unserved > 0) drop_degraded(s.unserved);
    // One merge per broker aggregate — not one per worker leg. This is the
    // serial-cost redistribution the tier buys.
    return sys.nodes_[coordinator].get();
  }
  void on_lost(LegSlot& leg) override {
    // The dead broker's worker legs are orphaned: abandon them (zombie
    // contract) and close their spans here, since neither the dead broker
    // nor anyone else will.
    for (const auto& w : static_cast<BrokerSlot&>(leg).workers) {
      if (!w->live()) continue;
      w->abandoned = true;
      w->close_span(sys.tracer_, sys.sim_.now(),
                    {{"orphaned", std::int64_t{1}}});
    }
  }
};

/// A broker's in-group PR stage: the group's units routed to in-group shard
/// holders (the grouped shard pools make assign_pr_units in-group by
/// construction), supervised on the broker's own mailbox, with partial
/// merges on the broker. Lost units fail over to surviving in-group
/// replicas, and are dropped in-subtree — tallied on the BrokerSlot, folded
/// into the question's degraded accounting when the broker reports — when
/// none is left or the deadline no longer affords them.
struct System::GroupStage : PrStage {
  GroupStage(System& system, QuestionState& question, BrokerSlot& slot)
      : PrStage(system, question, *slot.inner, slot.node, slot.epoch,
                slot.leg_span, StagePlacement{{slot.node}, {1.0}},
                /*replica_aware=*/true, &slot.workers),
        broker(slot) {
    label = "brokered PR";
    hedge = false;
    // Workers outlive a crashed broker's frame: each keeps the inner
    // mailbox its final report goes to.
    keepalive = slot.inner;
  }

  BrokerSlot& broker;

  void place() {
    const auto unplaced = scatter(broker.units, std::nullopt);
    if (unplaced.empty()) return;
    drop(unplaced);
    sys.record_trace(coordinator, "no ready replica in group " +
                                      std::to_string(broker.group) + " for " +
                                      std::to_string(unplaced.size()) +
                                      " collections (degraded)");
  }

  [[nodiscard]] bool zombie() const override {
    return broker.gone(sys.crash_epoch_);
  }
  void drop(std::span<const std::size_t> lost) override {
    for (const std::size_t u : lost) {
      broker.bytes_out -= static_cast<double>(q.plan->pr_units[u].bytes_out);
    }
    broker.unserved += lost.size();
    sys.ins_.shard_units_unserved->inc(static_cast<double>(lost.size()));
  }
  bool recover(LegSlot& leg, std::vector<std::size_t> lost,
               bool crashed) override {
    sys.ins_.items_recovered->inc(static_cast<double>(lost.size()));
    const auto unplaced = scatter(lost, leg.node);
    if (unplaced.empty()) return false;
    drop(unplaced);
    if (crashed) {
      sys.record_trace(coordinator, "no surviving replica in group " +
                                        std::to_string(broker.group) +
                                        " for " +
                                        std::to_string(unplaced.size()) +
                                        " collections (degraded)");
    }
    return false;
  }
  Node* on_report(LegSlot& leg) override {
    broker.done += leg.done;
    return PrStage::on_report(leg);  // the merge runs on the broker
  }
};

simnet::Task<bool> System::supervise(FanOut& st) {
  while (st.outstanding > 0) {
    // Hedge trigger: wake before the reply timeout when the oldest
    // hedgeable leg crosses the observed leg-wall quantile.
    Seconds wait = config_.net.membership_timeout;
    bool hedge_wake = false;
    const auto delay = st.hedge ? hedge_delay(st.stage) : std::nullopt;
    for (std::size_t i = 0; delay.has_value() && i < st.slots.size(); ++i) {
      const auto due = st.hedge_due(*st.slots[i], *delay);
      if (due.has_value() && *due - sim_.now() < wait) {
        wait = std::max(*due - sim_.now(), 0.0);
        hedge_wake = true;
      }
    }
    const auto msg = co_await st.reports.recv_for(wait);
    if (st.zombie()) co_return false;
    if (msg.has_value()) {
      --st.outstanding;
      LegSlot& s = *st.slots[*msg];
      if (s.unreachable) {
        st.settle_unreachable(s);
        continue;
      }
      observe_leg(st.stage, s.node, sim_.now() - s.spawned,
                  static_cast<double>(s.done), s.hedge_backup);
      st.resolve_hedge(*msg);
      Node* merge = st.on_report(s);
      if (merge != nullptr && !st.coordinator_down()) {
        co_await merge->compute(config_.shard.partial_merge_cpu);
        if (st.zombie()) co_return false;
      }
      continue;
    }
    // The shortened wait elapsed because a leg crossed the hedge trigger,
    // not because replies went silent: no crash sweep.
    if (hedge_wake) {
      st.issue_hedges();
    } else {
      st.sweep_crashes();
    }
  }
  co_return true;
}

System::StagePlacement System::place_stage(NodeId host,
                                           const sched::LoadWeights& weights,
                                           double underload_threshold,
                                           sched::LegStage stage,
                                           obs::Counter& migrations) {
  // table_.size() can hit zero under mass churn (every member crashed,
  // partitioned away, or expired) — then the host carries the stage alone,
  // same as when every selected node turns out unschedulable below.
  if (config_.dispatch.policy != Policy::kDqa || table_.size() == 0) {
    return {{host}, {1.0}};
  }
  const auto ms = sched::meta_schedule(table_, weights, underload_threshold,
                                       &registry_, straggler_mask(stage));
  // Drop nodes that crashed (but have not yet expired from the table) or
  // are currently suspected by the failure detector.
  StagePlacement out;
  for (std::size_t i = 0; i < ms.selected.size(); ++i) {
    if (!schedulable(ms.selected[i])) continue;
    out.nodes.push_back(ms.selected[i]);
    out.weights.push_back(ms.weights[i]);
  }
  if (out.nodes.empty()) return {{host}, {1.0}};
  if (!(out.nodes.size() == 1 && out.nodes[0] == host)) migrations.inc();
  return out;
}

std::optional<NodeId> System::least_loaded(
    const sched::LoadWeights& weights, std::optional<NodeId> exclude,
    std::span<const char> stragglers) const {
  // Passes over the pool, most preferred first: trusted non-stragglers,
  // then suspects, then stragglers. With the detector driving placement,
  // every member may be a suspect — a suspect still beats an arbitrary
  // fallback node.
  for (const bool allow_straggler : {false, true}) {
    for (const bool allow_suspect : {false, true}) {
      std::optional<NodeId> best;
      double best_load = 0.0;
      for (const NodeId m : table_.members()) {
        if (m == exclude || node_crashed_[m] != 0) continue;
        if (!allow_suspect && !schedulable(m)) continue;
        if (!allow_straggler && m < stragglers.size() && stragglers[m] != 0) {
          continue;
        }
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
}

simnet::SimProcess System::pr_leg(QuestionState& q,
                                  std::shared_ptr<WorkerSlot> slot,
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
  const auto dead = [&] { return slot->gone(crash_epoch_); };
  const auto give_up = [&] {
    q.t_ps_max = std::max(q.t_ps_max, leg_ps);
    slot->report_unreachable(tracer_, sim_.now(), ship_cost, reports, index);
  };

  std::uint64_t leg_track = 0;
  if (tracer_ != nullptr) {
    leg_track = tracer_->new_track();
    slot->open_span(*tracer_, sim_.now(), "PR leg",
                    config_.partition.pr_strategy, leg_track);
  }

  while (!slot->chunks->empty()) {
    slot->in_flight = slot->chunks->front();  // PR chunks are single units
    slot->chunks->pop_front();
    slot->has_in_flight = true;
    const std::size_t idx = slot->in_flight.begin;
    const auto& unit = plan.pr_units[idx];

    if (!sent_keywords) {
      const Seconds t0 = sim_.now();
      const bool delivered =
          co_await ship(static_cast<double>(plan.keyword_bytes), host, node,
                        deadline, &ship_cost);
      if (dead()) co_return;
      if (!delivered) {
        give_up();
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
    co_await slot->consume(executor.disk(), unit.demand.disk_bytes * thrash *
                                                executor.gray_disk_factor());
    if (dead()) co_return;
    co_await slot->consume(executor.cpu(), unit.demand.cpu_seconds * thrash *
                                               executor.gray_cpu_factor());
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
    co_await slot->consume(executor.cpu(),
                           executor.cpu_work(unit.ps.cpu_seconds));
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
        give_up();  // in_flight stays set: the unit is redone
        co_return;
      }
      co_await slot->consume(nodes_[host]->disk(),
                             static_cast<double>(unit.bytes_out) *
                                 nodes_[host]->gray_disk_factor());
      if (dead()) co_return;
      q.oh_paragraph_receive += sim_.now() - t0;
    }
    // The unit's results now live on the host: durable across our crash.
    slot->has_in_flight = false;
    ++units_done;
    slot->done = units_done;
  }
  q.t_ps_max = std::max(q.t_ps_max, leg_ps);
  slot->report(tracer_, sim_.now(),
               {{"units", static_cast<std::int64_t>(units_done)}}, ship_cost,
               reports, index);
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
  const auto dead = [&] { return slot->gone(crash_epoch_); };
  if (tracer_ != nullptr) {
    slot->leg_span = tracer_->begin_span(
        sim_.now(), "PR broker", broker, tracer_->new_track(),
        slot->stage_span,
        {{"node", static_cast<std::int64_t>(broker)},
         {"group", static_cast<std::int64_t>(slot->group)},
         {"units", static_cast<std::int64_t>(slot->units.size())}});
  }

  // Keywords travel host -> broker once (core backbone across groups).
  if (broker != host) {
    const Seconds t0 = sim_.now();
    const bool delivered =
        co_await ship(static_cast<double>(plan.keyword_bytes), host, broker,
                      deadline, &ship_cost);
    if (dead()) co_return;
    if (!delivered) {
      slot->report_unreachable(tracer_, sim_.now(), ship_cost, reports, index);
      co_return;
    }
    q.oh_keyword_send += sim_.now() - t0;
  }

  // Routing: resolve each unit's shard to an in-group ready holder.
  co_await executor.compute(config_.broker.route_cpu);
  if (dead()) co_return;

  {
    GroupStage stage(*this, q, *slot);
    stage.place();
    if (!co_await supervise(stage)) co_return;
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
      slot->report_unreachable(tracer_, sim_.now(), ship_cost, reports, index);
      co_return;
    }
    co_await nodes_[host]->disk().consume(aggregate *
                                          nodes_[host]->gray_disk_factor());
    if (dead()) co_return;
    q.oh_paragraph_receive += sim_.now() - t0;
  }
  slot->report(tracer_, sim_.now(),
               {{"units", static_cast<std::int64_t>(slot->done)},
                {"unserved", static_cast<std::int64_t>(slot->unserved)}},
               ship_cost, reports, index);
}

simnet::SimProcess System::ap_leg(QuestionState& q,
                                  std::shared_ptr<WorkerSlot> slot,
                                  std::size_t index,
                                  simnet::Mailbox<std::size_t>& reports) {
  // Same crash and unreachable protocols as pr_leg (see there).
  const NodeId node = slot->node;
  Node& executor = *nodes_[node];
  const QuestionPlan& plan = *q.plan;
  const NodeId host = q.host;
  const Seconds deadline = q.deadline;
  const bool remote = node != host;
  const Seconds leg_start = sim_.now();
  std::size_t processed = 0;
  ShipCost ship_cost;  // see pr_leg
  const auto dead = [&] { return slot->gone(crash_epoch_); };
  const auto give_up = [&] {
    slot->report_unreachable(tracer_, sim_.now(), ship_cost, reports, index);
  };

  if (tracer_ != nullptr) {
    slot->open_span(*tracer_, sim_.now(), "AP leg",
                    config_.partition.ap_strategy, tracer_->new_track());
  }

  // Each batch: ship its paragraphs in, burn CPU per paragraph, extract
  // its answers, ship them back. Answers return per batch, which is why
  // tiny RECV chunks pay more overhead (paper Sec. 4.1.2). A RECV leg runs
  // one batch per chunk it wins from the shared deque: only the in-flight
  // chunk is at risk on a crash — earlier chunks already returned their
  // answers. A SEND/ISEND leg runs its fixed partition as one batch:
  // nothing is durable until the final answer transfer lands, so a crash
  // loses the whole partition.
  const bool recv = slot->chunks != nullptr;
  for (bool first = true; recv ? !slot->chunks->empty() : first;
       first = false) {
    std::size_t begin = 0;
    std::size_t count = slot->units.size();
    if (recv) {
      const parallel::Chunk chunk = slot->chunks->front();
      slot->chunks->pop_front();
      slot->in_flight = chunk;
      slot->has_in_flight = true;
      begin = chunk.begin;
      count = chunk.size();
    }
    const auto paragraph = [&](std::size_t k) -> const auto& {
      return plan.ap_units[recv ? begin + k : slot->units[k]];
    };
    std::size_t bytes_in = 0;
    std::size_t bytes_out = 0;
    for (std::size_t k = 0; k < count; ++k) {
      bytes_in += paragraph(k).bytes_in;
      bytes_out += paragraph(k).answer_bytes_out;
    }
    if (remote && bytes_in > 0) {
      const Seconds t0 = sim_.now();
      const bool delivered = co_await ship(static_cast<double>(bytes_in),
                                           host, node, deadline, &ship_cost);
      if (dead()) co_return;
      if (!delivered) {
        give_up();  // the batch stays in the slot
        co_return;
      }
      q.oh_paragraph_send += sim_.now() - t0;
    }
    for (std::size_t k = 0; k < count; ++k) {
      co_await slot->consume(
          executor.cpu(), executor.cpu_work(paragraph(k).demand.cpu_seconds));
      if (dead()) co_return;
      ++processed;
      slot->done = processed;
    }
    if (count > 0) {
      // Per-batch answer extraction floor (paper Sec. 4.1.2).
      co_await slot->consume(executor.cpu(),
                             config_.partition.per_batch_answer_cpu *
                                 executor.gray_cpu_factor());
      if (dead()) co_return;
    }
    if (remote && bytes_out > 0) {
      const Seconds t0 = sim_.now();
      const bool delivered = co_await ship(static_cast<double>(bytes_out),
                                           node, host, deadline, &ship_cost);
      if (dead()) co_return;
      if (!delivered) {
        give_up();  // answers never landed: the batch is redone
        co_return;
      }
      q.oh_answer_receive += sim_.now() - t0;
    }
    slot->has_in_flight = false;  // answers are back: the batch is durable
  }
  if (processed > 0) {
    record_event(node,
                 "finished " + std::to_string(processed) + " paragraphs in " +
                     format_double(sim_.now() - leg_start, 2) + " secs",
                 {{"kind", std::string("ap_done")},
                  {"paragraphs", static_cast<std::int64_t>(processed)}});
  }
  slot->report(tracer_, sim_.now(),
               {{"paragraphs", static_cast<std::int64_t>(processed)}},
               ship_cost, reports, index);
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
    if (cache_on) {
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
      co_await nodes_[host]->compute(config_.cache.lookup_cpu);
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
      co_await nodes_[host]->compute(plan.qp.cpu_seconds);
      failed = host_dead();
      q.t_qp = sim_.now() - t0;
      if (sp != obs::kNoSpan) tracer_->end_span(sp, sim_.now());
    }

    // ---- Scheduling point 2: the PR dispatcher (DQA only). Skipped
    // entirely on a paragraph-cache hit: the accepted, scored paragraphs
    // are already on the host's disk from a previous run of this question.
    if (!failed && !cached_paragraphs) {
      ensure_selection();
      const SelectionResult& sel = *sel_opt;
      // Replica-aware mode (R < nodes): placement is constrained to ready
      // replica holders, so the scatter is computed per unit by
      // assign_pr_units instead of the unconstrained meta-schedule.
      const bool sharded = shard_partial_;
      StagePlacement pr =
          sharded ? StagePlacement{{host}, {1.0}}
                  : place_stage(host, sched::kPrWeights,
                                config_.dispatch.pr_underload_threshold,
                                sched::LegStage::kPr, *ins_.migrations_pr);

      // ---- PR stage with supervision (see supervise): legs report on
      // `reports`, a reply silence of membership_timeout triggers a
      // liveness sweep, and lost sub-collections are recovered per unit.
      const Seconds pr_start = sim_.now();
      obs::SpanId pr_span = obs::kNoSpan;
      if (tracer_ != nullptr) {
        pr_span = tracer_->begin_span(
            pr_start, "PR", host, q_track, q_span,
            {{"legs", static_cast<std::int64_t>(pr.nodes.size())},
             {"units", static_cast<std::int64_t>(sel.units.size())}});
      }
      simnet::Mailbox<std::size_t> reports(sim_);
      if (topology_.has_value()) {
        // Broker tier: the host routes per-group slices through mediator
        // nodes instead of fanning out to every holder itself.
        BrokerStage stage(*this, q, reports, host, host_epoch, pr_span);
        stage.place(sel.units);
        co_await supervise(stage);
      } else {
        PrStage stage(*this, q, reports, host, host_epoch, pr_span,
                      std::move(pr), sharded);
        stage.place(sel.units);
        co_await supervise(stage);
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
      co_await nodes_[host]->compute(plan.po.cpu_seconds);
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
      StagePlacement ap =
          place_stage(host, sched::kApWeights,
                      config_.dispatch.ap_underload_threshold,
                      sched::LegStage::kAp, *ins_.migrations_ap);

      // ---- AP stage with supervision (see supervise and ApStage).
      const Seconds ap_start = sim_.now();
      obs::SpanId ap_span = obs::kNoSpan;
      if (tracer_ != nullptr) {
        ap_span = tracer_->begin_span(
            ap_start, "AP", host, q_track, q_span,
            {{"legs", static_cast<std::int64_t>(ap.nodes.size())},
             {"paragraphs", static_cast<std::int64_t>(ap_count)}});
      }
      {
        simnet::Mailbox<std::size_t> reports(sim_);
        ApStage stage(*this, q, reports, host, host_epoch, ap_span,
                      std::move(ap));
        stage.place_legs(ap_count, config_.partition.ap_chunk);
        co_await supervise(stage);
      }
      q.t_ap_stage = sim_.now() - ap_start;
      if (ap_span != obs::kNoSpan) tracer_->end_span(ap_span, sim_.now());
      failed = host_dead();
    }

    // ---- Answer merging + sorting (host).
    if (!failed) {
      const Seconds t0 = sim_.now();
      co_await nodes_[host]->compute(plan.answer_sort.cpu_seconds);
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
