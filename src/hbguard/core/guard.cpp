#include "hbguard/core/guard.hpp"

#include <algorithm>

#include "hbguard/core/guard_state.hpp"
#include "hbguard/util/logging.hpp"

namespace hbguard {

std::string_view to_string(RepairMode mode) {
  switch (mode) {
    case RepairMode::kReport: return "report";
    case RepairMode::kBlock: return "block";
    case RepairMode::kRevert: return "revert";
    case RepairMode::kEarlyBlock: return "early-block";
    case RepairMode::kProposeOnly: return "propose-only";
  }
  return "?";
}

std::string_view to_string(RepairProposal::Status status) {
  switch (status) {
    case RepairProposal::Status::kPending: return "pending";
    case RepairProposal::Status::kApproved: return "approved";
    case RepairProposal::Status::kDeclined: return "declined";
  }
  return "?";
}

namespace {

// The snapshotter inherits the Guard-wide thread knob so one setting
// parallelizes the whole pipeline.
ConsistentSnapshotter::Options snapshot_options(const GuardOptions& options) {
  ConsistentSnapshotter::Options snap = options.snapshot;
  snap.num_threads = options.num_threads;
  return snap;
}

// The incremental snapshotter mirrors the scratch builder's consistency
// knobs so the two paths stay byte-equivalent.
IncrementalSnapshotter::Options incremental_snapshot_options(const GuardOptions& options) {
  IncrementalSnapshotter::Options snap;
  snap.min_confidence = options.snapshot.min_confidence;
  snap.require_send_for_recv = options.snapshot.require_send_for_recv;
  snap.in_flux_window_us = options.snapshot.in_flux_window_us;
  return snap;
}

}  // namespace

Guard::Guard(Network& network, PolicyList policies, GuardOptions options)
    : network_(network),
      pool_(resolve_num_threads(options.num_threads) == 1
                ? nullptr
                : std::make_shared<ThreadPool>(options.num_threads)),
      verifier_(policies, VerifierOptions{options.num_threads}, pool_),
      options_(options),
      rules_(options.matcher),
      snapshotter_(snapshot_options(options)),
      analyzer_(RootCauseAnalyzer::Options{options.min_confidence}),
      reverter_(network),
      incremental_builder_(options.matcher),
      incremental_snapshotter_(incremental_snapshot_options(options)),
      traffic_scheduler_(options.traffic) {
  snapshotter_.set_thread_pool(pool_);
  // Annotate streaming ECs with the demand so operators (and the weighted
  // bench) read per-class traffic totals straight off classes().
  if (options_.traffic.weights != nullptr) {
    streaming_classes_.set_traffic_weights(options_.traffic.weights);
  }
  // The batch matcher fans candidate matching out over the shared pool; the
  // HBG and match engine reference the capture store instead of copying
  // records (the hub outlives the guard and its store only grows).
  rules_.set_thread_pool(pool_);
  incremental_builder_.attach_store(&network.capture().records());
  incremental_builder_.set_compact_budget(options_.compact_budget);
  if (distributed_active()) {
    DistributedHbgStore::Options store_options;
    store_options.num_shards = options_.distributed_shards;
    store_options.matcher = options_.matcher;
    distributed_store_ = std::make_unique<DistributedHbgStore>(store_options);
    distributed_store_->attach_store(&network.capture().records());
  }
  if (options_.repair == RepairMode::kBlock) {
    blocker_ = std::make_unique<VerifyingBlocker>(network, std::move(policies));
  }
}

Guard::~Guard() = default;

HappensBeforeGraph Guard::current_hbg() const {
  const std::vector<IoRecord>& store = network_.capture().records();
  std::span<const IoRecord> records = store;
  if (options_.use_ground_truth_hbg) return HbgBuilder::build_ground_truth(records, &store);
  if (options_.inference != nullptr) {
    return HbgBuilder::build(records, *options_.inference, &store);
  }
  if (options_.incremental_hbg && incremental_builder_.records_ingested() > 0) {
    return incremental_builder_.graph();  // copy of the live graph
  }
  return HbgBuilder::build(records, rules_, &store);
}

const HappensBeforeGraph& Guard::live_hbg() {
  std::span<const IoRecord> records = network_.capture().records();
  bool scratch = options_.use_ground_truth_hbg || options_.inference != nullptr ||
                 !options_.incremental_hbg;
  if (scratch) {
    const std::vector<IoRecord>* store = &network_.capture().records();
    if (options_.use_ground_truth_hbg) {
      scratch_hbg_ = HbgBuilder::build_ground_truth(records, store);
    } else if (options_.inference != nullptr) {
      scratch_hbg_ = HbgBuilder::build(records, *options_.inference, store);
    } else {
      scratch_hbg_ = HbgBuilder::build(records, rules_, store);
    }
    return scratch_hbg_;
  }
  if (records.size() > ingested_) {
    // Collect the edge delta for the incremental snapshotter's closure
    // invalidation; cleared when a snapshot ingest consumes it.
    incremental_builder_.append(records.subspan(ingested_),
                                incremental_snapshot_active() ? &pending_hbg_edges_ : nullptr);
    ingested_ = records.size();
  }
  return incremental_builder_.graph();
}

bool Guard::incremental_snapshot_active() const {
  return options_.incremental_snapshot && options_.incremental_hbg &&
         !options_.use_ground_truth_hbg && options_.inference == nullptr;
}

bool Guard::distributed_active() const {
  return options_.distributed_shards > 0 && options_.incremental_hbg &&
         !options_.use_ground_truth_hbg && options_.inference == nullptr;
}

GuardReport Guard::run() {
  std::size_t last_blocked = 0;
  while (report_.scans < options_.max_scans) {
    network_.run_for(options_.scan_interval_us);
    std::size_t incidents_before = report_.incidents.size();
    std::vector<Violation> violations = scan();

    // Blocking mode: vetoes happen inside the interceptor; surface them as
    // incidents when new blocks appeared.
    if (blocker_ != nullptr && blocker_->blocked_count() > last_blocked) {
      GuardIncident incident;
      incident.detected_at = network_.sim().now();
      incident.action = "blocked " + std::to_string(blocker_->blocked_count() - last_blocked) +
                        " FIB update(s) before installation";
      report_.incidents.push_back(std::move(incident));
      last_blocked = blocker_->blocked_count();
      report_.blocked_updates = last_blocked;
    }

    bool acted = report_.incidents.size() != incidents_before;
    if (network_.sim().idle() && !acted) {
      if (violations.empty() || !repair_in_flight_) break;
    }
  }
  return report_;
}

IoId Guard::latest_violating_update(const Violation& violation) const {
  // Served from the per-prefix index scan() maintains from the capture
  // delta — the last matching update in capture order, exactly what the
  // old full rescan returned: the violating router's own, else any router's.
  auto it = latest_fib_updates_.find(violation.prefix);
  if (it == latest_fib_updates_.end()) return kNoIo;
  if (violation.router != kInvalidRouter) {
    for (const auto& [router, io] : it->second.by_router) {
      if (router == violation.router) return io;
    }
  }
  return it->second.any;
}

std::vector<IoId> Guard::violating_fib_updates(const std::vector<Violation>& violations) const {
  std::vector<IoId> out;
  for (const Violation& violation : violations) {
    IoId io = latest_violating_update(violation);
    if (io != kNoIo && std::find(out.begin(), out.end(), io) == out.end()) out.push_back(io);
  }
  return out;
}

std::optional<ScheduledScan> Guard::plan_traffic_scan() {
  if (!options_.traffic.enabled) return std::nullopt;
  // The destination universe is the policies' representative addresses —
  // exactly the keys the sharded verifier builds forwarding graphs for.
  // Weights come from the attached demand, summed per destination (distinct
  // prefixes can share a representative); without demand every destination
  // weighs 1 and the scheduler degenerates to deterministic round-robin
  // order over ids.
  const TrafficWeights* weights = options_.traffic.weights.get();
  std::map<std::uint32_t, std::uint64_t> universe;
  for (const auto& policy : verifier_.policies()) {
    for (const Prefix& prefix : policy->prefixes()) {
      std::uint64_t weight = weights != nullptr ? weights->weight_of(prefix) : 1;
      universe[representative(prefix).bits()] += weight;
    }
  }
  traffic_scheduler_.sync_items({universe.begin(), universe.end()});
  return traffic_scheduler_.plan();
}

void Guard::rank_causes_by_traffic(ProvenanceResult& provenance,
                                   const std::vector<Violation>& violations) const {
  // Each violation's traffic weight lands on its latest violating FIB
  // update; a cause inherits the weight of every violating I/O on its
  // chain. Stable sort so equal-weight causes keep the analyzer's
  // most-actionable-first order — and a run whose causes are already
  // weight-sorted is left untouched.
  const TrafficWeights& weights = *options_.traffic.weights;
  std::map<IoId, std::uint64_t> io_weight;
  for (const Violation& violation : violations) {
    IoId io = latest_violating_update(violation);
    if (io != kNoIo) io_weight[io] += weights.weight_of(violation.prefix);
  }
  std::vector<std::pair<std::uint64_t, RootCause>> ranked;
  ranked.reserve(provenance.causes.size());
  for (RootCause& cause : provenance.causes) {
    std::uint64_t total = 0;
    for (IoId io : cause.chain) {
      auto it = io_weight.find(io);
      if (it != io_weight.end()) total += it->second;
    }
    auto it = io_weight.find(cause.io);
    if (it != io_weight.end() &&
        std::find(cause.chain.begin(), cause.chain.end(), cause.io) == cause.chain.end()) {
      total += it->second;
    }
    ranked.emplace_back(total, std::move(cause));
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    provenance.causes[i] = std::move(ranked[i].second);
  }
}

namespace {
std::string violation_signature(const std::vector<Violation>& violations) {
  std::string out;
  for (const Violation& v : violations) {
    out += v.policy;
    out += '|';
    out += std::to_string(v.router);
    out += ';';
  }
  return out;
}
}  // namespace

std::vector<Violation> Guard::scan() {
  CaptureHub& capture = network_.capture();
  // Expire gap grace windows first: abandoned buffers append to the store
  // now, so this scan sees them (and the cursors below stay consistent).
  capture.tick_health(network_.sim().now());
  ++report_.scans;
  report_.records_processed = capture.records().size();

  // Telemetry health: copy the tracker's counters into the report and note
  // whether any stream's view is currently unreliable.
  const StreamHealthTracker* health = capture.health();
  bool degraded = false;
  bool health_flipped = false;
  std::set<RouterId> lossy;
  if (health != nullptr) {
    // Streams with records gone for good: the snapshotters use this to keep
    // receives whose matching send was dropped in capture (it can never
    // arrive) instead of rewinding the receiving router forever.
    lossy = health->lossy_routers();
    report_.degrade.enabled = true;
    const StreamHealthStats& hs = health->stats();
    report_.degrade.gaps = hs.gaps_detected;
    report_.degrade.duplicates = hs.duplicates_dropped;
    report_.degrade.late_records = hs.late_dropped;
    report_.degrade.records_lost = hs.records_lost;
    report_.degrade.quarantine_windows = hs.quarantines;
    report_.degrade.resyncs = hs.resyncs;
    degraded = health->any_degraded();
    health_flipped = health->transitions() != last_health_transitions_;
    last_health_transitions_ = health->transitions();
  }

  // Fold the capture delta into the per-prefix FIB-update index before any
  // early return, so provenance lookups later this scan see every record.
  for (const IoRecord& r : capture.records_since(fib_index_cursor_)) {
    if (r.kind != IoKind::kFibUpdate || !r.prefix.has_value()) continue;
    LatestFibUpdates& latest = latest_fib_updates_[*r.prefix];
    latest.any = r.id;
    auto mine = std::find_if(latest.by_router.begin(), latest.by_router.end(),
                             [&](const auto& entry) { return entry.first == r.router; });
    if (mine != latest.by_router.end()) {
      mine->second = r.id;
    } else {
      latest.by_router.emplace_back(r.router, r.id);
    }
  }
  fib_index_cursor_ = capture.records().size();

  const HappensBeforeGraph& hbg = live_hbg();

  // Mirror the capture delta into the sharded store: per-shard rule
  // matching over each shard's own stream, cross-router HBRs exchanged as
  // ShardMessages (§5). Incident provenance below is answered through its
  // distributed queries.
  if (distributed_store_ != nullptr) {
    std::span<const IoRecord> all = capture.records();
    if (all.size() > distributed_cursor_) {
      distributed_store_->append(all.subspan(distributed_cursor_), pool_.get());
      // Queries follow within this scan, so run the quiescence barrier on
      // the pool instead of letting the first query do it serially.
      distributed_store_->quiesce(pool_.get());
      distributed_cursor_ = all.size();
    }
  }

  // Skip predictive blocking while degraded: it learns and predicts from
  // replayed state that is known-stale right now.
  if (options_.repair == RepairMode::kEarlyBlock && !repair_in_flight_ && !degraded) {
    if (auto action = try_early_block()) {
      GuardIncident incident;
      incident.detected_at = network_.sim().now();
      incident.action = "early-reverted v" + std::to_string(action->reverted) +
                        " (predicted violation from learned EC behaviour)";
      report_.incidents.push_back(std::move(incident));
      ++report_.early_reverts;
      repair_in_flight_ = true;
      report_.scan_verdicts.push_back(ScanVerdict::kUnknown);  // no verify ran
      return {};
    }
  }

  // Snapshot + verify. The incremental path feeds only new records (and
  // the HBG edge delta) into persistent replay state, then hands the
  // verifier the changed-prefix set so untouched destinations skip
  // re-keying; the scratch path rebuilds from the full history.
  // Scan watchdog: a health flip (gap opened/healed, quarantine entered or
  // left) means frontiers may have rewound or a router's replayed view was
  // wholesale reset — drop incremental trust for this scan and re-verify
  // everything from the rebuilt snapshot.
  if (health_flipped) {
    ++report_.degrade.watchdog_fallbacks;
    verifier_.clear_cache();
    pending_full_verify_ = true;
  }

  VerifyResult result;
  std::optional<ScheduledScan> sched;
  if (incremental_snapshot_active()) {
    SnapshotDelta delta;
    const DataPlaneSnapshot& snapshot = incremental_snapshotter_.ingest(
        capture.records_since(snapshot_cursor_), hbg, pending_hbg_edges_, &delta, nullptr,
        &lossy);
    snapshot_cursor_ = capture.records().size();
    pending_hbg_edges_.clear();
    if (degraded) {
      // At least one router's stream has an open gap or is quarantined: any
      // PASS/FAIL would be built on a view known to be unreliable. Keep the
      // replay state warm but report this scan as unknown.
      ++report_.degrade.degraded_scans;
      report_.degrade.unknown_verdicts += verifier_.policies().size();
      report_.scan_verdicts.push_back(ScanVerdict::kUnknown);
      pending_full_verify_ = true;  // this scan's delta was never verified
      return {};
    }
    if (pending_full_verify_) {
      delta.full = true;
      delta.changed_prefixes.clear();
      pending_full_verify_ = false;
    }
    // Same delta, same trust rules as the verifier: a degraded scan above
    // returned before this point, and its stale delta arrives here as full.
    if (options_.streaming_eqclass) streaming_classes_.update(snapshot, delta, pool_.get());
    sched = plan_traffic_scan();
    VerifyPlan plan;
    if (sched.has_value()) plan.covered = sched->covered;
    result = verifier_.verify(snapshot, &delta, sched.has_value() ? &plan : nullptr);
  } else {
    if (degraded) {
      ++report_.degrade.degraded_scans;
      report_.degrade.unknown_verdicts += verifier_.policies().size();
      report_.scan_verdicts.push_back(ScanVerdict::kUnknown);
      return {};
    }
    pending_full_verify_ = false;
    DataPlaneSnapshot snapshot =
        snapshotter_.build(capture.records(), hbg, {}, nullptr, &lossy);
    if (options_.streaming_eqclass) streaming_classes_.rebuild(snapshot, pool_.get());
    sched = plan_traffic_scan();
    VerifyPlan plan;
    if (sched.has_value()) plan.covered = sched->covered;
    result = verifier_.verify(snapshot, nullptr, sched.has_value() ? &plan : nullptr);
  }
  if (sched.has_value()) traffic_scheduler_.mark_verified(sched->covered);
  // A clean budgeted scan that deferred a tail is not a full PASS: the
  // covered weight is verified, the tail was never looked at. Report it as
  // kDeferred and skip the clean-scan side effects (clean_scans, benign
  // flush, repair_in_flight reset) — those assert full-network health.
  bool deferred_tail = sched.has_value() && !sched->full();
  report_.scan_verdicts.push_back(result.clean() ? (deferred_tail ? ScanVerdict::kDeferred
                                                                  : ScanVerdict::kPass)
                                                 : ScanVerdict::kFail);

  if (result.clean()) {
    if (deferred_tail) return {};
    ++report_.clean_scans;
    repair_in_flight_ = false;
    // Configuration changes that reached a clean converged state were
    // benign: feed the early-block model.
    if (network_.sim().idle()) {
      for (auto it = pending_benign_.begin(); it != pending_benign_.end();) {
        for (const EarlyBlockKey& key : it->second) early_model_.observe(key, false);
        it = pending_benign_.erase(it);
      }
    }
    return {};
  }

  if (repair_in_flight_) return std::move(result.violations);  // converging after a repair

  std::string signature = violation_signature(result.violations);
  if (signature == last_violation_signature_) {
    return std::move(result.violations);  // already reported; nothing new to do
  }
  last_violation_signature_ = std::move(signature);

  GuardIncident incident;
  incident.detected_at = network_.sim().now();
  incident.violations = result.violations;

  std::vector<IoId> fib_ios = violating_fib_updates(result.violations);
  // Distributed mode answers provenance through the sharded store's
  // shard-local walks (paying messages per cross-shard edge); the result is
  // byte-identical to the global-graph analysis, so the incident — and the
  // report digest — does not depend on the deployment shape.
  ProvenanceResult provenance =
      distributed_store_ != nullptr
          ? analyzer_.analyze_all(*distributed_store_, fib_ios, &distributed_query_stats_)
          : analyzer_.analyze_all(hbg, fib_ios);
  // With demand attached, rank causes by affected traffic so the repair
  // path below reverts the heaviest-traffic root cause first. Uniform runs
  // (no weights) keep the analyzer's order — and their digests — untouched.
  if (options_.traffic.enabled && options_.traffic.weights != nullptr) {
    rank_causes_by_traffic(provenance, result.violations);
  }
  incident.causes = provenance.causes;
  incident.fault_chain = RootCauseAnalyzer::render(hbg, provenance);

  switch (options_.repair) {
    case RepairMode::kReport:
    case RepairMode::kBlock:
      incident.action = "reported";
      break;
    case RepairMode::kProposeOnly: {
      const RootCause* candidate = nullptr;
      for (const RootCause& cause : provenance.causes) {
        if (cause.kind != CauseKind::kConfigChange) continue;
        if (cause.record.config_version == kNoVersion) continue;
        // One live proposal per offending version.
        bool seen = false;
        for (const RepairProposal& p : proposals_) {
          if (p.cause_version == cause.record.config_version &&
              p.status != RepairProposal::Status::kDeclined) {
            seen = true;
            break;
          }
        }
        if (seen) continue;
        // When the change is hosted by this network's config store, apply
        // the executing reverter's rules (skip initial configs and changes
        // already undone). Replayed traces aren't hosted; still propose —
        // the rollback happens out of band.
        const auto& history = network_.configs().history();
        if (cause.record.config_version - 1 < history.size()) {
          const ConfigChangeRecord& rec = history[cause.record.config_version - 1];
          if (rec.reverted || rec.parent == kNoVersion) continue;
        }
        candidate = &cause;
        break;
      }
      if (candidate != nullptr) {
        RepairProposal proposal;
        proposal.id = next_proposal_id_++;
        proposal.proposed_at = network_.sim().now();
        proposal.cause_version = candidate->record.config_version;
        proposal.router = candidate->record.router;
        proposal.description = candidate->record.detail;
        proposal.fault_chain = incident.fault_chain;
        incident.action = "proposed revert of v" +
                          std::to_string(candidate->record.config_version) + " on R" +
                          std::to_string(candidate->record.router) + " (proposal #" +
                          std::to_string(proposal.id) + ", awaiting approval)";
        proposals_.push_back(std::move(proposal));
      } else {
        incident.action = "reported (no revertible cause)";
      }
      break;
    }
    case RepairMode::kRevert:
    case RepairMode::kEarlyBlock: {
      learn_early_block(provenance, result.violations, /*violated=*/true);
      auto action = reverter_.revert_root_cause(provenance);
      if (action.has_value()) {
        incident.action = "reverted v" + std::to_string(action->reverted) + " on R" +
                          std::to_string(action->router);
        ++report_.reverts;
        repair_in_flight_ = true;
      } else {
        incident.action = "reported (no revertible cause)";
      }
      break;
    }
  }
  report_.incidents.push_back(std::move(incident));
  return std::move(result.violations);
}

Guard::ProposalOutcome Guard::approve_proposal(std::uint64_t id) {
  for (RepairProposal& p : proposals_) {
    if (p.id != id) continue;
    if (p.status != RepairProposal::Status::kPending) {
      return {false, "proposal #" + std::to_string(id) + " already " +
                         std::string(to_string(p.status))};
    }
    const auto& history = network_.configs().history();
    if (p.cause_version == kNoVersion || p.cause_version - 1 >= history.size()) {
      return {false, "config v" + std::to_string(p.cause_version) +
                         " is not hosted by this guard's network (replayed trace); apply "
                         "the rollback to the device out of band"};
    }
    const ConfigChangeRecord& rec = history[p.cause_version - 1];
    if (rec.reverted) {
      p.status = RepairProposal::Status::kDeclined;
      return {false, "config v" + std::to_string(p.cause_version) + " was already reverted"};
    }
    std::string description = "revert of v" + std::to_string(p.cause_version) + " (" +
                              rec.description + ") — operator-approved proposal #" +
                              std::to_string(id);
    p.executed_version = network_.revert_config_change(p.cause_version, description);
    p.status = RepairProposal::Status::kApproved;
    ++report_.reverts;
    repair_in_flight_ = true;
    return {true, "approved: " + description + " (new v" +
                      std::to_string(p.executed_version) + ")"};
  }
  return {false, "no proposal #" + std::to_string(id)};
}

Guard::ProposalOutcome Guard::decline_proposal(std::uint64_t id) {
  for (RepairProposal& p : proposals_) {
    if (p.id != id) continue;
    if (p.status != RepairProposal::Status::kPending) {
      return {false, "proposal #" + std::to_string(id) + " already " +
                         std::string(to_string(p.status))};
    }
    p.status = RepairProposal::Status::kDeclined;
    return {true, "declined proposal #" + std::to_string(id)};
  }
  return {false, "no proposal #" + std::to_string(id)};
}

Guard::ProposalOutcome Guard::revert_repair(std::uint64_t id) {
  for (RepairProposal& p : proposals_) {
    if (p.id != id) continue;
    if (p.status != RepairProposal::Status::kApproved || p.executed_version == kNoVersion) {
      return {false, "proposal #" + std::to_string(id) + " has no executed repair to roll back"};
    }
    std::string description = "roll back repair of proposal #" + std::to_string(id) +
                              " (reinstate v" + std::to_string(p.cause_version) + ")";
    network_.revert_config_change(p.executed_version, description);
    p.status = RepairProposal::Status::kDeclined;
    p.executed_version = kNoVersion;
    repair_in_flight_ = true;
    return {true, description};
  }
  return {false, "no proposal #" + std::to_string(id)};
}

bool Guard::set_repair_mode(RepairMode mode) {
  auto diagnostic = [](RepairMode m) {
    return m == RepairMode::kReport || m == RepairMode::kProposeOnly;
  };
  if (!diagnostic(mode) || !diagnostic(options_.repair)) return false;
  options_.repair = mode;
  return true;
}

GuardPersistentState Guard::export_state() const {
  GuardPersistentState state;
  state.report = report_;
  state.proposals = proposals_;
  state.next_proposal_id = next_proposal_id_;
  state.last_violation_signature = last_violation_signature_;
  state.repair_in_flight = repair_in_flight_;
  state.pending_full_verify = pending_full_verify_;
  state.last_health_transitions = last_health_transitions_;
  return state;
}

void Guard::import_state(GuardPersistentState state) {
  report_ = std::move(state.report);
  proposals_ = std::move(state.proposals);
  next_proposal_id_ = state.next_proposal_id;
  last_violation_signature_ = std::move(state.last_violation_signature);
  repair_in_flight_ = state.repair_in_flight;
  pending_full_verify_ = state.pending_full_verify;
  last_health_transitions_ = state.last_health_transitions;
}

void Guard::learn_early_block(const ProvenanceResult& provenance,
                              const std::vector<Violation>& violations, bool violated) {
  for (const RootCause& cause : provenance.causes) {
    if (cause.kind != CauseKind::kConfigChange) continue;
    // Equivalence-class signatures from the *pre-change* data plane: replay
    // the capture up to just before the change was logged.
    std::map<RouterId, SimTime> horizons;
    for (std::size_t i = 0; i < network_.router_count(); ++i) {
      horizons[static_cast<RouterId>(i)] = cause.record.logged_time - 1;
    }
    const HappensBeforeGraph& hbg = live_hbg();
    DataPlaneSnapshot before =
        snapshotter_.build(network_.capture().records(), hbg, horizons);
    EquivalenceClasses classes = compute_equivalence_classes(before, pool_.get());

    std::string change_signature = normalize_change_description(cause.record.detail);
    for (const Violation& violation : violations) {
      std::size_t index = classes.class_of(representative(violation.prefix));
      std::string ec_signature =
          index < classes.classes.size() ? classes.classes[index].signature : "";
      early_model_.observe({cause.record.router, change_signature, ec_signature}, violated);
    }
    pending_benign_.erase(cause.record.config_version);
  }
}

std::optional<RevertAction> Guard::try_early_block() {
  // Walk only records past the persistent cursor: each record is examined
  // exactly once across the guard's lifetime (the capture is append-only).
  // On an early return the cursor already points past the triggering
  // record, so the next call resumes where this one stopped — the same
  // order the old full rescan produced via its config_version dedup.
  std::span<const IoRecord> records = network_.capture().records();
  while (early_cursor_ < records.size()) {
    const IoRecord& record = records[early_cursor_++];
    if (record.kind != IoKind::kConfigChange) continue;
    if (record.config_version == kNoVersion || early_checked_.contains(record.config_version)) {
      continue;
    }
    early_checked_.insert(record.config_version);
    const ConfigChangeRecord& change = network_.configs().record(record.config_version);
    if (change.parent == kNoVersion || change.reverted) continue;  // initial or already undone
    if (change.description.starts_with("revert")) continue;        // our own repairs

    // Pre-change data plane and its equivalence classes.
    std::map<RouterId, SimTime> horizons;
    for (std::size_t i = 0; i < network_.router_count(); ++i) {
      horizons[static_cast<RouterId>(i)] = record.logged_time - 1;
    }
    const HappensBeforeGraph& hbg = live_hbg();
    DataPlaneSnapshot before = snapshotter_.build(records, hbg, horizons);
    EquivalenceClasses classes = compute_equivalence_classes(before, pool_.get());

    std::string change_signature = normalize_change_description(record.detail);
    std::vector<EarlyBlockKey> keys;
    bool predicted_violation = false;
    for (const auto& policy : verifier_.policies()) {
      for (const Prefix& prefix : policy->prefixes()) {
        std::size_t index = classes.class_of(representative(prefix));
        std::string ec_signature =
            index < classes.classes.size() ? classes.classes[index].signature : "";
        EarlyBlockKey key{record.router, change_signature, ec_signature};
        keys.push_back(key);
        auto prediction = early_model_.predict(key);
        if (prediction.has_value() && *prediction >= 0.5) predicted_violation = true;
      }
    }

    if (predicted_violation) {
      RevertAction action;
      action.reverted = record.config_version;
      action.router = record.router;
      action.description = "early revert of v" + std::to_string(record.config_version);
      action.new_version =
          network_.revert_config_change(record.config_version, action.description);
      return action;
    }
    pending_benign_[record.config_version] = std::move(keys);
  }
  return std::nullopt;
}

}  // namespace hbguard
