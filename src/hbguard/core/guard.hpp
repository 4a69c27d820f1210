// The integrated verification-and-repair pipeline (Fig. 3).
//
//   CAPTURE CONTROL PLANE I/Os → (HBR inference) → HBG
//        → consistent data-plane snapshot → DATA PLANE VERIFIER
//        → bad FIB updates → TRACE PROVENANCE → root cause
//        → BLOCK I/Os / revert configuration
//
// Guard watches a live Network's capture stream. Each scan builds the HBG
// from observable I/Os (or ground truth, for oracle ablations), assembles a
// consistent snapshot, verifies the policy list, and — on violation —
// traces provenance and repairs according to the configured mode:
//
//   kReport     diagnose only (§6's "report the configuration change as
//               problematic to the operator")
//   kBlock      veto policy-violating FIB updates before they reach the
//               data plane (§2's strawman; causes control/data divergence)
//   kRevert     revert the root-cause configuration change (§6)
//   kEarlyBlock kRevert, plus a learned equivalence-class model that
//               predicts violations from config-change inputs and reverts
//               them before FIB fallout propagates (§6's most advanced
//               mitigation)
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>

#include "hbguard/hbg/builder.hpp"
#include "hbguard/hbg/incremental.hpp"
#include "hbguard/hbr/rule_matcher.hpp"
#include "hbguard/provenance/root_cause.hpp"
#include "hbguard/repair/blocker.hpp"
#include "hbguard/repair/early_block.hpp"
#include "hbguard/repair/reverter.hpp"
#include "hbguard/sim/network.hpp"
#include "hbguard/snapshot/consistent.hpp"
#include "hbguard/snapshot/incremental.hpp"
#include "hbguard/verify/eqclass.hpp"
#include "hbguard/verify/verifier.hpp"

#include "hbguard/core/report.hpp"

namespace hbguard {

struct GuardPersistentState;  // core/guard_state.hpp

//   kProposeOnly kReport's diagnosis plus an explicit repair queue: each
//               incident's best revertible root cause becomes a
//               RepairProposal that an operator approves (executing the
//               revert), declines, or rolls back — the interactive mode
//               hbguardd's `repairs` RPC drives.
enum class RepairMode : std::uint8_t { kReport, kBlock, kRevert, kEarlyBlock, kProposeOnly };

std::string_view to_string(RepairMode mode);

/// A repair the guard diagnosed but deliberately did not execute
/// (RepairMode::kProposeOnly). Proposals are identified by a stable id and
/// live outside GuardReport::digest() — the report records only the
/// incident and the actions actually taken.
struct RepairProposal {
  enum class Status : std::uint8_t { kPending, kApproved, kDeclined };

  std::uint64_t id = 0;
  SimTime proposed_at = 0;
  /// The offending configuration change to revert.
  ConfigVersion cause_version = kNoVersion;
  RouterId router = kInvalidRouter;
  std::string description;  // the offending change's own description
  std::string fault_chain;  // rendered cause→fault chain (Fig. 4 style)
  Status status = Status::kPending;
  /// The version the approved revert created (kNoVersion until approved).
  ConfigVersion executed_version = kNoVersion;
};

std::string_view to_string(RepairProposal::Status status);

struct GuardOptions {
  RepairMode repair = RepairMode::kRevert;
  /// Worker threads for the pipeline's parallel stages (sharded
  /// verification, per-router snapshot replay, EC computation). One pool is
  /// created per Guard and reused by every scan. 0 = one worker per
  /// hardware thread; 1 = the exact serial legacy behaviour. Reports are
  /// byte-identical for every setting (see tests/test_parallel_verify.cpp).
  unsigned num_threads = 0;
  /// Minimum HBG edge confidence used for snapshots and provenance.
  double min_confidence = 0.9;
  /// Virtual time between scans of the capture stream.
  SimTime scan_interval_us = 100'000;
  /// Use the simulator's ground-truth causes instead of inference (oracle
  /// ablation).
  bool use_ground_truth_hbg = false;
  /// Maintain the HBG incrementally across scans (pay only for new I/Os)
  /// rather than rebuilding from the full history each scan.
  bool incremental_hbg = true;
  /// Maintain the consistent snapshot incrementally across scans: persist
  /// per-router FIB replay state, ingest only records past each router's
  /// frontier, and re-run happens-before closure only where the frontier
  /// or incoming HBG edges changed. Scan-stream snapshots (and hence
  /// reports) are byte-identical to scratch builds; flip off to get the
  /// legacy rebuild-from-history behaviour. Requires the incremental HBG
  /// path — scratch HBG modes (ground truth, custom inference,
  /// incremental_hbg = false) always build scratch snapshots.
  bool incremental_snapshot = true;
  /// Custom HBR inference (e.g. CombinedInference with a trained pattern
  /// miner). Non-null forces scratch (non-incremental) graph builds.
  std::shared_ptr<HbrInferencer> inference;
  /// > 0: maintain a sharded DistributedHbgStore (§5) alongside the live
  /// HBG — per-shard rule matching over each shard's own tap stream,
  /// cross-router HBRs exchanged as ShardMessages — and answer incident
  /// provenance through its distributed queries. Reports stay
  /// byte-identical to the single-graph pipeline at any shard count (see
  /// tests/test_distributed_hbg.cpp); construction/query communication
  /// costs are exposed via distributed_store() and
  /// distributed_query_stats(), outside the report digest. Requires the
  /// rules-based incremental HBG path (ground truth, custom inference and
  /// incremental_hbg = false scans ignore this knob).
  std::size_t distributed_shards = 0;
  /// > 0: amortize the incremental HBG's CSR re-pack under this per-append
  /// half-edge budget instead of re-packing eagerly inside one add_edge
  /// (stop-the-world O(E)). Reports are byte-identical either way — the
  /// re-pack preserves per-vertex insertion order — but a long-running
  /// ingestion path (hbguardd) must bound its worst-case append latency.
  std::size_t compact_budget = 0;
  /// Maintain packet equivalence classes incrementally across scans: the
  /// guard keeps a StreamingEquivalenceClasses instance warm and applies
  /// each scan's SnapshotDelta instead of recomputing all classes from the
  /// full table. Materialized classes are byte-identical to
  /// compute_equivalence_classes at every cut point (see
  /// tests/test_streaming_eqclass.cpp); the win is on million-prefix
  /// tables where a scan touches a handful of prefixes. Exposed via
  /// streaming_classes(); off by default (the EC model consumers pay for
  /// classes only on demand).
  bool streaming_eqclass = false;
  /// Traffic-weighted verification scheduling (verify/traffic.hpp). When
  /// enabled, each verifying scan plans its destination set — heaviest
  /// traffic first, aged destinations ahead of everything — and a scan
  /// budget (coverage_target / max_items) may defer a tail of destinations
  /// to later scans; a clean-but-incomplete scan reports
  /// ScanVerdict::kDeferred. With the default full budget the plan covers
  /// every destination and reports are byte-identical to the unscheduled
  /// pipeline (tests/test_traffic_weighted.cpp pins the digests at 1/2/8
  /// threads). Incident causes are re-ranked by affected traffic weight
  /// when demand weights are attached, so repairs (reverts, proposals) fix
  /// the heaviest-traffic root cause first. Coverage/latency metrics live
  /// on traffic_scheduler(), outside GuardReport::digest(). The
  /// scheduler's aging state is deliberately not checkpointed: a recovered
  /// guard starts with every destination aged, i.e. conservatively
  /// re-verifies everything before re-entering budgeted operation.
  TrafficScheduleOptions traffic;
  /// Give up on run() after this many scans without quiescence.
  std::size_t max_scans = 10'000;
  MatcherOptions matcher;
  ConsistentSnapshotter::Options snapshot;
};

class Guard {
 public:
  Guard(Network& network, PolicyList policies, GuardOptions options = {});
  ~Guard();
  Guard(const Guard&) = delete;
  Guard& operator=(const Guard&) = delete;

  /// Drive the network to convergence under guard: alternately dispatch
  /// `scan_interval_us` of simulation and scan. Repairs inject new events
  /// (reverts) which are themselves processed. Returns when the simulator
  /// is idle and the last scan took no action.
  GuardReport run();

  /// One scan over the capture stream; returns the violations seen (empty
  /// when the snapshot is clean). Repairs fire as a side effect per the
  /// configured mode.
  std::vector<Violation> scan();

  const GuardReport& report() const { return report_; }
  const EarlyBlockModel& early_block_model() const { return early_model_; }

  // ---- Repair proposals (RepairMode::kProposeOnly) ----

  /// Outcome of an operator action on a proposal; `message` is
  /// human-readable either way.
  struct ProposalOutcome {
    bool ok = false;
    std::string message;
  };

  const std::vector<RepairProposal>& proposals() const { return proposals_; }
  /// Execute a pending proposal's revert. Fails (with a message) when the
  /// proposal is unknown, already settled, or its config version is not
  /// hosted by this guard's network — e.g. a replayed trace, where the
  /// rollback must be applied to the real device out of band.
  ProposalOutcome approve_proposal(std::uint64_t id);
  /// Dismiss a pending proposal (the change was intended; §6's "the
  /// operator can simply adapt the policy accordingly").
  ProposalOutcome decline_proposal(std::uint64_t id);
  /// Roll back an approved proposal's executed revert (reinstate the
  /// original change); the proposal is then declined.
  ProposalOutcome revert_repair(std::uint64_t id);

  RepairMode repair_mode() const { return options_.repair; }
  /// Switch between the diagnose-only modes (kReport ↔ kProposeOnly) at
  /// runtime — hbguardd's `mode` RPC. The actuating modes wire up
  /// blockers/models at construction and are refused, in either direction.
  bool set_repair_mode(RepairMode mode);

  // ---- Checkpoint support (see core/guard_state.hpp) ----

  /// Snapshot the semantic state (report, proposals, dedup/flag scalars).
  GuardPersistentState export_state() const;
  /// Restore a snapshot onto a freshly constructed Guard (recovery): the
  /// caches and ingest cursors stay empty, so the next scan rebuilds them
  /// with one incremental-from-empty ingest of the capture history — a
  /// path the incremental-vs-scratch parity tests prove digest-identical.
  void import_state(GuardPersistentState state);
  /// Sharded-verification counters (EC memo cache hits/misses per scan).
  VerifyStats verifier_stats() const { return verifier_.stats(); }
  /// Incremental-snapshot counters (all zero when scans run scratch).
  const IncrementalSnapshotter::Stats& snapshot_stats() const {
    return incremental_snapshotter_.stats();
  }
  /// The sharded store maintained when distributed_shards > 0 (nullptr
  /// otherwise) — storage/communication accounting lives here.
  const DistributedHbgStore* distributed_store() const { return distributed_store_.get(); }
  /// Communication cost of every distributed provenance query so far.
  const DistributedQueryStats& distributed_query_stats() const {
    return distributed_query_stats_;
  }

  /// Build the current HBG (for rendering/inspection; copies in
  /// incremental mode).
  HappensBeforeGraph current_hbg() const;

  /// The streaming EC state maintained when options.streaming_eqclass is
  /// set (ready() is false otherwise, and until the first verifying scan).
  const StreamingEquivalenceClasses& streaming_classes() const { return streaming_classes_; }

  /// Traffic-weighted scheduling state (options.traffic). Weighted
  /// coverage, deferral counts and the detection-latency histogram are
  /// operator telemetry — hbguardd's status surfaces them — and live
  /// outside GuardReport::digest().
  bool traffic_scheduling() const { return options_.traffic.enabled; }
  const TrafficScheduler& traffic_scheduler() const { return traffic_scheduler_; }

 private:
  /// The live graph used by scans: the incremental builder's (after
  /// ingesting new records) or a scratch rebuild.
  const HappensBeforeGraph& live_hbg();
  /// True when this guard's scans feed the incremental snapshotter rather
  /// than rebuilding from history (needs the incremental HBG for its edge
  /// deltas).
  bool incremental_snapshot_active() const;
  /// True when scans maintain (and query) the sharded distributed store —
  /// requires the same rules-based incremental path the store's engines
  /// mirror, so its answers provably match the live HBG's.
  bool distributed_active() const;
  /// Map each violation to the most recent FIB-update I/O that produced
  /// the offending entry (served from the per-prefix index maintained by
  /// scan()).
  std::vector<IoId> violating_fib_updates(const std::vector<Violation>& violations) const;
  /// The single most recent FIB-update I/O behind one violation (kNoIo when
  /// the capture has none for its prefix).
  IoId latest_violating_update(const Violation& violation) const;
  /// Sync the scheduler with the policy destination universe and plan this
  /// scan's covered set; nullopt when scheduling is disabled.
  std::optional<ScheduledScan> plan_traffic_scan();
  /// Stable-sort `provenance.causes` by the traffic weight of the
  /// violating I/Os each cause explains (heaviest first), so downstream
  /// repair selection reverts the heaviest-traffic cause first.
  void rank_causes_by_traffic(ProvenanceResult& provenance,
                              const std::vector<Violation>& violations) const;

  void learn_early_block(const ProvenanceResult& provenance,
                         const std::vector<Violation>& violations, bool violated);
  std::optional<RevertAction> try_early_block();

  Network& network_;
  /// Shared across the verifier, snapshotter and EC computation; null when
  /// `num_threads == 1` (serial legacy mode).
  std::shared_ptr<ThreadPool> pool_;
  Verifier verifier_;
  GuardOptions options_;
  RuleMatchingInference rules_;
  ConsistentSnapshotter snapshotter_;
  RootCauseAnalyzer analyzer_;
  ConfigReverter reverter_;
  std::unique_ptr<VerifyingBlocker> blocker_;  // kBlock mode only
  EarlyBlockModel early_model_;
  GuardReport report_;

  IncrementalHbgBuilder incremental_builder_;
  std::size_t ingested_ = 0;             // records fed to the incremental builder
  HappensBeforeGraph scratch_hbg_;       // non-incremental scan graph

  /// Sharded §5 store (distributed_shards > 0 on the incremental path).
  std::unique_ptr<DistributedHbgStore> distributed_store_;
  std::size_t distributed_cursor_ = 0;  // records fed to the sharded store
  DistributedQueryStats distributed_query_stats_;

  IncrementalSnapshotter incremental_snapshotter_;
  /// HBG edges added by the incremental builder since the last snapshot
  /// ingest (the closure-invalidation delta).
  std::vector<HbgEdge> pending_hbg_edges_;
  std::size_t snapshot_cursor_ = 0;   // records fed to the incremental snapshotter
  std::size_t early_cursor_ = 0;      // records walked by try_early_block
  std::size_t fib_index_cursor_ = 0;  // records folded into the FIB-update index
  /// Latest FIB-update I/O per prefix, overall and per router, in capture
  /// order — replaces the per-violation linear rescans of the capture.
  struct LatestFibUpdates {
    IoId any = kNoIo;
    std::vector<std::pair<RouterId, IoId>> by_router;
  };
  std::unordered_map<Prefix, LatestFibUpdates> latest_fib_updates_;

  /// Stream-health transition count at the last scan; a change trips the
  /// scan watchdog (full re-verify, EC cache cleared).
  std::uint64_t last_health_transitions_ = 0;
  /// A degraded scan skipped verification after ingesting its snapshot
  /// delta; the next verifying scan must not trust its stale delta.
  bool pending_full_verify_ = false;

  /// Incremental EC state (options.streaming_eqclass). Updated on every
  /// verifying scan with the same delta the verifier sees — degraded scans
  /// skip it, and the pending-full-verify escalation that protects the
  /// verifier protects this state identically.
  StreamingEquivalenceClasses streaming_classes_;

  /// Priority scheduler over the policy destination universe
  /// (options.traffic.enabled); idle otherwise. Ages advance only on
  /// verifying scans (degraded scans verified nothing, so they don't count
  /// toward the starvation bound).
  TrafficScheduler traffic_scheduler_;

  /// kProposeOnly repair queue (stable ids; never removed, only settled).
  std::vector<RepairProposal> proposals_;
  std::uint64_t next_proposal_id_ = 1;

  std::set<ConfigVersion> early_checked_;
  /// Config changes awaiting a benign label (cleared on clean converged
  /// scans, when their keys are fed to the early-block model as benign).
  std::map<ConfigVersion, std::vector<EarlyBlockKey>> pending_benign_;
  std::string last_violation_signature_;  // dedup repeat incident reports
  bool repair_in_flight_ = false;         // suppress repeat repairs mid-convergence
};

}  // namespace hbguard
