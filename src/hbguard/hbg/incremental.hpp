// Incremental happens-before graph construction.
//
// Wraps RuleMatchEngine and a HappensBeforeGraph so an online consumer (the
// Guard) pays only for new I/Os on each scan instead of rebuilding the
// graph from the full history — the paper's "construction ... of the HBG
// can also be distributed [and continuous]".
#pragma once

#include <span>
#include <vector>

#include "hbguard/hbg/graph.hpp"
#include "hbguard/hbr/incremental.hpp"

namespace hbguard {

class IncrementalHbgBuilder {
 public:
  explicit IncrementalHbgBuilder(MatcherOptions options = {}) : engine_(options) {}

  /// Share the capture record store (typically &CaptureHub::records()) with
  /// the graph so it does not copy records. The store must outlive this
  /// builder and only grow; spans passed to append must then be subspans of
  /// the store. Call before the first append.
  void attach_store(const std::vector<IoRecord>* store) { graph_.attach_record_store(store); }

  /// Ingest records (capture order; ids must be new). Returns the number
  /// of edges added. When `new_edges` is non-null, every added edge is also
  /// appended there — the delta a downstream incremental consumer (e.g. the
  /// incremental snapshotter's closure) needs to know which vertices gained
  /// causes. Note edges may target *older* records (late-cause and channel
  /// matching under clock noise), not just the records in this batch.
  std::size_t append(std::span<const IoRecord> records,
                     std::vector<HbgEdge>* new_edges = nullptr);

  // -- Shard-scoped hooks (distributed construction, §5) ------------------
  //
  // A DistributedHbgStore shard is one of these builders restricted to the
  // shard's own tap stream: the engine runs same-router rules only (the
  // channel pass is stitched from exchanged ShardMessages instead), and
  // externally matched edges — cross-channel pairs the shard learns about
  // via its inbox — are appended through add_matched_edge.

  /// Turn the engine's internal send→recv channel pass off (shard-local
  /// matching). Call before the first append.
  void set_channel_matching(bool enabled) { engine_.set_channel_matching(enabled); }

  /// Append an edge matched outside the engine (e.g. a channel pair the
  /// distributed exchange produced). Returns false when either endpoint is
  /// not a vertex of this shard's graph.
  bool add_matched_edge(const HbgEdge& edge) {
    if (!graph_.has_vertex(edge.from) || !graph_.has_vertex(edge.to)) return false;
    graph_.add_edge(edge);
    return true;
  }

  /// Amortize the graph's CSR re-pack under a per-append half-edge budget
  /// (0 = eager). See HappensBeforeGraph::set_compact_budget.
  void set_compact_budget(std::size_t budget) { graph_.set_compact_budget(budget); }

  /// Direct access to the underlying graph for shard adoption — splitting
  /// an already-built global HBG into per-shard slices copies vertices and
  /// edges in without running the engine at all.
  HappensBeforeGraph& graph_mutable() { return graph_; }

  const HappensBeforeGraph& graph() const { return graph_; }
  std::size_t records_ingested() const { return engine_.records_seen(); }

 private:
  RuleMatchEngine engine_;
  HappensBeforeGraph graph_;
};

}  // namespace hbguard
