// Incremental HBR matching (the online form of rule matching).
//
// The paper's deployment maintains the HBG continuously as I/Os stream in;
// rebuilding the graph from scratch on every scan is O(trace²) over a
// run's lifetime. RuleMatchEngine ingests records one at a time and emits
// the same edges the batch matcher produces.
//
// §4.2 searches "the (timestamp- and prefix-filtered) stream of I/Os" for a
// rule's left-hand side. The engine keeps that filter as side-index *lanes*:
// per router, one lane per lookup the rules make — configuration changes,
// hardware events, BGP announces and BGP withdraws per prefix, OSPF
// receives, OSPF receives per LSA identity (`detail`), and RIB updates per
// (protocol, prefix). A lane holds only the records its lookup accepts, as
// (logged_time, id) pairs in that order, so the nearest cause is one
// upper_bound in one lane (or two, merged: a BGP receive lookup merges the
// prefix's announce and withdraw lanes, and "any BGP RIB update" merges the
// eBGP and iBGP lanes; the soft-reconfig stored-path lookup reads the
// announce lane alone).
//
// Cross-router send→recv matching keeps one FIFO pair per channel (sender,
// receiver, announce/withdraw, content), keyed by interned integers; a
// channel whose queues have drained is erased, so the open-channel count
// tracks messages in flight, not messages ever sent.
//
// Lanes, channels and the late-cause queue copy the few fields they need
// (stamp, id, interned content), so the engine never reads a record after
// add() returns: the cause it picks is emitted from its lane entry, not from
// the store.
//
// One caveat under clock noise: a cause logged *after* its effect (within
// the slack) may arrive after the effect was already matched; the engine
// then emits the late edge additionally rather than replacing the earlier
// pick, so the incremental edge set is a superset of the batch matcher's
// for such records. With monotone per-router logs (slack 0) the outputs are
// identical.
#pragma once

#include "hbguard/hbr/inference.hpp"
#include "hbguard/hbr/rule_matcher.hpp"

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

namespace hbguard {

class RuleMatchEngine {
 public:
  explicit RuleMatchEngine(MatcherOptions options = {}) : options_(options) {}

  /// Accepts the capture store that the graph layers share. The engine keeps
  /// no reference to any record past add(), so it has nothing to attach.
  void attach_store(const std::vector<IoRecord>* /*store*/) {}

  /// Ingest one record; appends any edges it completes (as effect or as
  /// late-arriving cause) to `out`.
  void add(const IoRecord& record, std::vector<InferredHbr>& out);

  /// Ingest a batch (capture order).
  void add_all(std::span<const IoRecord> records, std::vector<InferredHbr>& out);

  /// Disable the cross-router send→recv channel pass, leaving only the
  /// same-router rules. A sharded deployment runs one local-only engine per
  /// shard (same-router matching reads nothing but the record's own router
  /// log, so it decomposes exactly) and stitches channels separately from
  /// the exchanged send messages — see DistributedHbgStore.
  void set_channel_matching(bool enabled) { channel_matching_ = enabled; }

  /// The FIFO channel a send/recv record belongs to (sender>receiver,
  /// announce/withdraw, content identity) as text. The engine keys the same
  /// channels by interned integers; this form is what the distributed store
  /// routes channel events by, and two records share a channel exactly when
  /// their keys here are equal.
  static std::string channel_key(const IoRecord& record, bool is_send);

  std::size_t records_seen() const { return records_seen_; }
  /// Channels holding an unmatched send or receive.
  std::size_t open_channels() const { return channels_.size(); }

 private:
  friend class RuleMatchingInference;  // batch matching over the same lanes

  struct Entry {
    SimTime time;  // the record's logged_time
    IoId id;
    friend bool operator<(const Entry& a, const Entry& b) {
      return a.time != b.time ? a.time < b.time : a.id < b.id;
    }
  };
  /// Records one lookup accepts, sorted by (logged_time, id).
  using Lane = std::vector<Entry>;

  /// A lane's nearest entries on either side of a stamp: the last one at or
  /// before it (within the window) and the first one after it (within the
  /// slack).
  struct Bracket {
    const Entry* backward = nullptr;
    const Entry* forward = nullptr;
  };

  struct RouterLog {
    Lane config;
    Lane hardware;
    Lane ospf_recv;
    /// BGP announces and withdraws per prefix, RIB updates per (protocol,
    /// prefix); see the lane keys in incremental.cpp.
    std::unordered_map<std::uint64_t, Lane> keyed;
    /// OSPF receives per interned detail (one LSA instance each).
    std::unordered_map<std::uint32_t, Lane> lsa;

    template <typename Key>
    static const Lane* find(const std::unordered_map<Key, Lane>& lanes, Key key) {
      auto it = lanes.find(key);
      return it != lanes.end() ? &it->second : nullptr;
    }
  };

  /// FIFO of channel entries: a vector and a read cursor, so a new channel
  /// allocates nothing until its first message.
  struct Fifo {
    // A constructor, not a member initializer: Channels::node_type below
    // needs Fifo constructible before RuleMatchEngine is complete.
    Fifo() : head(0) {}

    std::vector<Entry> entries;
    std::size_t head;

    bool empty() const { return head == entries.size(); }
    const Entry& front() const { return entries[head]; }
    void push_back(Entry entry) { entries.push_back(entry); }
    void pop_front();
  };

  /// FIFO send→recv channel (ordered session).
  struct Channel {
    Fifo unmatched_sends;
    Fifo unmatched_recvs;
  };
  struct ChannelKey {
    RouterId from;
    RouterId to;
    std::uint32_t content;  // interned content string << 1 | withdraw
    bool operator==(const ChannelKey&) const = default;
  };
  struct ChannelKeyHash {
    std::size_t operator()(const ChannelKey& key) const;
  };

  /// A record's lookup keys, computed once per record.
  struct Keys {
    std::uint64_t prefix;  // present bit, address, length (0 when absent)
    std::uint32_t detail;  // interned detail where a rule reads it, else kNoDetail
  };
  static constexpr std::uint32_t kNoDetail = 0xFFFFFFFFu;

  /// What the late-cause rules read of a recent effect.
  struct Effect {
    SimTime time;
    IoId id;
    Keys keys;
    RouterId router;
    IoKind kind;
    Protocol protocol;
  };

  /// The keys of `record`, interning its detail; lookup_keys() only reads
  /// the intern table (a detail never interned matches no lane).
  Keys intern_keys(const IoRecord& record);
  Keys lookup_keys(const IoRecord& record) const;
  std::uint32_t intern(const std::string& content);

  /// Add `record` to the lanes of its router that would accept it.
  RouterLog& index(const IoRecord& record, const Keys& keys);
  static void insert(Lane& lane, const IoRecord& record);

  static Bracket bracket(const Lane* lane, SimTime before, SimTime window, SimTime slack);
  static Bracket merge(Bracket a, Bracket b);
  static const Entry* nearest(Bracket bracket, SimTime before);

  void match_as_effect(const RouterLog& local, const IoRecord& record, const Keys& keys,
                       std::vector<InferredHbr>& out) const;
  void match_channels(const IoRecord& record, const Keys& keys, std::vector<InferredHbr>& out);
  void match_as_late_cause(const IoRecord& record, const Keys& keys,
                           std::vector<InferredHbr>& out) const;

  MatcherOptions options_;
  bool channel_matching_ = true;
  std::unordered_map<RouterId, RouterLog> logs_;
  /// Content strings (OSPF details, prefix texts) → dense ids; the prefix
  /// cache saves formatting a prefix per message.
  std::unordered_map<std::string, std::uint32_t> contents_;
  std::unordered_map<std::uint64_t, std::uint32_t> prefix_contents_;
  using Channels = std::unordered_map<ChannelKey, Channel, ChannelKeyHash>;
  Channels channels_;
  /// The last drained channel's node, reused for the next new channel so
  /// opening and draining one allocates nothing.
  Channels::node_type spare_channel_;
  /// Recent effects that could still acquire a better/late cause, kept for
  /// the slack horizon (only when local_slack_us > 0).
  std::deque<Effect> recent_effects_;
  std::size_t records_seen_ = 0;
};

/// HbrInferencer adapter: batch inference via the incremental engine.
class IncrementalRuleInference : public HbrInferencer {
 public:
  explicit IncrementalRuleInference(MatcherOptions options = {}) : options_(options) {}
  std::string name() const override { return "rules-incremental"; }
  std::vector<InferredHbr> infer(std::span<const IoRecord> records) const override {
    RuleMatchEngine engine(options_);
    std::vector<InferredHbr> edges;
    engine.add_all(records, edges);
    return edges;
  }

 private:
  MatcherOptions options_;
};

}  // namespace hbguard
