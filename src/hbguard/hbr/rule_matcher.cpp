#include "hbguard/hbr/rule_matcher.hpp"

#include <algorithm>
#include <map>

#include "hbguard/hbr/incremental.hpp"
#include "hbguard/util/thread_pool.hpp"

namespace hbguard {

std::vector<InferredHbr> RuleMatchingInference::infer(std::span<const IoRecord> records) const {
  // Same-router rules: index the whole trace into the incremental engine's
  // side-index lanes, then look every record's causes up in the complete
  // lanes (read-only, so the lookups fan out safely).
  RuleMatchEngine lanes(options_);
  for (const IoRecord& r : records) lanes.index(r, lanes.intern_keys(r));

  // Effect matching per record, fanned out over the pool when one is set.
  // Chunks are contiguous record ranges; each emits into its own buffer and
  // the buffers concatenate in record order, so the result is identical to
  // the serial loop at any thread count.
  std::vector<InferredHbr> edges;
  std::size_t workers = pool_ != nullptr ? pool_->size() : 1;
  if (workers > 1 && records.size() >= 2 * workers) {
    std::size_t chunks = std::min(records.size(), static_cast<std::size_t>(workers) * 4);
    std::size_t per_chunk = (records.size() + chunks - 1) / chunks;
    std::vector<std::vector<InferredHbr>> chunk_edges(chunks);
    pool_->parallel_for(chunks, [&](std::size_t c) {
      std::size_t begin = c * per_chunk;
      std::size_t end = std::min(records.size(), begin + per_chunk);
      for (std::size_t i = begin; i < end; ++i) {
        const IoRecord& r = records[i];
        lanes.match_as_effect(lanes.logs_.at(r.router), r, lanes.lookup_keys(r), chunk_edges[c]);
      }
    });
    for (std::vector<InferredHbr>& chunk : chunk_edges) {
      edges.insert(edges.end(), std::make_move_iterator(chunk.begin()),
                   std::make_move_iterator(chunk.end()));
    }
  } else {
    for (const IoRecord& r : records) {
      lanes.match_as_effect(lanes.logs_.at(r.router), r, lanes.lookup_keys(r), edges);
    }
  }

  // Cross-router send→recv matching. Routing sessions are ordered channels
  // (BGP rides TCP; our LSA links deliver in order), so within a
  // (sender, receiver, content) group the k-th receive pairs with the k-th
  // send — FIFO matching — rather than "most recent", which collapses
  // repeated identical messages onto one send.
  struct Channel {
    std::vector<const IoRecord*> sends;
    std::vector<const IoRecord*> recvs;
  };
  std::map<std::string, Channel> channels;
  for (const IoRecord& r : records) {
    if (r.peer == kExternalRouter || r.peer == kInvalidRouter) continue;
    if (r.kind == IoKind::kSendAdvert) {
      channels[RuleMatchEngine::channel_key(r, true)].sends.push_back(&r);
    } else if (r.kind == IoKind::kRecvAdvert) {
      channels[RuleMatchEngine::channel_key(r, false)].recvs.push_back(&r);
    }
  }
  auto by_time = [](const IoRecord* a, const IoRecord* b) {
    return a->logged_time != b->logged_time ? a->logged_time < b->logged_time : a->id < b->id;
  };
  for (auto& [key, channel] : channels) {
    std::sort(channel.sends.begin(), channel.sends.end(), by_time);
    std::sort(channel.recvs.begin(), channel.recvs.end(), by_time);
    std::size_t next_send = 0;
    for (const IoRecord* recv : channel.recvs) {
      if (next_send >= channel.sends.size()) break;
      const IoRecord* send = channel.sends[next_send];
      if (send->logged_time > recv->logged_time + options_.cross_router_slack_us) continue;
      ++next_send;
      edges.push_back({send->id, recv->id, 1.0, "send->recv"});
    }
  }
  return edges;
}

}  // namespace hbguard
