// Reference HBR matcher for differential tests: the window-walk engine the
// side-index lanes replaced.
//
// Every record goes into one mixed per-router log sorted by (logged_time,
// id); each rule lookup walks that log outward from the effect's stamp,
// testing every record against the rule's predicate, backward until
// `before - window` and forward until `before + slack`. FIFO channels are
// keyed by RuleMatchEngine::channel_key's text. It is slow (a config lookup
// walks the whole soft-reconfig window) and obviously faithful to §4.2's
// "search the (timestamp- and prefix-filtered) stream", which is what an
// oracle should be.
//
// `add` is the incremental engine; `infer_batch` is the batch matcher (every
// record matched against the complete logs, then the sorted channel pass).
#pragma once

#include <algorithm>
#include <deque>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "hbguard/hbr/incremental.hpp"

namespace hbguard::oracle {

class WindowWalkMatcher {
 public:
  explicit WindowWalkMatcher(MatcherOptions options = {}) : options_(options) {}

  /// Ingest one record (the incremental engine's semantics); the record must
  /// outlive the matcher.
  void add(const IoRecord& record, std::vector<InferredHbr>& out) {
    insert(record);
    match_as_late_cause(record, out);
    match_as_effect(record, out);
    match_channels(record, out);
    if (record.kind == IoKind::kRibUpdate || record.kind == IoKind::kFibUpdate ||
        record.kind == IoKind::kSendAdvert) {
      recent_effects_.push_back(&record);
    }
    SimTime horizon = record.logged_time - options_.local_slack_us - 1;
    while (!recent_effects_.empty() && recent_effects_.front()->logged_time < horizon) {
      recent_effects_.pop_front();
    }
  }

  std::vector<InferredHbr> add_all(std::span<const IoRecord> records) {
    std::vector<InferredHbr> out;
    for (const IoRecord& record : records) add(record, out);
    return out;
  }

  /// The batch matcher over `records` (RuleMatchingInference semantics).
  static std::vector<InferredHbr> infer_batch(std::span<const IoRecord> records,
                                              MatcherOptions options = {}) {
    WindowWalkMatcher matcher(options);
    for (const IoRecord& record : records) matcher.insert(record);
    std::vector<InferredHbr> edges;
    for (const IoRecord& record : records) matcher.match_as_effect(record, edges);

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
    for (auto& [key, channel] : channels) {
      std::sort(channel.sends.begin(), channel.sends.end(), sorted_before);
      std::sort(channel.recvs.begin(), channel.recvs.end(), sorted_before);
      std::size_t next_send = 0;
      for (const IoRecord* recv : channel.recvs) {
        if (next_send >= channel.sends.size()) break;
        const IoRecord* send = channel.sends[next_send];
        if (send->logged_time > recv->logged_time + options.cross_router_slack_us) continue;
        ++next_send;
        edges.push_back({send->id, recv->id, 1.0, "send->recv"});
      }
    }
    return edges;
  }

 private:
  static bool is_bgp(Protocol protocol) {
    return protocol == Protocol::kEbgp || protocol == Protocol::kIbgp;
  }
  static bool sorted_before(const IoRecord* a, const IoRecord* b) {
    return a->logged_time != b->logged_time ? a->logged_time < b->logged_time : a->id < b->id;
  }

  void insert(const IoRecord& record) {
    std::vector<const IoRecord*>& log = logs_[record.router];
    auto position = log.end();
    while (position != log.begin() && !sorted_before(*(position - 1), &record)) --position;
    log.insert(position, &record);
  }

  template <typename Pred>
  const IoRecord* nearest(RouterId router, SimTime before, SimTime window, Pred&& pred) const {
    const std::vector<const IoRecord*>& log = logs_.at(router);
    const SimTime slack = options_.local_slack_us;
    auto it = std::upper_bound(log.begin(), log.end(), before,
                               [](SimTime t, const IoRecord* r) { return t < r->logged_time; });
    const IoRecord* backward = nullptr;
    for (auto walk = it; walk != log.begin();) {
      --walk;
      if ((*walk)->logged_time < before - window) break;
      if (pred(**walk)) {
        backward = *walk;
        break;
      }
    }
    const IoRecord* forward = nullptr;
    for (auto walk = it; walk != log.end(); ++walk) {
      if ((*walk)->logged_time > before + slack) break;
      if (pred(**walk)) {
        forward = *walk;
        break;
      }
    }
    if (backward == nullptr) return forward;
    if (forward == nullptr) return backward;
    return (before - backward->logged_time) <= (forward->logged_time - before) ? backward
                                                                               : forward;
  }

  void match_as_effect(const IoRecord& r, std::vector<InferredHbr>& out) const {
    const SimTime t = r.logged_time;
    const SimTime w = options_.short_window_us;
    const SimTime soft = options_.soft_reconfig_window_us;
    auto emit = [&](const IoRecord* from, const char* rule) {
      if (from != nullptr && from->id != r.id) out.push_back({from->id, r.id, 1.0, rule});
    };
    struct Candidate {
      const IoRecord* record;
      const char* rule;
    };
    auto closest = [](std::initializer_list<Candidate> candidates) {
      Candidate best{nullptr, nullptr};
      for (const Candidate& c : candidates) {
        if (c.record == nullptr) continue;
        if (best.record == nullptr || c.record->logged_time > best.record->logged_time) best = c;
      }
      return best;
    };
    auto find_config = [&] {
      return nearest(r.router, t, soft,
                     [](const IoRecord& c) { return c.kind == IoKind::kConfigChange; });
    };
    auto find_hardware = [&] {
      return nearest(r.router, t, w,
                     [](const IoRecord& c) { return c.kind == IoKind::kHardwareStatus; });
    };
    auto ospf_recv = [](const IoRecord& c) {
      return c.kind == IoKind::kRecvAdvert && c.protocol == Protocol::kOspf;
    };

    switch (r.kind) {
      case IoKind::kRibUpdate: {
        const IoRecord* recv = nullptr;
        const char* recv_rule = nullptr;
        if (is_bgp(r.protocol)) {
          recv = nearest(r.router, t, w, [&](const IoRecord& c) {
            return c.kind == IoKind::kRecvAdvert && is_bgp(c.protocol) && c.prefix == r.prefix;
          });
          recv_rule = "recv-advert->rib";
        } else if (r.protocol == Protocol::kOspf) {
          recv = nearest(r.router, t, w, ospf_recv);
          recv_rule = "recv-lsa->ospf-rib";
        }
        Candidate pick = closest({{recv, recv_rule},
                                  {find_config(), "config->rib"},
                                  {find_hardware(), "hardware->rib"}});
        emit(pick.record, pick.rule != nullptr ? pick.rule : "");
        if (recv != nullptr && recv != pick.record && is_bgp(r.protocol)) emit(recv, recv_rule);
        if (recv == nullptr && pick.record != nullptr && is_bgp(r.protocol) &&
            (pick.record->kind == IoKind::kConfigChange ||
             pick.record->kind == IoKind::kHardwareStatus)) {
          const IoRecord* stored_path = nearest(r.router, t, soft, [&](const IoRecord& c) {
            return c.kind == IoKind::kRecvAdvert && is_bgp(c.protocol) &&
                   c.prefix == r.prefix && !c.withdraw;
          });
          if (stored_path != nullptr) emit(stored_path, "recv-advert->rib");
        }
        break;
      }
      case IoKind::kFibUpdate: {
        const IoRecord* rib = nearest(r.router, t, w, [&](const IoRecord& c) {
          return c.kind == IoKind::kRibUpdate && c.prefix == r.prefix &&
                 c.protocol == r.protocol;
        });
        if (rib != nullptr) {
          emit(rib, "rib->fib");
        } else {
          Candidate pick =
              closest({{find_config(), "config->fib"}, {find_hardware(), "hardware->fib"}});
          emit(pick.record, pick.rule != nullptr ? pick.rule : "");
        }
        break;
      }
      case IoKind::kSendAdvert: {
        if (is_bgp(r.protocol)) {
          const IoRecord* rib = nearest(r.router, t, w, [&](const IoRecord& c) {
            return c.kind == IoKind::kRibUpdate && is_bgp(c.protocol) && c.prefix == r.prefix;
          });
          if (rib != nullptr) {
            emit(rib, "bgp-rib->send");
          } else {
            Candidate pick =
                closest({{find_config(), "config->send"}, {find_hardware(), "hardware->send"}});
            emit(pick.record, pick.rule != nullptr ? pick.rule : "");
          }
        } else {
          const IoRecord* same_lsa = nearest(r.router, t, w, [&](const IoRecord& c) {
            return ospf_recv(c) && c.detail == r.detail;
          });
          if (same_lsa != nullptr) {
            emit(same_lsa, "lsa-recv->flood");
          } else {
            Candidate pick = closest({{nearest(r.router, t, w, ospf_recv), "lsa-recv->flood"},
                                      {find_config(), "config->ospf-flood"},
                                      {find_hardware(), "hardware->ospf-flood"}});
            emit(pick.record, pick.rule != nullptr ? pick.rule : "");
          }
        }
        break;
      }
      case IoKind::kRecvAdvert:
      case IoKind::kConfigChange:
      case IoKind::kHardwareStatus:
        break;
    }
  }

  void match_channels(const IoRecord& r, std::vector<InferredHbr>& out) {
    if (r.peer == kExternalRouter || r.peer == kInvalidRouter) return;
    const SimTime slack = options_.cross_router_slack_us;
    if (r.kind == IoKind::kSendAdvert) {
      Channel& channel = channels_[RuleMatchEngine::channel_key(r, true)];
      while (!channel.recvs.empty() && r.logged_time > channel.recvs.front()->logged_time + slack) {
        channel.recvs.pop_front();
      }
      if (!channel.recvs.empty()) {
        out.push_back({r.id, channel.recvs.front()->id, 1.0, "send->recv"});
        channel.recvs.pop_front();
      } else {
        channel.sends.push_back(&r);
      }
    } else if (r.kind == IoKind::kRecvAdvert) {
      Channel& channel = channels_[RuleMatchEngine::channel_key(r, false)];
      if (!channel.sends.empty() && channel.sends.front()->logged_time <= r.logged_time + slack) {
        out.push_back({channel.sends.front()->id, r.id, 1.0, "send->recv"});
        channel.sends.pop_front();
      } else {
        channel.recvs.push_back(&r);
      }
    }
  }

  void match_as_late_cause(const IoRecord& r, std::vector<InferredHbr>& out) const {
    if (options_.local_slack_us <= 0) return;
    if (r.kind != IoKind::kConfigChange && r.kind != IoKind::kHardwareStatus &&
        r.kind != IoKind::kRecvAdvert && r.kind != IoKind::kRibUpdate) {
      return;
    }
    for (const IoRecord* effect : recent_effects_) {
      if (effect->router != r.router) continue;
      if (effect->logged_time > r.logged_time ||
          effect->logged_time < r.logged_time - options_.local_slack_us) {
        continue;
      }
      const char* rule = nullptr;
      switch (effect->kind) {
        case IoKind::kRibUpdate:
          if (r.kind == IoKind::kRecvAdvert && is_bgp(r.protocol) &&
              is_bgp(effect->protocol) && r.prefix == effect->prefix) {
            rule = "recv-advert->rib";
          } else if (r.kind == IoKind::kConfigChange) {
            rule = "config->rib";
          } else if (r.kind == IoKind::kHardwareStatus) {
            rule = "hardware->rib";
          } else if (r.kind == IoKind::kRecvAdvert && r.protocol == Protocol::kOspf &&
                     effect->protocol == Protocol::kOspf) {
            rule = "recv-lsa->ospf-rib";
          }
          break;
        case IoKind::kFibUpdate:
          if (r.kind == IoKind::kRibUpdate && r.prefix == effect->prefix &&
              r.protocol == effect->protocol) {
            rule = "rib->fib";
          }
          break;
        case IoKind::kSendAdvert:
          if (r.kind == IoKind::kRibUpdate && is_bgp(r.protocol) && is_bgp(effect->protocol) &&
              r.prefix == effect->prefix) {
            rule = "bgp-rib->send";
          } else if (r.kind == IoKind::kRecvAdvert && r.protocol == Protocol::kOspf &&
                     effect->protocol == Protocol::kOspf && r.detail == effect->detail) {
            rule = "lsa-recv->flood";
          }
          break;
        default:
          break;
      }
      if (rule != nullptr) out.push_back({r.id, effect->id, 1.0, rule});
    }
  }

  struct Channel {
    std::deque<const IoRecord*> sends;
    std::deque<const IoRecord*> recvs;
  };

  MatcherOptions options_;
  std::map<RouterId, std::vector<const IoRecord*>> logs_;
  std::map<std::string, Channel> channels_;
  std::deque<const IoRecord*> recent_effects_;
};

}  // namespace hbguard::oracle
