#include "hbguard/hbr/incremental.hpp"

#include <algorithm>
#include <functional>

namespace hbguard {

namespace {
bool is_bgp(Protocol protocol) {
  return protocol == Protocol::kEbgp || protocol == Protocol::kIbgp;
}

// Keys of RouterLog::keyed: a lane kind in the top byte, then the protocol
// and an optional prefix (present bit, address, length).
enum : std::uint64_t { kBgpAnnounceLane = 1, kBgpWithdrawLane = 2, kRibLane = 3 };

std::uint64_t prefix_bits(const std::optional<Prefix>& prefix) {
  if (!prefix) return 0;
  return std::uint64_t{1} << 40 | std::uint64_t{prefix->address().bits()} << 8 | prefix->length();
}
std::uint64_t bgp_recv_lane(bool withdraw, std::uint64_t prefix) {
  return (withdraw ? kBgpWithdrawLane : kBgpAnnounceLane) << 56 | prefix;
}
std::uint64_t rib_lane(Protocol protocol, std::uint64_t prefix) {
  return kRibLane << 56 | std::uint64_t{static_cast<std::uint8_t>(protocol)} << 48 | prefix;
}
// Records whose `detail` a rule or a channel compares: OSPF receives (LSA
// lanes, channels) and every non-BGP send (the flood rule's same-LSA lookup,
// channels).
bool keyed_by_detail(const IoRecord& record) {
  return record.kind == IoKind::kSendAdvert
             ? !is_bgp(record.protocol)
             : record.kind == IoKind::kRecvAdvert && record.protocol == Protocol::kOspf;
}
}  // namespace

void RuleMatchEngine::Fifo::pop_front() {
  if (++head == entries.size()) {
    entries.clear();
    head = 0;
  } else if (head >= 64 && head * 2 >= entries.size()) {
    entries.erase(entries.begin(), entries.begin() + static_cast<std::ptrdiff_t>(head));
    head = 0;
  }
}

std::size_t RuleMatchEngine::ChannelKeyHash::operator()(const ChannelKey& key) const {
  std::uint64_t routers = std::uint64_t{key.from} << 32 | key.to;
  return std::hash<std::uint64_t>{}(routers * 0x9E3779B97F4A7C15ull ^ key.content);
}

std::uint32_t RuleMatchEngine::intern(const std::string& content) {
  auto it = contents_.find(content);
  if (it != contents_.end()) return it->second;
  std::uint32_t id = static_cast<std::uint32_t>(contents_.size());
  contents_.emplace(content, id);
  return id;
}

RuleMatchEngine::Keys RuleMatchEngine::intern_keys(const IoRecord& record) {
  return {prefix_bits(record.prefix), keyed_by_detail(record) ? intern(record.detail) : kNoDetail};
}

RuleMatchEngine::Keys RuleMatchEngine::lookup_keys(const IoRecord& record) const {
  Keys keys{prefix_bits(record.prefix), kNoDetail};
  if (keyed_by_detail(record)) {
    auto it = contents_.find(record.detail);
    if (it != contents_.end()) keys.detail = it->second;
  }
  return keys;
}

void RuleMatchEngine::insert(Lane& lane, const IoRecord& record) {
  Entry entry{record.logged_time, record.id};
  // Logs arrive nearly sorted: append unless a later entry is already in.
  if (lane.empty() || lane.back() < entry) {
    lane.push_back(entry);
  } else {
    lane.insert(std::upper_bound(lane.begin(), lane.end(), entry), entry);
  }
}

RuleMatchEngine::RouterLog& RuleMatchEngine::index(const IoRecord& record, const Keys& keys) {
  RouterLog& log = logs_[record.router];
  Lane* lane = nullptr;
  switch (record.kind) {
    case IoKind::kConfigChange:
      lane = &log.config;
      break;
    case IoKind::kHardwareStatus:
      lane = &log.hardware;
      break;
    case IoKind::kRecvAdvert:
      if (is_bgp(record.protocol)) {
        lane = &log.keyed[bgp_recv_lane(record.withdraw, keys.prefix)];
      } else if (record.protocol == Protocol::kOspf) {
        insert(log.ospf_recv, record);
        lane = &log.lsa[keys.detail];
      }
      break;
    case IoKind::kRibUpdate:
      lane = &log.keyed[rib_lane(record.protocol, keys.prefix)];
      break;
    case IoKind::kFibUpdate:
    case IoKind::kSendAdvert:
      break;  // effects only: no rule looks them up as a cause
  }
  if (lane != nullptr) insert(*lane, record);
  return log;
}

RuleMatchEngine::Bracket RuleMatchEngine::bracket(const Lane* lane, SimTime before,
                                                  SimTime window, SimTime slack) {
  Bracket out;
  if (lane == nullptr || lane->empty()) return out;
  // Lookups are mostly for the newest stamp: skip the search then.
  auto it = lane->back().time <= before
                ? lane->end()
                : std::upper_bound(lane->begin(), lane->end(), before,
                                   [](SimTime t, const Entry& e) { return t < e.time; });
  if (it != lane->begin() && (it - 1)->time >= before - window) out.backward = &*(it - 1);
  if (it != lane->end() && it->time <= before + slack) out.forward = &*it;
  return out;
}

RuleMatchEngine::Bracket RuleMatchEngine::merge(Bracket a, Bracket b) {
  if (b.backward != nullptr && (a.backward == nullptr || *a.backward < *b.backward)) {
    a.backward = b.backward;
  }
  if (b.forward != nullptr && (a.forward == nullptr || *b.forward < *a.forward)) {
    a.forward = b.forward;
  }
  return a;
}

const RuleMatchEngine::Entry* RuleMatchEngine::nearest(Bracket bracket, SimTime before) {
  const Entry* pick = bracket.backward;
  // The backward match wins ties in distance.
  if (pick == nullptr ||
      (bracket.forward != nullptr && bracket.forward->time - before < before - pick->time)) {
    pick = bracket.forward;
  }
  return pick;
}

std::string RuleMatchEngine::channel_key(const IoRecord& record, bool is_send) {
  RouterId from = is_send ? record.router : record.peer;
  RouterId to = is_send ? record.peer : record.router;
  std::string content = record.protocol == Protocol::kOspf
                            ? record.detail
                            : (record.prefix ? record.prefix->to_string() : std::string());
  return std::to_string(from) + ">" + std::to_string(to) + "|" +
         (record.withdraw ? "w|" : "a|") + content;
}

void RuleMatchEngine::add_all(std::span<const IoRecord> records,
                              std::vector<InferredHbr>& out) {
  for (const IoRecord& record : records) add(record, out);
}

void RuleMatchEngine::add(const IoRecord& record, std::vector<InferredHbr>& out) {
  const Keys keys = intern_keys(record);
  const RouterLog& local = index(record, keys);
  ++records_seen_;

  match_as_late_cause(record, keys, out);
  match_as_effect(local, record, keys, out);
  if (channel_matching_) match_channels(record, keys, out);

  // Track effects that might still gain a late cause; prune old ones.
  if (options_.local_slack_us <= 0) return;
  if (record.kind == IoKind::kRibUpdate || record.kind == IoKind::kFibUpdate ||
      record.kind == IoKind::kSendAdvert) {
    recent_effects_.push_back(
        {record.logged_time, record.id, keys, record.router, record.kind, record.protocol});
  }
  SimTime horizon = record.logged_time - options_.local_slack_us - 1;
  while (!recent_effects_.empty() && recent_effects_.front().time < horizon) {
    recent_effects_.pop_front();
  }
}

void RuleMatchEngine::match_as_effect(const RouterLog& local, const IoRecord& r,
                                      const Keys& keys, std::vector<InferredHbr>& out) const {
  const SimTime t = r.logged_time;
  const SimTime w = options_.short_window_us;
  const SimTime ls = options_.local_slack_us;
  const std::uint64_t prefix = keys.prefix;
  auto keyed = [&](std::uint64_t key) { return RouterLog::find(local.keyed, key); };

  struct Candidate {
    const Entry* entry;
    const char* rule;
  };
  auto emit = [&](Candidate c) {
    if (c.entry != nullptr && c.entry->id != r.id) out.push_back({c.entry->id, r.id, 1.0, c.rule});
  };
  auto closest = [](std::initializer_list<Candidate> candidates) -> Candidate {
    Candidate best{nullptr, ""};
    for (const Candidate& c : candidates) {
      if (c.entry == nullptr) continue;
      if (best.entry == nullptr || c.entry->time > best.entry->time) best = c;
    }
    return best;
  };
  auto find = [&](const Lane* lane, SimTime window) {
    return nearest(bracket(lane, t, window, ls), t);
  };
  auto find_config = [&] { return find(&local.config, options_.soft_reconfig_window_us); };
  auto find_hardware = [&] { return find(&local.hardware, w); };

  switch (r.kind) {
    case IoKind::kRibUpdate: {
      Candidate recv{nullptr, ""};
      if (is_bgp(r.protocol)) {
        recv = {nearest(merge(bracket(keyed(bgp_recv_lane(false, prefix)), t, w, ls),
                              bracket(keyed(bgp_recv_lane(true, prefix)), t, w, ls)),
                        t),
                "recv-advert->rib"};
      } else if (r.protocol == Protocol::kOspf) {
        recv = {find(&local.ospf_recv, w), "recv-lsa->ospf-rib"};
      }
      Candidate pick =
          closest({recv, {find_config(), "config->rib"}, {find_hardware(), "hardware->rib"}});
      emit(pick);
      if (!is_bgp(r.protocol)) break;
      if (recv.entry != nullptr) {
        // The content-matched advertisement is an HBR regardless of which
        // input was closest (the stored path a decision re-used).
        if (recv.entry != pick.entry) emit(recv);
      } else if (pick.entry != nullptr) {
        // Soft reconfiguration re-runs the decision over routes received
        // long ago: when a config/hardware input triggered this update,
        // also link the stored path's advertisement from the long window.
        emit({find(keyed(bgp_recv_lane(false, prefix)), options_.soft_reconfig_window_us),
              "recv-advert->rib"});
      }
      break;
    }

    case IoKind::kFibUpdate: {
      const Entry* rib = find(keyed(rib_lane(r.protocol, prefix)), w);
      if (rib != nullptr) {
        emit({rib, "rib->fib"});
      } else {
        emit(closest({{find_config(), "config->fib"}, {find_hardware(), "hardware->fib"}}));
      }
      break;
    }

    case IoKind::kSendAdvert: {
      if (is_bgp(r.protocol)) {
        const Entry* rib =
            nearest(merge(bracket(keyed(rib_lane(Protocol::kEbgp, prefix)), t, w, ls),
                          bracket(keyed(rib_lane(Protocol::kIbgp, prefix)), t, w, ls)),
                    t);
        if (rib != nullptr) {
          emit({rib, "bgp-rib->send"});
        } else {
          emit(closest({{find_config(), "config->send"}, {find_hardware(), "hardware->send"}}));
        }
        break;
      }
      // OSPF flooding: prefer the receive of the same LSA (identity is
      // observable in the log line), else the closest trigger.
      const Entry* same_lsa = find(RouterLog::find(local.lsa, keys.detail), w);
      if (same_lsa != nullptr) {
        emit({same_lsa, "lsa-recv->flood"});
      } else {
        emit(closest({{find(&local.ospf_recv, w), "lsa-recv->flood"},
                      {find_config(), "config->ospf-flood"},
                      {find_hardware(), "hardware->ospf-flood"}}));
      }
      break;
    }

    case IoKind::kRecvAdvert:
    case IoKind::kConfigChange:
    case IoKind::kHardwareStatus:
      break;
  }
}

void RuleMatchEngine::match_channels(const IoRecord& r, const Keys& keys,
                                     std::vector<InferredHbr>& out) {
  if (r.peer == kExternalRouter || r.peer == kInvalidRouter) return;
  bool is_send = r.kind == IoKind::kSendAdvert;
  if (!is_send && r.kind != IoKind::kRecvAdvert) return;

  // Content ids collide exactly when channel_key()'s content strings do: an
  // OSPF detail that reads as a prefix shares the prefix's channel.
  std::uint32_t content = keys.detail;
  if (r.protocol != Protocol::kOspf) {
    auto [it, fresh] = prefix_contents_.try_emplace(keys.prefix);
    if (fresh) it->second = intern(r.prefix ? r.prefix->to_string() : std::string());
    content = it->second;
  }
  ChannelKey key{is_send ? r.router : r.peer, is_send ? r.peer : r.router,
                 content << 1 | (r.withdraw ? 1u : 0u)};
  auto slot = channels_.find(key);
  if (slot == channels_.end()) {
    if (spare_channel_.empty()) {
      slot = channels_.try_emplace(key).first;
    } else {
      spare_channel_.key() = key;
      slot = channels_.insert(std::move(spare_channel_)).position;
    }
  }
  Channel& channel = slot->second;
  const SimTime slack = options_.cross_router_slack_us;
  if (is_send) {
    // Receives that this (too-late) send can no longer serve are dropped,
    // matching the batch matcher's skip semantics.
    while (!channel.unmatched_recvs.empty() &&
           r.logged_time > channel.unmatched_recvs.front().time + slack) {
      channel.unmatched_recvs.pop_front();
    }
    if (!channel.unmatched_recvs.empty()) {
      out.push_back({r.id, channel.unmatched_recvs.front().id, 1.0, "send->recv"});
      channel.unmatched_recvs.pop_front();
    } else {
      channel.unmatched_sends.push_back({r.logged_time, r.id});
    }
  } else {
    if (!channel.unmatched_sends.empty() &&
        channel.unmatched_sends.front().time <= r.logged_time + slack) {
      out.push_back({channel.unmatched_sends.front().id, r.id, 1.0, "send->recv"});
      channel.unmatched_sends.pop_front();
    } else {
      channel.unmatched_recvs.push_back({r.logged_time, r.id});
    }
  }
  // A drained channel is the same as one never opened.
  if (channel.unmatched_sends.empty() && channel.unmatched_recvs.empty()) {
    spare_channel_ = channels_.extract(slot);
  }
}

void RuleMatchEngine::match_as_late_cause(const IoRecord& r, const Keys& keys,
                                          std::vector<InferredHbr>& out) const {
  if (options_.local_slack_us <= 0 || recent_effects_.empty()) return;
  bool possible_cause = r.kind == IoKind::kConfigChange || r.kind == IoKind::kHardwareStatus ||
                        r.kind == IoKind::kRecvAdvert || r.kind == IoKind::kRibUpdate;
  if (!possible_cause) return;
  const std::uint64_t prefix = keys.prefix;

  for (const Effect& effect : recent_effects_) {
    if (effect.router != r.router) continue;
    if (effect.time > r.logged_time || effect.time < r.logged_time - options_.local_slack_us) {
      continue;
    }
    // Does `r` qualify as a cause of `effect` under some same-router rule?
    const char* rule = nullptr;
    switch (effect.kind) {
      case IoKind::kRibUpdate:
        if (r.kind == IoKind::kRecvAdvert && is_bgp(r.protocol) && is_bgp(effect.protocol) &&
            prefix == effect.keys.prefix) {
          rule = "recv-advert->rib";
        } else if (r.kind == IoKind::kConfigChange) {
          rule = "config->rib";
        } else if (r.kind == IoKind::kHardwareStatus) {
          rule = "hardware->rib";
        } else if (r.kind == IoKind::kRecvAdvert && r.protocol == Protocol::kOspf &&
                   effect.protocol == Protocol::kOspf) {
          rule = "recv-lsa->ospf-rib";
        }
        break;
      case IoKind::kFibUpdate:
        if (r.kind == IoKind::kRibUpdate && prefix == effect.keys.prefix &&
            r.protocol == effect.protocol) {
          rule = "rib->fib";
        }
        break;
      case IoKind::kSendAdvert:
        if (r.kind == IoKind::kRibUpdate && is_bgp(r.protocol) && is_bgp(effect.protocol) &&
            prefix == effect.keys.prefix) {
          rule = "bgp-rib->send";
        } else if (r.kind == IoKind::kRecvAdvert && r.protocol == Protocol::kOspf &&
                   effect.protocol == Protocol::kOspf && keys.detail == effect.keys.detail) {
          rule = "lsa-recv->flood";
        }
        break;
      default:
        break;
    }
    if (rule != nullptr) out.push_back({r.id, effect.id, 1.0, rule});
  }
}

}  // namespace hbguard
