#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "hbguard/core/guard.hpp"
#include "hbguard/hbg/builder.hpp"
#include "hbguard/hbg/incremental.hpp"
#include "hbguard/hbr/rule_matcher.hpp"
#include "hbguard/sim/scenario.hpp"
#include "hbguard/sim/workload.hpp"
#include "hbguard/util/rng.hpp"
#include "hbguard/util/thread_pool.hpp"
#include "window_walk_matcher.hpp"

namespace hbguard {
namespace {

std::set<std::pair<IoId, IoId>> edge_set(const HappensBeforeGraph& graph) {
  std::set<std::pair<IoId, IoId>> edges;
  graph.for_each_edge([&](const HbgEdge& edge) { edges.emplace(edge.from, edge.to); });
  return edges;
}

std::vector<IoRecord> churn_trace(std::uint64_t seed) {
  NetworkOptions options;
  options.seed = seed;
  Rng rng(seed);
  auto generated = make_ibgp_network(make_random_topology(9, 4, rng), 3, options);
  generated.network->run_to_convergence();
  ChurnOptions churn_options;
  churn_options.seed = seed + 3;
  churn_options.event_count = 35;
  ChurnWorkload churn(generated, churn_options);
  generated.network->run_to_convergence();
  return generated.network->capture().records();
}

TEST(Incremental, MatchesBatchOnPerfectLogs) {
  auto records = churn_trace(123);
  auto batch = HbgBuilder::build(records, RuleMatchingInference());

  IncrementalHbgBuilder incremental;
  incremental.append(records);

  EXPECT_EQ(incremental.graph().vertex_count(), batch.vertex_count());
  auto batch_edges = edge_set(batch);
  auto incremental_edges = edge_set(incremental.graph());
  // With monotone per-router logs (no slack) the edge sets must be equal.
  std::vector<std::pair<IoId, IoId>> missing, extra;
  std::set_difference(batch_edges.begin(), batch_edges.end(), incremental_edges.begin(),
                      incremental_edges.end(), std::back_inserter(missing));
  std::set_difference(incremental_edges.begin(), incremental_edges.end(), batch_edges.begin(),
                      batch_edges.end(), std::back_inserter(extra));
  EXPECT_TRUE(missing.empty()) << missing.size() << " edges missing from incremental";
  EXPECT_TRUE(extra.empty()) << extra.size() << " extra edges in incremental";
}

TEST(Incremental, ChunkedAppendsEqualOneShot) {
  auto records = churn_trace(321);
  IncrementalHbgBuilder one_shot;
  one_shot.append(records);

  IncrementalHbgBuilder chunked;
  std::size_t offset = 0;
  std::size_t chunk = 7;
  while (offset < records.size()) {
    std::size_t take = std::min(chunk, records.size() - offset);
    chunked.append(std::span<const IoRecord>(records).subspan(offset, take));
    offset += take;
    chunk = chunk * 2 + 1;  // uneven chunk sizes
  }
  EXPECT_EQ(edge_set(one_shot.graph()), edge_set(chunked.graph()));
  EXPECT_EQ(chunked.records_ingested(), records.size());
}

TEST(Incremental, AccuracyMatchesBatchUnderGroundTruthScoring) {
  auto records = churn_trace(777);
  IncrementalRuleInference incremental;
  RuleMatchingInference batch;
  auto batch_score = score_inference(records, batch.infer(records));
  auto incremental_score = score_inference(records, incremental.infer(records));
  EXPECT_NEAR(incremental_score.precision(), batch_score.precision(), 0.02);
  EXPECT_NEAR(incremental_score.recall(), batch_score.recall(), 0.02);
}

TEST(Incremental, LateCauseUnderClockNoiseStillLinked) {
  // Under per-record jitter a cause can be logged after its effect; the
  // engine must emit the edge when the late cause arrives.
  NetworkOptions options;
  options.capture.timestamp_jitter_us = 300;
  options.seed = 5;
  auto scenario = PaperScenario::make(options);
  scenario.converge_initial();
  ConfigVersion bad = scenario.misconfigure_r2_lp10();
  scenario.network->run_to_convergence();
  auto records = scenario.network->capture().records();

  MatcherOptions matcher;
  matcher.local_slack_us = 1'000;
  IncrementalHbgBuilder builder(matcher);
  builder.append(records);

  IoId fault = kNoIo, cause = kNoIo;
  for (const IoRecord& r : records) {
    if (r.kind == IoKind::kFibUpdate && r.router == scenario.r1 && r.prefix.has_value() &&
        *r.prefix == scenario.prefix_p && !r.withdraw) {
      fault = r.id;
    }
    if (r.kind == IoKind::kConfigChange && r.config_version == bad) cause = r.id;
  }
  ASSERT_NE(fault, kNoIo);
  auto ancestors = builder.graph().ancestors(fault, 0.9);
  EXPECT_TRUE(std::binary_search(ancestors.begin(), ancestors.end(), cause))
      << "provenance chain must survive clock noise in incremental mode";
}

TEST(Incremental, GuardIncrementalAndScratchAgree) {
  auto run = [](bool incremental) {
    auto scenario = PaperScenario::make();
    scenario.converge_initial();
    PolicyList policies;
    policies.push_back(std::make_shared<LoopFreedomPolicy>(scenario.prefix_p));
    policies.push_back(std::make_shared<PreferredExitPolicy>(
        scenario.prefix_p, scenario.r2, PaperScenario::kUplink2, scenario.r1,
        PaperScenario::kUplink1));
    GuardOptions options;
    options.incremental_hbg = incremental;
    Guard guard(*scenario.network, policies, options);
    scenario.misconfigure_r2_lp10();
    auto report = guard.run();
    return std::make_tuple(report.incidents.size(), report.reverts,
                           scenario.fib_exits_via(scenario.r3, scenario.r2));
  };
  EXPECT_EQ(run(true), run(false));
}


// ---- Differential: side-index lanes vs the window-walk oracle -------------

/// A randomized stream that hits the lanes' edge cases: stamps on a 100 µs
/// grid (so effects land exactly on `before - window` and `before + slack`),
/// equal-stamp ties, stamps and ids that go backwards within a router, eBGP and
/// iBGP mixed, withdraw-only receive histories, records without a prefix,
/// and an OSPF detail equal to a prefix's text (or empty).
std::vector<IoRecord> random_stream(std::uint64_t seed, std::size_t count) {
  Rng rng(seed);
  const std::vector<std::optional<Prefix>> prefixes = {
      Prefix::parse("10.0.0.0/24"), Prefix::parse("10.0.1.0/24"), Prefix::parse("10.0.0.0/16"),
      std::nullopt};
  // Withdraw-only receives for this prefix: no stored path ever exists.
  const std::optional<Prefix> withdrawn_only = Prefix::parse("10.0.1.0/24");
  const std::vector<std::string> details = {"LSA R1 seq=1", "LSA R1 seq=2", "LSA R2 seq=1",
                                            "10.0.0.0/24", ""};
  const std::vector<Protocol> protocols = {Protocol::kEbgp, Protocol::kIbgp, Protocol::kOspf,
                                           Protocol::kConnected, Protocol::kStatic};
  const std::vector<IoKind> kinds = {IoKind::kConfigChange, IoKind::kHardwareStatus,
                                     IoKind::kRecvAdvert,   IoKind::kRibUpdate,
                                     IoKind::kFibUpdate,    IoKind::kSendAdvert};
  auto pick = [&](const auto& options) -> const auto& {
    return options[rng.uniform_int(0, static_cast<std::int64_t>(options.size()) - 1)];
  };
  std::vector<SimTime> clock(4, 0);
  std::vector<IoRecord> records;
  for (std::size_t i = 0; i < count; ++i) {
    IoRecord r;
    r.id = i + 1;
    r.router = static_cast<RouterId>(rng.uniform_int(0, 3));
    // Mostly forward by 0-3 grid steps, sometimes back by up to 5 (out of
    // order within the router).
    SimTime& now = clock[r.router];
    if (rng.uniform_int(0, 9) == 0) {
      now = std::max<SimTime>(0, now - 100 * rng.uniform_int(1, 5));
    } else {
      now += 100 * rng.uniform_int(0, 3);
    }
    r.logged_time = now;
    r.true_time = now;
    r.kind = pick(kinds);
    r.protocol = pick(protocols);
    r.prefix = pick(prefixes);
    r.detail = pick(details);
    r.withdraw = rng.uniform_int(0, 3) == 0;
    if (r.kind == IoKind::kRecvAdvert && r.prefix == withdrawn_only) r.withdraw = true;
    if (r.kind == IoKind::kSendAdvert || r.kind == IoKind::kRecvAdvert) {
      int peer = rng.uniform_int(0, 5);
      r.peer = peer == 4 ? kExternalRouter
               : peer == 5 ? kInvalidRouter
                           : static_cast<RouterId>(peer);
    }
    records.push_back(std::move(r));
    // Now and then deliver a record before an earlier-id one, so equal
    // stamps must be ordered by id, not by arrival.
    if (records.size() >= 2 && rng.uniform_int(0, 9) == 0) {
      std::swap(records[records.size() - 1], records[records.size() - 2]);
    }
  }
  return records;
}

std::vector<std::tuple<IoId, IoId, std::string>> listed(const std::vector<InferredHbr>& edges) {
  std::vector<std::tuple<IoId, IoId, std::string>> out;
  for (const InferredHbr& e : edges) out.emplace_back(e.from, e.to, e.rule);
  return out;
}

std::vector<MatcherOptions> differential_options() {
  MatcherOptions base;
  base.short_window_us = 1'000;
  base.soft_reconfig_window_us = 5'000;
  base.cross_router_slack_us = 300;
  MatcherOptions slack = base;
  slack.local_slack_us = 200;
  MatcherOptions wide = slack;
  wide.local_slack_us = 1'000;  // slack as long as the short window
  return {base, slack, wide, MatcherOptions{}};
}

TEST(IncrementalDifferential, EngineEdgeListEqualsWindowWalkOracle) {
  for (const MatcherOptions& options : differential_options()) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      auto records = random_stream(seed, 1500);
      RuleMatchEngine engine(options);
      std::vector<InferredHbr> lanes;
      engine.add_all(records, lanes);
      auto walked = oracle::WindowWalkMatcher(options).add_all(records);
      ASSERT_EQ(listed(lanes), listed(walked))
          << "seed " << seed << " local_slack_us " << options.local_slack_us;
    }
  }
}

TEST(IncrementalDifferential, BatchEdgeListEqualsWindowWalkOracle) {
  auto pool = std::make_shared<ThreadPool>(3);
  for (const MatcherOptions& options : differential_options()) {
    for (std::uint64_t seed = 20; seed <= 27; ++seed) {
      auto records = random_stream(seed, 1200);
      auto expected = listed(oracle::WindowWalkMatcher::infer_batch(records, options));
      RuleMatchingInference serial(options);
      EXPECT_EQ(listed(serial.infer(records)), expected) << "seed " << seed;
      RuleMatchingInference parallel(options);
      parallel.set_thread_pool(pool);
      EXPECT_EQ(listed(parallel.infer(records)), expected) << "seed " << seed << " (pool)";
    }
  }
}

TEST(IncrementalDifferential, SimulatedChurnEqualsWindowWalkOracle) {
  for (std::uint64_t seed : {123u, 321u}) {
    auto records = churn_trace(seed);
    IncrementalRuleInference lanes;
    EXPECT_EQ(listed(lanes.infer(records)),
              listed(oracle::WindowWalkMatcher().add_all(records)));
    EXPECT_EQ(listed(RuleMatchingInference().infer(records)),
              listed(oracle::WindowWalkMatcher::infer_batch(records)));
  }
}

TEST(IncrementalDifferential, DrainedChannelsAreErased) {
  // Every OSPF LSA instance is its own channel; a long stream of flooded
  // instances, each received right after it is sent, must not leave a
  // channel per instance behind.
  std::vector<IoRecord> records;
  for (std::uint64_t seq = 1; seq <= 20'000; ++seq) {
    for (bool send : {true, false}) {
      IoRecord r;
      r.id = records.size() + 1;
      r.kind = send ? IoKind::kSendAdvert : IoKind::kRecvAdvert;
      r.protocol = Protocol::kOspf;
      r.router = send ? 1 : 2;
      r.peer = send ? 2 : 1;
      r.logged_time = static_cast<SimTime>(seq) * 1'000 + (send ? 0 : 10);
      r.detail = "LSA R1 seq=" + std::to_string(seq);
      records.push_back(std::move(r));
    }
  }
  RuleMatchEngine engine;
  std::vector<InferredHbr> edges;
  std::size_t most_open = 0;
  for (const IoRecord& r : records) {
    engine.add(r, edges);
    most_open = std::max(most_open, engine.open_channels());
  }
  EXPECT_EQ(edges.size(), 20'000u);  // one send->recv per instance
  EXPECT_LE(most_open, 1u);
  EXPECT_EQ(engine.open_channels(), 0u);

  // A converged simulated run leaves only the few undelivered messages.
  auto churn = churn_trace(555);
  RuleMatchEngine sim;
  edges.clear();
  sim.add_all(churn, edges);
  std::size_t messages = 0;
  for (const IoRecord& r : churn) messages += r.kind == IoKind::kSendAdvert;
  EXPECT_LT(sim.open_channels() * 50, messages) << sim.open_channels() << " open channels";
}

}  // namespace
}  // namespace hbguard
