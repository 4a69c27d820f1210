// Workload generation and the offline oracle for hbgbench.
//
// Both workloads stream the `hbguardd --soak` generator's capture: iBGP
// over OSPF on an 8-router Waxman topology, 2 uplinks, 4 prefixes, flaps
// plus local-pref changes, grown round by round until the stream is long
// enough for the warm, paced and drain phases. durable_ops adds the WAL,
// checkpoints, operator RPCs under load, and restarts (live.cpp).
//
// Every record goes through the production JSONL codec once (ground truth
// redacted, as a collector would log it) and is parsed back, so the
// daemon, the oracle and the traced run all see byte-identical input.
#include <algorithm>
#include <stdexcept>

#include "bench_common.hpp"
#include "hbguard/capture/trace_io.hpp"
#include "hbguard/sim/workload.hpp"
#include "hbguard/verify/policy.hpp"

namespace hbgbench {

using namespace hbguard;

namespace {

// Records after the paced phase (durable_ops: after the recovery tail).
// The streams stay under ~200k records: much beyond that the `digest`
// reply can outgrow the daemon's non-blocking reply write (see README.md,
// "Known defects").
constexpr std::size_t kDrainRecords = 100'000;
// Records after the initial convergence that still count as warm-up. A
// stateless restart re-sends the warm prefix, so this also sizes that
// recovery: ~0.2 s of work rather than a few milliseconds of spawn noise.
constexpr std::size_t kWarmRecords = 20'000;
// Length of the paced phase: enough scans that a p99 rests on more than
// ten samples (at 15000 records/s, 5 s of churn hold ~1800 scans; at
// 8000/s, 7 s of durable_ops ~1300). `--seconds` sizes the repeated
// restart-and-drain cycles instead (live.cpp), not the stream.
constexpr double kChurnPacedSeconds = 5.0;
constexpr double kDurablePacedSeconds = 7.0;
// Half the checkpoint cadence, so no periodic checkpoint falls inside the
// recovery tail.
constexpr std::size_t kRecoveryTail = 10'000;

void add_policy_prefix(Workload& w, const Prefix& prefix) {
  w.session.policies.push_back(std::make_shared<LoopFreedomPolicy>(prefix));
  w.session.policies.push_back(std::make_shared<BlackholeFreedomPolicy>(prefix));
  w.daemon_args.push_back("--prefix");
  w.daemon_args.push_back(prefix.to_string());
}

/// The initial convergence plus churn rounds until `extra` records follow
/// it; `converged` receives the convergence record count.
std::vector<IoRecord> churn_records(std::uint64_t seed, std::size_t extra,
                                    std::size_t* converged) {
  // The soak's network (topology and link-delay seed 97) is fixed; the seed
  // draws the churn. Topology draws change per-record costs and incident
  // counts several-fold, which would swamp the run-to-run comparison.
  Rng topo_rng(97);
  NetworkOptions net_options;
  net_options.seed = 97;
  GeneratedNetwork net = make_ibgp_network(make_waxman_topology(8, topo_rng), 2, net_options);
  net.network->run_to_convergence();
  *converged = net.network->capture().records().size();
  const std::size_t target = *converged + extra;
  ChurnOptions churn;
  churn.prefix_count = 4;
  churn.event_count = 64;
  for (std::uint64_t round = 0; net.network->capture().records().size() < target; ++round) {
    churn.seed = seed * 1000 + round + 1;
    ChurnWorkload workload(net, churn);
    net.network->run_to_convergence();
  }
  std::vector<IoRecord> records = net.network->capture().records();
  records.resize(target);  // a prefix of a capture is a valid capture
  return records;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed, double offered_rps,
                       double rpc_rps) {
  if (name != "churn" && name != "durable_ops") {
    throw std::invalid_argument("unknown workload " + name);
  }
  Workload w;
  w.name = name;
  w.durable = name == "durable_ops";
  w.offered_rps = offered_rps;
  w.rpc_rps = w.durable ? rpc_rps : 0.0;
  if (w.durable && w.rpc_rps <= 0) {
    // Without reads contending with ingest this is not the durable_ops workload.
    throw std::invalid_argument("durable_ops needs an operator-RPC rate above 0");
  }
  w.recovery_tail = kRecoveryTail;
  // The paced phase holds thousands of scans, so a p99 rests on tens of
  // samples beyond it.
  w.paced = static_cast<std::size_t>(offered_rps *
                                     (w.durable ? kDurablePacedSeconds : kChurnPacedSeconds));
  w.session.guard.repair = RepairMode::kProposeOnly;  // hbguardd's defaults
  w.session.guard.num_threads = 1;
  w.session.guard.compact_budget = 512;
  w.session.scan_every_us = 100'000;
  for (std::size_t i = 0; i < 4; ++i) add_policy_prefix(w, churn_prefix(i));

  std::size_t converged = 0;
  std::vector<IoRecord> generated =
      churn_records(seed, kWarmRecords + w.paced + (w.durable ? w.recovery_tail : 0) + kDrainRecords,
                    &converged);
  w.warm = converged + kWarmRecords;  // the initial convergence and the first rounds
  w.daemon_args.push_back("--cadence-us");
  w.daemon_args.push_back(std::to_string(w.session.scan_every_us));

  TraceWriteOptions redact;
  redact.redact_ground_truth = true;
  w.offsets.reserve(generated.size() + 1);
  for (const IoRecord& record : generated) {
    w.offsets.push_back(w.jsonl.size());
    w.jsonl += to_json_line(record, redact);
    w.jsonl += '\n';
  }
  w.offsets.push_back(w.jsonl.size());
  w.records.reserve(generated.size());
  for (std::size_t i = 0; i + 1 < w.offsets.size(); ++i) {
    std::string_view line(w.jsonl.data() + w.offsets[i], w.offsets[i + 1] - w.offsets[i] - 1);
    IoRecord record;
    std::string error;
    if (parse_trace_line(line, record, error) != TraceLineStatus::kRecord) {
      throw std::runtime_error("workload codec round trip failed: " + error);
    }
    w.records.push_back(std::move(record));
  }
  return w;
}

Oracle run_oracle(const Workload& w) {
  Oracle oracle;
  oracle.report = ReplayGuardSession::run_offline(w.records, w.session);
  oracle.digest = oracle.report.digest();

  // The cadence schedule is pure arithmetic over the stamps (see
  // ReplayGuardSession): the first record primes the next boundary, and
  // every record whose stamp reaches a boundary waits for one scan per
  // boundary crossed. Scan k's sim time is its boundary.
  const SimTime every = w.session.scan_every_us;
  std::vector<SimTime> scan_at;
  SimTime next = 0;
  for (std::size_t i = 0; i < w.records.size(); ++i) {
    SimTime t = w.records[i].logged_time;
    if (i == 0) next = t + every;
    while (i > 0 && next <= t) {
      oracle.trigger.push_back(i);
      scan_at.push_back(next);
      next += every;
    }
  }
  oracle.trigger.push_back(w.records.size());  // finish()
  if (oracle.trigger.size() != oracle.report.scans) {
    throw std::runtime_error("oracle scan schedule disagrees with run_offline");
  }

  // `why` targets: each incident's violations mapped to the latest FIB
  // update for the violating (router, prefix) as of the detecting scan —
  // the I/O the guard itself traces provenance from.
  std::map<std::pair<RouterId, Prefix>, std::size_t> latest_by_router;
  std::map<Prefix, std::size_t> latest;
  std::size_t cursor = 0;
  std::size_t scan = 0;
  std::vector<IoId> seen;
  for (const GuardIncident& incident : oracle.report.incidents) {
    while (scan + 1 < scan_at.size() && scan_at[scan] < incident.detected_at) ++scan;
    std::size_t upto = scan < scan_at.size() && scan_at[scan] == incident.detected_at
                           ? oracle.trigger[scan]
                           : w.records.size();
    for (; cursor < upto; ++cursor) {
      const IoRecord& r = w.records[cursor];
      if (r.kind != IoKind::kFibUpdate || !r.prefix.has_value()) continue;
      latest_by_router[{r.router, *r.prefix}] = cursor;
      latest[*r.prefix] = cursor;
    }
    for (const Violation& v : incident.violations) {
      auto it = latest_by_router.find({v.router, v.prefix});
      std::size_t index = w.records.size();
      if (it != latest_by_router.end()) {
        index = it->second;
      } else if (auto any = latest.find(v.prefix); any != latest.end()) {
        index = any->second;
      }
      if (index == w.records.size()) continue;
      IoId io = w.records[index].id;
      if (std::find(seen.begin(), seen.end(), io) != seen.end()) continue;
      seen.push_back(io);
      oracle.violating.emplace_back(io, index);
    }
  }
  // By record index, so the targets already delivered form a prefix.
  std::sort(oracle.violating.begin(), oracle.violating.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  return oracle;
}

}  // namespace hbgbench
