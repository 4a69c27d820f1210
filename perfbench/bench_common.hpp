// Shared pieces of the hbgbench load generator: clocks, order statistics
// and the workload description both run modes (live daemon, traced
// in-process) consume.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "hbguard/capture/io_record.hpp"
#include "hbguard/core/report.hpp"
#include "hbguard/daemon/replay_session.hpp"

namespace hbgbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Nearest-rank percentile (q in [0,1]) of an unsorted sample; 0 when empty.
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(values.size()));
  if (rank >= values.size()) rank = values.size() - 1;
  return values[rank];
}

inline double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

/// Samples strictly above the q-th percentile: a percentile is only
/// reported when at least ten samples lie beyond it.
inline std::size_t samples_beyond(const std::vector<double>& values, double q) {
  double cut = percentile(values, q);
  return static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(), [cut](double v) { return v > cut; }));
}

/// One benchmark workload: the generated capture stream, the session
/// configuration both the daemon (via its flags) and the in-process
/// oracle use, and how the stream is split into phases.
struct Workload {
  std::string name;
  std::vector<hbguard::IoRecord> records;
  /// JSON Lines of `records`, serialized once; line i spans
  /// [offsets[i], offsets[i+1]).
  std::string jsonl;
  std::vector<std::size_t> offsets;

  hbguard::ReplaySessionOptions session;
  /// hbguardd flags that reproduce `session` (policies, cadence).
  std::vector<std::string> daemon_args;
  bool durable = false;
  std::size_t fsync_interval = 256;     // hbguardd defaults, spelled out
  std::size_t checkpoint_every = 20'000;

  /// Phases over the record sequence: [0, warm) closed loop before any
  /// timing, [warm, warm + paced) open loop at `offered_rps`. A churn
  /// cycle re-sends [0, warm) and drains the rest; a durable_ops cycle
  /// recovers up to warm + paced + `recovery_tail` and drains the rest.
  std::size_t warm = 0;
  std::size_t paced = 0;
  /// Records between the checkpoint taken where the paced phase ends and
  /// the kill: the WAL tail every recovery replays through scans. The
  /// traced run checkpoints and recovers at the same two points.
  std::size_t recovery_tail = 0;
  double offered_rps = 0.0;
  /// Operator RPCs per second in the paced phase (durable_ops only).
  double rpc_rps = 0.0;
};

/// What the synchronous ReplayGuardSession::run_offline pass over the same
/// records says the daemon must reproduce.
struct Oracle {
  hbguard::GuardReport report;
  std::string digest;
  /// trigger[k] = index of the record whose arrival makes scan k+1 due
  /// (cadence scans run before that record is delivered); the final
  /// finish() scan has trigger == records.size().
  std::vector<std::size_t> trigger;
  /// Distinct violating FIB-update I/Os behind the incidents, with the
  /// index of the record each one is (targets for `why`).
  std::vector<std::pair<hbguard::IoId, std::size_t>> violating;
};

/// Build `name` ("churn" or "durable_ops") from `seed`; the offered and
/// RPC rates come from the caller (BENCHMARK.json). The paced phase lasts
/// a fixed time per workload (5 s on churn, 7 s on durable_ops).
Workload make_workload(const std::string& name, std::uint64_t seed, double offered_rps,
                       double rpc_rps);

Oracle run_oracle(const Workload& workload);

}  // namespace hbgbench
