// Untraced run: spawn the real hbguardd and drive it through its Unix
// sockets (one ingest connection, two control connections).
#pragma once

#include <map>
#include <string>

#include "bench_common.hpp"

namespace hbgbench {

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// name -> (value, unit), printed as the result line's "metrics".
  std::map<std::string, std::pair<double, std::string>> metrics;
  /// Diagnostics printed before the result line (hygiene, sample counts).
  std::map<std::string, double> detail;
  std::string why_failed;  // first reason correct turned false

  void fail(const std::string& reason) {
    if (correct) why_failed = reason;
    correct = false;
  }
};

struct LiveConfig {
  std::string daemon;    // path to hbguardd
  std::string work_dir;  // sockets, state dir and daemon log live here
  double seconds = 0.0;  // how long to repeat the restart-and-drain cycles
};

RunResult run_live(const Workload& workload, const Oracle& oracle, const LiveConfig& config);

}  // namespace hbgbench
