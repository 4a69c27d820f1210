// hbgbench — load generator and tracer for the hbguardd pipeline benchmark.
//
//   hbgbench --workload <churn|durable_ops> --seed <n>
//            --seconds <s> --trace <0|1> --daemon <path/to/hbguardd>
//            --work <dir> --rate <records/s> --rpc-rate <rpcs/s>
//
// Builds the workload's capture stream from the seed, runs the
// ReplayGuardSession::run_offline oracle over it, then either drives a
// spawned hbguardd through its sockets (--trace 0: end-to-end metrics) or
// runs the traced in-process pass (--trace 1: per-layer metrics). Prints
// diagnostics, then one JSON result line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status is 0 when a result line was printed.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_common.hpp"
#include "hbguard/util/logging.hpp"
#include "live.hpp"
#include "traced.hpp"

using namespace hbgbench;

namespace {

constexpr std::size_t kMaxDigestBytes = 200'000;

std::string format_number(double value) {
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

void print_result(const RunResult& result) {
  std::ostringstream out;
  out << "{\"correct\": " << (result.correct ? "true" : "false")
      << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << format_number(metric.first)
        << ", \"unit\": \"" << metric.second << "\"}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

int usage() {
  std::fprintf(stderr,
               "usage: hbgbench --workload <churn|durable_ops> --seed <n> "
               "--seconds <s> --trace <0|1> --daemon <hbguardd> --work <dir> "
               "--rate <records/s> --rpc-rate <rpcs/s>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string daemon;
  std::string work;
  std::uint64_t seed = 0;
  double seconds = 0;
  double rate = 0;
  double rpc_rate = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::stoull(value);
    } else if (flag == "--seconds") {
      seconds = std::stod(value);
    } else if (flag == "--trace") {
      trace = std::stoi(value);
    } else if (flag == "--daemon") {
      daemon = value;
    } else if (flag == "--work") {
      work = value;
    } else if (flag == "--rate") {
      rate = std::stod(value);
    } else if (flag == "--rpc-rate") {
      rpc_rate = std::stod(value);
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || workload_name.empty() || work.empty() || seconds <= 0 || rate <= 0 ||
      (trace != 0 && trace != 1) || (trace == 0 && daemon.empty())) {
    return usage();
  }
  hbguard::Logger::instance().set_level(hbguard::LogLevel::kWarn);

  try {
    auto start = Clock::now();
    Workload workload = make_workload(workload_name, seed, rate, rpc_rate);
    double generate_s = seconds_since(start);
    Oracle oracle = run_oracle(workload);
    double oracle_s = seconds_since(start) - generate_s;
    if (trace == 0 && oracle.digest.size() > kMaxDigestBytes) {
      // hbguardd writes RPC replies once into a non-blocking socket; a reply
      // larger than the socket buffer (212992 bytes by default) is cut off
      // and the connection closed. Say so rather than fail at random.
      std::fprintf(stderr, "hbgbench: digest of %zu bytes exceeds what hbguardd can reply\n",
                   oracle.digest.size());
      return 1;
    }
    RunResult result = trace == 1 ? run_traced(workload, oracle, work)
                                  : run_live(workload, oracle, LiveConfig{daemon, work, seconds});
    result.detail["records"] = static_cast<double>(workload.records.size());
    result.detail["digest_bytes"] = static_cast<double>(oracle.digest.size());
    result.detail["generate_s"] = generate_s;
    result.detail["oracle_s"] = oracle_s;
    result.detail["run_s"] = seconds_since(start);
    std::ostringstream detail;
    detail << "detail";
    for (const auto& [name, value] : result.detail) detail << " " << name << "=" << value;
    std::cout << detail.str() << std::endl;
    if (!result.correct) std::cout << "INCORRECT: " << result.why_failed << std::endl;
    print_result(result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hbgbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
