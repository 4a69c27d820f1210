// Traced run: the pipeline in-process over the same records, with spans
// recorded around the calls into each layer.
#pragma once

#include <string>

#include "bench_common.hpp"
#include "live.hpp"

namespace hbgbench {

/// Runs the traced pass twice (counts must repeat exactly), writes
/// `work_dir`/trace.json (Chrome trace events of the first pass) and
/// `work_dir`/layers.txt (the per-layer table), and returns the per-layer
/// metrics.
RunResult run_traced(const Workload& workload, const Oracle& oracle, const std::string& work_dir);

}  // namespace hbgbench
