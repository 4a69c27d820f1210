// Rule-matching HBR inference (§4.2 "Rule matching").
//
// "Given an I/O that matches the right-hand-side of a rule, we can search
// the (timestamp- and prefix-filtered) stream of I/Os for an I/O that
// matches the left-hand-side of the rule."
//
// The §4.1 rule set has a subtlety the naive per-rule scan misses: several
// rules share a right-hand side (a RIB update can be caused by a received
// advertisement, a configuration change — possibly tens of seconds earlier
// via soft reconfiguration — or a hardware event). Emitting every rule's
// most recent match floods the HBG with false edges. This matcher instead
// groups the competing rules per output kind and links to the *temporally
// closest* matching input, while always keeping the content-matched edge
// (same prefix for BGP, same LSA identity for OSPF) when one exists.
#pragma once

#include <memory>

#include "hbguard/hbr/inference.hpp"
#include "hbguard/hbr/rules.hpp"

namespace hbguard {

class ThreadPool;

struct MatcherOptions {
  /// Window for ordinary input→output and output→output rules.
  SimTime short_window_us = 2'000'000;
  /// Window for config→{RIB,FIB,flood} rules; must cover the vendor's
  /// soft-reconfiguration delay (§7 observed ~25 s on IOS).
  SimTime soft_reconfig_window_us = 120'000'000;
  /// Window for cross-router send→recv matching; must cover link delay plus
  /// receiver input-queue wait.
  SimTime cross_router_window_us = 30'000'000;
  /// Tolerated clock skew between routers for cross-router send→recv
  /// matching (per-router clock offsets are not synchronized).
  SimTime cross_router_slack_us = 250'000;
  /// Tolerated local log-timestamp noise (same-router rules). Keep 0 when
  /// per-record jitter is negligible; raising it lets the matcher consider
  /// causes logged slightly *after* their effects.
  SimTime local_slack_us = 0;
};

class RuleMatchingInference : public HbrInferencer {
 public:
  RuleMatchingInference() = default;
  explicit RuleMatchingInference(MatcherOptions options) : options_(options) {}

  std::string name() const override { return "rules"; }
  std::vector<InferredHbr> infer(std::span<const IoRecord> records) const override;

  const MatcherOptions& options() const { return options_; }

  /// Fan the per-record cause lookups (read-only, over the side-index
  /// lanes RuleMatchEngine builds from the whole trace) out on `pool`
  /// (nullptr = serial). Each worker chunk emits edges into its own buffer
  /// in record order and the chunks concatenate in record order, so the
  /// edge list — and every downstream HBG — is byte-identical to the serial
  /// result at any thread count. The cross-router FIFO channel pass stays
  /// serial (it is a linear stitch over already-grouped streams).
  void set_thread_pool(std::shared_ptr<ThreadPool> pool) { pool_ = std::move(pool); }

 private:
  MatcherOptions options_;
  std::shared_ptr<ThreadPool> pool_;
};

}  // namespace hbguard
