// The traced run: the daemon's canonical deliver/scan loop in-process, with
// spans around the calls into each live-path layer.
//
// The session (ReplayGuardSession — what hbguardd hosts) runs for real:
// decode (parse_trace_line), WAL append, deliver and run_one_due_scan are
// timed directly. The WAL, checkpoints and recovery run on every workload,
// as on a durable daemon, so each layer has a figure on each workload (the
// live churn run keeps no WAL; there these figures say what durability
// would cost on its stream). Guard::scan's inner stages are not
// reachable from outside the program, so after each session scan a
// *shadow* pipeline — the same public layer objects, configured exactly as
// the Guard configures its own — ingests the same capture delta with a span
// per call: HBR match, HBG append, snapshot ingest, verify and provenance.
// The shadow's verdict for every scan must equal the session's, and its
// incident fault chains must equal the report's, or the run is wrong.
//
// Per-record calls are only accumulated, with one span per inter-scan
// batch, so the trace stays small; per-scan calls keep a span each. The
// cause of every span is its scan (`args.scan`).
#include "traced.hpp"

#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "hbguard/capture/trace_io.hpp"
#include "hbguard/capture/wal.hpp"
#include "hbguard/core/guard_state.hpp"
#include "hbguard/daemon/recovery.hpp"
#include "hbguard/hbg/incremental.hpp"
#include "hbguard/hbr/incremental.hpp"
#include "hbguard/provenance/root_cause.hpp"
#include "hbguard/snapshot/checkpoint.hpp"
#include "hbguard/snapshot/incremental.hpp"
#include "hbguard/verify/verifier.hpp"

namespace hbgbench {

using namespace hbguard;

namespace {

/// Accumulated self time and call count of one layer boundary.
struct Acc {
  double ns = 0;
  std::uint64_t calls = 0;
  std::vector<double> samples_us;  // per call, when percentiles are reported
};

struct Span {
  const char* name;
  double start_us;
  double dur_us;
  std::size_t scan;
};

class Tracer {
 public:
  explicit Tracer(bool keep_spans) : keep_(keep_spans), origin_(Clock::now()) {}

  /// Time `fn` as layer `name`; returns its duration in ns.
  template <typename Fn>
  double time(const char* name, std::size_t scan, Fn&& fn, bool sample = false) {
    auto start = Clock::now();
    fn();
    auto end = Clock::now();
    double ns = std::chrono::duration<double, std::nano>(end - start).count();
    Acc& acc = acc_[name];
    acc.ns += ns;
    ++acc.calls;
    if (sample) acc.samples_us.push_back(ns / 1000.0);
    if (keep_) spans_.push_back({name, us(start), ns / 1000.0, scan});
    return ns;
  }

  /// Per-record calls: accumulate only; one batch span per scan interval.
  template <typename Fn>
  void time_record(const char* name, Fn&& fn) {
    auto start = Clock::now();
    fn();
    double ns = std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    Acc& acc = acc_[name];
    acc.ns += ns;
    ++acc.calls;
  }

  void batch_span(Clock::time_point start, std::size_t scan) {
    if (keep_) spans_.push_back({"capture.batch", us(start), us(Clock::now()) - us(start), scan});
  }

  Acc& acc(const std::string& name) { return acc_[name]; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  bool keep_;
  Clock::time_point origin_;
  std::map<std::string, Acc> acc_;
  std::vector<Span> spans_;
};

/// The shadow of Guard::scan for the daemon's configuration (incremental
/// HBG and snapshot, propose-only repair, no traffic scheduling, no
/// distributed store). Each call mirrors one Guard stage.
class Shadow {
 public:
  Shadow(const CaptureHub& capture, const ReplaySessionOptions& options)
      : capture_(capture),
        engine_(options.guard.matcher),
        builder_(options.guard.matcher),
        snapshotter_(snapshot_options(options.guard)),
        verifier_(options.policies, VerifierOptions{options.guard.num_threads}),
        analyzer_(RootCauseAnalyzer::Options{options.guard.min_confidence}) {
    engine_.attach_store(&capture.records());
    builder_.attach_store(&capture.records());
    builder_.set_compact_budget(options.guard.compact_budget);
  }

  struct Counts {
    std::uint64_t edges = 0;
    std::uint64_t closure_checks = 0;
    std::uint64_t changed_prefixes = 0;
    std::uint64_t incidents = 0;
  };

  /// One scan over the capture delta; returns the verdict.
  ScanVerdict scan(Tracer& tracer, std::size_t scan_no) {
    const std::vector<IoRecord>& store = capture_.records();
    std::span<const IoRecord> fresh = std::span<const IoRecord>(store).subspan(cursor_);
    tracer.time("hbr.match", scan_no, [&] {
      std::vector<InferredHbr> matched;
      engine_.add_all(fresh, matched);
      counts_.edges += matched.size();
    });
    tracer.time("hbg.append", scan_no, [&] { builder_.append(fresh, &pending_edges_); });
    tracer.time("core.fib_index", scan_no, [&] {
      for (std::size_t i = cursor_; i < store.size(); ++i) {
        const IoRecord& r = store[i];
        if (r.kind == IoKind::kFibUpdate && r.prefix.has_value()) {
          latest_[*r.prefix] = r.id;
          latest_by_router_[{r.router, *r.prefix}] = r.id;
        }
      }
    });
    const std::size_t snapshot_from = cursor_;
    cursor_ = store.size();

    const StreamHealthTracker* health = capture_.health();
    std::set<RouterId> lossy;
    bool degraded = false;
    if (health != nullptr) {
      lossy = health->lossy_routers();
      degraded = health->any_degraded();
      if (health->transitions() != last_transitions_) {
        verifier_.clear_cache();
        pending_full_ = true;
      }
      last_transitions_ = health->transitions();
    }

    SnapshotDelta delta;
    const DataPlaneSnapshot* snapshot = nullptr;
    std::size_t checks_before = snapshotter_.stats().closure_checks;
    tracer.time("snapshot.ingest", scan_no, [&] {
      snapshot = &snapshotter_.ingest(capture_.records_since(snapshot_from), builder_.graph(),
                                      pending_edges_, &delta, nullptr, &lossy);
    });
    counts_.closure_checks += snapshotter_.stats().closure_checks - checks_before;
    pending_edges_.clear();
    if (degraded) {
      pending_full_ = true;
      return ScanVerdict::kUnknown;
    }
    if (pending_full_) {
      delta.full = true;
      delta.changed_prefixes.clear();
      pending_full_ = false;
    }
    counts_.changed_prefixes += delta.changed_prefixes.size();
    VerifyResult result;
    tracer.time("verify", scan_no, [&] { result = verifier_.verify(*snapshot, &delta, nullptr); });
    if (result.clean()) return ScanVerdict::kPass;

    std::ostringstream signature;
    for (const Violation& v : result.violations) signature << v.policy << '|' << v.router << ';';
    if (signature.str() == last_signature_) return ScanVerdict::kFail;
    last_signature_ = signature.str();
    tracer.time(
        "provenance", scan_no,
        [&] {
          std::vector<IoId> fib_ios;
          for (const Violation& v : result.violations) {
            IoId io = latest_for(v.router, v.prefix);
            if (io == kNoIo) io = latest_for(kInvalidRouter, v.prefix);
            if (io != kNoIo && std::find(fib_ios.begin(), fib_ios.end(), io) == fib_ios.end()) {
              fib_ios.push_back(io);
            }
          }
          ProvenanceResult provenance = analyzer_.analyze_all(builder_.graph(), fib_ios);
          fault_chains_.push_back(RootCauseAnalyzer::render(builder_.graph(), provenance));
        },
        /*sample=*/true);
    ++counts_.incidents;
    return ScanVerdict::kFail;
  }

  const Counts& counts() const { return counts_; }
  const VerifyStats verify_stats() const { return verifier_.stats(); }
  const std::vector<std::string>& fault_chains() const { return fault_chains_; }

 private:
  static IncrementalSnapshotter::Options snapshot_options(const GuardOptions& guard) {
    IncrementalSnapshotter::Options options;
    options.min_confidence = guard.snapshot.min_confidence;
    options.require_send_for_recv = guard.snapshot.require_send_for_recv;
    options.in_flux_window_us = guard.snapshot.in_flux_window_us;
    return options;
  }

  IoId latest_for(RouterId router, const Prefix& prefix) const {
    if (router != kInvalidRouter) {
      auto it = latest_by_router_.find({router, prefix});
      return it != latest_by_router_.end() ? it->second : kNoIo;
    }
    auto it = latest_.find(prefix);
    return it != latest_.end() ? it->second : kNoIo;
  }

  const CaptureHub& capture_;
  RuleMatchEngine engine_;
  IncrementalHbgBuilder builder_;
  IncrementalSnapshotter snapshotter_;
  Verifier verifier_;
  RootCauseAnalyzer analyzer_;
  std::size_t cursor_ = 0;
  std::vector<HbgEdge> pending_edges_;
  std::map<Prefix, IoId> latest_;
  std::map<std::pair<RouterId, Prefix>, IoId> latest_by_router_;
  std::uint64_t last_transitions_ = 0;
  bool pending_full_ = false;
  std::string last_signature_;
  std::vector<std::string> fault_chains_;
  Counts counts_;
};

struct Pass {
  std::map<std::string, double> times;   // per-layer time metrics
  std::map<std::string, double> counts;  // deterministic counts
  std::vector<ScanVerdict> session_verdicts;
  std::vector<ScanVerdict> shadow_verdicts;
  std::string digest;
  std::string error;  // set when the pass is wrong
  double named_ns = 0;     // deliver + the shadow's layer calls
  double pipeline_ns = 0;  // deliver + run_one_due_scan
};

double per(double total, double n) { return n > 0 ? total / n : 0.0; }

Pass traced_pass(const Workload& w, const Oracle& oracle, const std::string& state_dir,
                 Tracer& tracer) {
  Pass pass;
  ReplayGuardSession session(w.session);
  Shadow shadow(session.network().capture(), w.session);
  const std::size_t n = w.records.size();

  // A unique_ptr so the WAL is closed as soon as its last entry is synced.
  auto wal = std::make_unique<GuardWal>();
  std::string fingerprint = session_fingerprint(w.session);
  std::uint64_t last_checkpoint_lsn = 0;
  std::uint64_t generation = 1;
  std::vector<double> checkpoint_bytes;
  std::size_t scans = 0;

  // hbguardd's take_checkpoint: sync barrier, encode + write, rotate, GC.
  auto take_checkpoint = [&] {
    tracer.time("capture.wal.sync", scans, [&] { wal->sync(); }, /*sample=*/true);
    tracer.time(
        "checkpoint", scans,
        [&] {
          Checkpoint checkpoint;
          checkpoint.generation = generation;
          checkpoint.lsn = wal->lsn();
          checkpoint.fingerprint = fingerprint;
          encode_guard_state(session.guard().export_state(), checkpoint.payload);
          checkpoint_bytes.push_back(static_cast<double>(checkpoint.payload.size()));
          std::string error;
          if (!write_checkpoint(state_dir, checkpoint, &error)) pass.error = "checkpoint: " + error;
          last_checkpoint_lsn = checkpoint.lsn;
          if (!wal->rotate(wal->generation() + 1, &error)) pass.error = "rotate: " + error;
          gc_checkpoints(state_dir, 2);
        },
        /*sample=*/true);
    ++generation;
  };

  std::filesystem::remove_all(state_dir);
  WalOptions wal_options;
  wal_options.fsync_interval = w.fsync_interval;
  std::string wal_error;
  if (!wal->open(state_dir, 1, 0, fingerprint, wal_options, &wal_error)) {
    pass.error = "cannot open WAL: " + wal_error;
    return pass;
  }

  auto run_scan = [&](bool finish) {
    ++scans;
    tracer.time(
        "daemon.scan", scans,
        [&] {
          if (finish) {
            session.finish();
          } else {
            session.run_one_due_scan();
          }
        },
        /*sample=*/true);
    pass.shadow_verdicts.push_back(shadow.scan(tracer, scans));
  };

  // Recovery as live.cpp measures it on durable_ops: a checkpoint where the
  // paced phase ends, then `recovery_tail` records, then the kill point,
  // acknowledged (synced) as the daemon's status barrier is.
  const std::size_t checkpoint_at = w.warm + w.paced;
  const std::size_t recover_at = checkpoint_at + w.recovery_tail;
  double recovery_s = 0;
  auto recover = [&] {
    tracer.time("capture.wal.sync", scans, [&] { wal->sync(); }, /*sample=*/true);
    RecoveryResult recovery;
    recovery_s =
        tracer.time("recovery", scans, [&] { recovery = recover_session(state_dir, w.session); }) /
        1e9;
    if (!recovery.ok || recovery.session->digest() != session.digest() ||
        recovery.session->records_delivered() != session.records_delivered()) {
      pass.error = "recovered session differs from the live one: " + recovery.error;
    } else if (recovery.replayed_entries != w.recovery_tail) {
      pass.error = "recovery replayed " + std::to_string(recovery.replayed_entries) +
                   " WAL entries, not the " + std::to_string(w.recovery_tail) + "-record tail";
    }
  };

  auto batch_start = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    if (i == checkpoint_at) take_checkpoint();
    if (i == recover_at) recover();
    std::string_view line(w.jsonl.data() + w.offsets[i], w.offsets[i + 1] - w.offsets[i] - 1);
    IoRecord record;
    std::string parse_error;
    TraceLineStatus status = TraceLineStatus::kError;
    tracer.time_record("capture.decode",
                       [&] { status = parse_trace_line(line, record, parse_error); });
    if (status != TraceLineStatus::kRecord) {
      pass.error = "decode failed: " + parse_error;
      return pass;
    }
    if (session.scan_due_before(record)) {
      tracer.batch_span(batch_start, scans + 1);
      while (session.scan_due_before(record)) run_scan(false);
      batch_start = Clock::now();
    }
    tracer.time_record("capture.wal.append", [&] { wal->append_record(record); });
    tracer.time_record("capture.deliver", [&] { session.deliver(record); });
    tracer.time_record("capture.wal.append", [&] { wal->maybe_sync(); });
    if (wal->lsn() - last_checkpoint_lsn >= w.checkpoint_every) take_checkpoint();
  }
  tracer.batch_span(batch_start, scans + 1);
  wal->append_control("finish");
  run_scan(true);
  pass.digest = session.digest();
  pass.session_verdicts = session.report().scan_verdicts;

  if (pass.digest != oracle.digest) pass.error = "traced session digest differs from the oracle";
  if (pass.shadow_verdicts != pass.session_verdicts) {
    pass.error = "shadow layer calls disagree with the session's scan_verdicts";
  }
  const auto& incidents = session.report().incidents;
  if (shadow.fault_chains().size() != incidents.size()) {
    pass.error = "shadow incident count differs from the session's";
  } else {
    for (std::size_t i = 0; i < incidents.size(); ++i) {
      if (shadow.fault_chains()[i] != incidents[i].fault_chain) {
        pass.error = "shadow provenance differs from incident " + std::to_string(i);
      }
    }
  }

  // Operator reads, as hbguardd's `why` runs them: copy the live HBG, then
  // analyze and render one violating I/O.
  std::vector<IoId> targets;
  for (const auto& [io, index] : oracle.violating) targets.push_back(io);
  for (std::size_t i = n; i-- > 0 && targets.size() < 16;) {
    if (w.records[i].kind == IoKind::kFibUpdate) targets.push_back(w.records[i].id);
  }
  if (targets.size() > 16) targets.resize(16);
  for (IoId io : targets) {
    HappensBeforeGraph hbg;
    tracer.time("rpc.why.copy", scans, [&] { hbg = session.guard().current_hbg(); }, true);
    tracer.time(
        "rpc.why.analyze", scans,
        [&] {
          RootCauseAnalyzer analyzer;
          std::string text = RootCauseAnalyzer::render(hbg, analyzer.analyze(hbg, io));
          if (text.empty()) pass.error = "empty why rendering";
        },
        true);
  }

  tracer.time("capture.wal.sync", scans, [&] { wal->sync(); }, true);  // the digest ack
  // fdatasyncs the background syncer ran: group commit coalesces requests
  // while one is in flight, so this depends on timing and is not a count
  // that repeats.
  const double wal_syncs = static_cast<double>(wal->sync_calls());
  wal.reset();
  if (recover_at >= n) pass.error = "the stream ends before the recovery point";

  // ---- per-layer metrics ----------------------------------------------
  auto total = [&](const char* name) { return tracer.acc(name).ns; };
  auto calls = [&](const char* name) { return static_cast<double>(tracer.acc(name).calls); };
  const Shadow::Counts& c = shadow.counts();
  const double records = static_cast<double>(n);
  const double scan_count = static_cast<double>(scans);
  double match = total("hbr.match");
  double append = total("hbg.append");
  auto& t = pass.times;
  t["capture.decode.ns_per_rec"] = per(total("capture.decode"), records);
  t["capture.deliver.ns_per_rec"] = per(total("capture.deliver"), records);
  t["capture.wal.append.ns_per_rec"] = per(total("capture.wal.append"), records);
  t["capture.wal.sync.us_p50"] = median(tracer.acc("capture.wal.sync").samples_us);
  t["hbr.match.ns_per_rec"] = per(match, records);
  t["hbg.append.ns_per_rec"] = per(std::max(append - match, 0.0), records);
  t["snapshot.ingest.us_per_scan"] = per(total("snapshot.ingest"), scan_count) / 1000.0;
  t["verify.us_per_scan"] = per(total("verify"), calls("verify")) / 1000.0;
  t["provenance.us_per_incident"] = per(total("provenance"), calls("provenance")) / 1000.0;
  t["daemon.scan.us_p50"] = percentile(tracer.acc("daemon.scan").samples_us, 0.50);
  t["daemon.scan.us_p99"] = percentile(tracer.acc("daemon.scan").samples_us, 0.99);
  t["checkpoint.ms"] = median(tracer.acc("checkpoint").samples_us) / 1000.0;
  t["recovery.replay_s"] = recovery_s;
  t["capture.wal.syncs"] = wal_syncs;
  t["rpc.why.copy_ms"] = median(tracer.acc("rpc.why.copy").samples_us) / 1000.0;
  t["rpc.why.analyze_ms"] = median(tracer.acc("rpc.why.analyze").samples_us) / 1000.0;

  VerifyStats vs = shadow.verify_stats();
  auto& k = pass.counts;
  k["hbr.edges_per_rec"] = per(static_cast<double>(c.edges), records);
  k["snapshot.closure_checks_per_scan"] = per(static_cast<double>(c.closure_checks), scan_count);
  k["snapshot.changed_prefixes_per_scan"] = per(static_cast<double>(c.changed_prefixes), scan_count);
  k["verify.ec_cache_hit_ratio"] = vs.hit_rate();
  k["verify.delta_skips_per_scan"] = per(static_cast<double>(vs.delta_skips), scan_count);
  k["incidents"] = static_cast<double>(c.incidents);
  k["daemon.scans"] = scan_count;
  k["daemon.records_per_scan"] = per(records, scan_count);
  k["checkpoint.bytes"] = checkpoint_bytes.empty() ? 0.0 : median(checkpoint_bytes);

  // Attribution: in-process pipeline time (deliver + run_one_due_scan)
  // covered by the named layers' spans.
  pass.pipeline_ns = total("capture.deliver") + total("daemon.scan");
  pass.named_ns = total("capture.deliver") + append + total("core.fib_index") +
                  total("snapshot.ingest") + total("verify") + total("provenance");
  return pass;
}

void write_chrome_trace(const Tracer& tracer, const std::string& path) {
  std::ofstream out(path);
  out << "{\"traceEvents\":[\n";
  bool first = true;
  for (const Span& span : tracer.spans()) {
    if (!first) out << ",\n";
    first = false;
    // Session calls on thread 1, the shadow's layer calls on thread 2.
    bool session = std::string_view(span.name).rfind("daemon.", 0) == 0 ||
                   std::string_view(span.name).rfind("capture.", 0) == 0;
    out << "{\"name\":\"" << span.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << (session ? 1 : 2) << std::fixed << std::setprecision(3) << ",\"ts\":" << span.start_us
        << ",\"dur\":" << span.dur_us << ",\"args\":{\"scan\":" << span.scan << "}}";
  }
  out << "\n]}\n";
}

}  // namespace

RunResult run_traced(const Workload& w, const Oracle& oracle, const std::string& work_dir) {
  RunResult result;
  std::filesystem::create_directories(work_dir);
  result.attempted = w.records.size() + oracle.trigger.size();

  Tracer first_tracer(/*keep_spans=*/true);
  Pass first = traced_pass(w, oracle, work_dir + "/traced-state", first_tracer);
  write_chrome_trace(first_tracer, work_dir + "/trace.json");
  Tracer second_tracer(/*keep_spans=*/false);
  Pass second = traced_pass(w, oracle, work_dir + "/traced-state", second_tracer);
  std::filesystem::remove_all(work_dir + "/traced-state");

  for (const Pass* pass : {&first, &second}) {
    if (!pass->error.empty()) {
      result.failed += oracle.trigger.size();
      result.fail(pass->error);
    }
  }
  for (const auto& [name, value] : first.counts) {
    if (second.counts.at(name) != value) result.fail("count " + name + " did not repeat");
    result.metrics[name] = {value, name == "verify.ec_cache_hit_ratio" ? "ratio"
                                   : name == "checkpoint.bytes"        ? "bytes"
                                                                       : "count"};
  }
  static const std::map<std::string, std::string> kUnits = {
      {"capture.decode.ns_per_rec", "ns"},     {"capture.deliver.ns_per_rec", "ns"},
      {"capture.wal.append.ns_per_rec", "ns"}, {"capture.wal.sync.us_p50", "us"},
      {"capture.wal.syncs", "count"},
      {"hbr.match.ns_per_rec", "ns"},          {"hbg.append.ns_per_rec", "ns"},
      {"snapshot.ingest.us_per_scan", "us"},   {"verify.us_per_scan", "us"},
      {"provenance.us_per_incident", "us"},    {"daemon.scan.us_p50", "us"},
      {"daemon.scan.us_p99", "us"},            {"checkpoint.ms", "ms"},
      {"recovery.replay_s", "s"},              {"rpc.why.copy_ms", "ms"},
      {"rpc.why.analyze_ms", "ms"}};
  for (const auto& [name, value] : first.times) {
    result.metrics[name] = {(value + second.times.at(name)) / 2.0, kUnits.at(name)};
  }
  // Pooled over both passes: the shadow runs after the session on records
  // the session just pulled into cache, so per-scan ratios are noisy.
  double attributed =
      per(first.named_ns + second.named_ns, first.pipeline_ns + second.pipeline_ns);
  result.metrics["trace.attributed_share"] = {attributed, "ratio"};
  if (attributed < 0.9) result.fail("named layers cover under 90% of pipeline time");

  // The per-layer table, next to the Chrome trace.
  std::ofstream table(work_dir + "/layers.txt");
  table << "workload " << w.name << ": " << w.records.size() << " records, "
        << first.counts["daemon.scans"] << " scans\n";
  table << std::left << std::setw(36) << "metric" << std::right << std::setw(16) << "value"
        << "  unit\n";
  for (const auto& [name, metric] : result.metrics) {
    table << std::left << std::setw(36) << name << std::right << std::setw(16) << std::fixed
          << std::setprecision(3) << metric.first << "  " << metric.second << "\n";
  }
  // Self-time shares of the pipeline, for README.md's per-workload tables.
  double pipeline = first_tracer.acc("capture.deliver").ns + first_tracer.acc("daemon.scan").ns;
  double match = first_tracer.acc("hbr.match").ns;
  std::vector<std::pair<std::string, double>> shares = {
      {"capture.deliver", first_tracer.acc("capture.deliver").ns},
      {"hbr.match", match},
      {"hbg.append (minus match)", first_tracer.acc("hbg.append").ns - match},
      {"core.fib_index", first_tracer.acc("core.fib_index").ns},
      {"snapshot.ingest", first_tracer.acc("snapshot.ingest").ns},
      {"verify", first_tracer.acc("verify").ns},
      {"provenance", first_tracer.acc("provenance").ns}};
  table << "\nshare of deliver + run_one_due_scan (first pass)\n";
  for (const auto& [name, ns] : shares) {
    table << std::left << std::setw(36) << name << std::right << std::setw(15) << std::fixed
          << std::setprecision(1) << 100.0 * per(ns, pipeline) << "%\n";
  }
  return result;
}

}  // namespace hbgbench
