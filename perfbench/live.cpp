// The untraced run against a real hbguardd child process.
//
// Per run:
//   setup   spawn on fresh state, time to the first `status` reply (median
//           of many spawns, taken here and in every cycle; all but one are
//           shut down again)
//   warm    the workload's warm-up prefix, closed loop, then a barrier
//   paced   open loop at the offered rate: every record has a due time and
//           every sample is timed from it. One `status` poll is kept
//           outstanding while a scan verdict is awaited — the daemon defers
//           `status` while a scan is in flight, so the reply lands right
//           after the verdict. durable_ops also sends operator RPCs open
//           loop on the second control connection.
//   kill    durable_ops: `checkpoint`, a fixed tail of records, SIGKILL; the
//           state directory is kept. churn: the paced daemon drains the
//           rest of the stream and its digest is checked.
//   cycles  for `--seconds`: SIGKILL, fresh spawns (setup), a restart timed
//           to the first `status` that shows the pre-kill state (durable_ops,
//           on a copy of the kill state) or until the warm prefix is re-sent
//           and applied (churn), then the rest of the stream as fast as the
//           socket takes it, timed from the first byte to the `digest` reply
#include "live.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace hbgbench {

namespace {

// Spawns are cheap (milliseconds) and noisy, so setup is a median of many:
// kSetupSpawns before the paced phase and kSetupPerCycle in every cycle.
constexpr int kSetupSpawns = 15;
constexpr int kSetupPerCycle = 3;
// Restart-and-drain cycles run for `--seconds`, but never fewer than
// kMinCycles: a median of fewer rests on a few seconds of the host.
constexpr int kMinCycles = 5;
/// Backlog limit for a valid paced phase: half of hbguardd's ingest soft
/// limit (4096), i.e. the daemon's resume mark. A paced phase that ever
/// buffers this much is riding the backpressure band, not measuring
/// detection.
constexpr double kMaxPacedBacklog = 2048;
/// Generator lateness limits for a valid paced phase. The median catches a
/// generator that cannot keep the schedule; the p99 limit sits above the
/// multi-millisecond scheduling stalls of a shared virtual machine.
constexpr double kMaxSendLagP50Ms = 1.0;
constexpr double kMaxSendLagP99Ms = 20.0;
/// Granularity of the paced sender's timer wake-ups.
constexpr auto kSendTick = std::chrono::microseconds(200);
/// A percentile is reported only with this many samples beyond it.
constexpr std::size_t kTailSamples = 10;
constexpr double kSpawnTimeoutS = 60.0;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Numeric field `key` of a flat JSON object (the daemon's status reply).
std::optional<double> json_number(const std::string& body, const std::string& key) {
  std::string needle = "\"" + key + "\":";
  std::size_t at = body.find(needle);
  if (at == std::string::npos) return std::nullopt;
  const char* start = body.c_str() + at + needle.size();
  char* end = nullptr;
  double value = std::strtod(start, &end);
  if (end == start) return std::nullopt;
  return value;
}

bool well_formed_status(const std::string& body) {
  return body.size() > 2 && body.front() == '{' && body.find("\"scans\":") != std::string::npos &&
         body.find("\"records_delivered\":") != std::string::npos;
}

void set_blocking(int fd, bool blocking) {
  int flags = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, blocking ? (flags & ~O_NONBLOCK) : (flags | O_NONBLOCK));
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + path);
  }
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// A control connection speaking hbguardd's RPC framing: one command line
/// out; reply lines back, terminated by ".", with dot-stuffing.
class ControlConn {
 public:
  ControlConn() = default;
  ~ControlConn() { close(); }
  ControlConn(const ControlConn&) = delete;
  ControlConn& operator=(const ControlConn&) = delete;

  bool open(const std::string& path) {
    close();
    fd_ = connect_unix(path);
    return fd_ >= 0;
  }
  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buffer_.clear();
    body_.clear();
    replies_.clear();
  }
  int fd() const { return fd_; }

  bool send(const std::string& command) {
    std::string line = command + "\n";
    return write_all(fd_, line.data(), line.size());
  }

  /// Read what is available (non-blocking socket) or one chunk (blocking);
  /// complete replies queue up. False on EOF or error.
  bool pump() {
    char chunk[65536];
    ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n == 0) return false;
    if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    buffer_.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (;;) {
      std::size_t newline = buffer_.find('\n', start);
      if (newline == std::string::npos) break;
      std::string_view line(buffer_.data() + start, newline - start);
      start = newline + 1;
      if (line == ".") {
        replies_.push_back(std::move(body_));
        body_.clear();
        continue;
      }
      if (!line.empty() && line[0] == '.') line.remove_prefix(1);
      body_.append(line);
      body_ += '\n';
    }
    buffer_.erase(0, start);
    return true;
  }

  bool has_reply() const { return !replies_.empty(); }
  std::string pop_reply() {
    std::string reply = std::move(replies_.front());
    replies_.pop_front();
    return reply;
  }

  /// Blocking round trip on a blocking socket; nullopt on transport error.
  std::optional<std::string> rpc(const std::string& command) {
    if (!send(command)) return std::nullopt;
    while (!has_reply()) {
      if (!pump()) return std::nullopt;
    }
    return pop_reply();
  }

 private:
  int fd_ = -1;
  std::string buffer_;
  std::string body_;
  std::deque<std::string> replies_;
};

/// Keeps the generator and the daemon on disjoint CPUs. Without it the
/// kernel's wake-affine placement runs the daemon's scan worker on the
/// generator's CPU right after an ingest write wakes the daemon, and the
/// generator's next sends wait out the whole scan (seen as a send lag equal
/// to the scan time when scans cost milliseconds). One CPU for the generator, the rest for
/// the daemon; no pinning on a single-CPU host.
class CpuSplit {
 public:
  static CpuSplit& instance() {
    static CpuSplit split;
    return split;
  }
  void enter_daemon() {
    if (usable_) ::sched_setaffinity(0, sizeof(daemon_), &daemon_);
  }
  void enter_generator() {
    if (usable_) ::sched_setaffinity(0, sizeof(generator_), &generator_);
  }

 private:
  CpuSplit() {
    cpu_set_t all;
    CPU_ZERO(&all);
    CPU_ZERO(&daemon_);
    CPU_ZERO(&generator_);
    if (::sched_getaffinity(0, sizeof(all), &all) != 0 || CPU_COUNT(&all) < 2) return;
    int last = -1;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all)) last = cpu;
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all) && cpu != last) CPU_SET(cpu, &daemon_);
    }
    CPU_SET(last, &generator_);
    usable_ = true;
  }
  cpu_set_t daemon_;
  cpu_set_t generator_;
  bool usable_ = false;
};

/// The live daemon's pid, for the signal handler below.
std::atomic<pid_t> g_child{-1};

/// SIGTERM/SIGINT/SIGHUP: take the daemon down too, then die of the signal.
void kill_child_and_die(int sig) {
  pid_t child = g_child.load();
  if (child > 0) ::kill(child, SIGKILL);
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

/// The hbguardd child process. The destructor kills and reaps it, and a
/// signal to the generator kills it too, so no daemon outlives the
/// benchmark on any exit path.
class DaemonProcess {
 public:
  DaemonProcess(std::string binary, std::vector<std::string> args, std::string log_path)
      : binary_(std::move(binary)), args_(std::move(args)), log_path_(std::move(log_path)) {}
  ~DaemonProcess() { kill_hard(); }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  bool spawn() {
    std::vector<char*> argv;
    argv.push_back(binary_.data());
    for (std::string& arg : args_) argv.push_back(arg.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log_path_.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0600);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    // The child inherits the CPU mask current at spawn: the daemon's.
    CpuSplit& cpus = CpuSplit::instance();
    cpus.enter_daemon();
    int rc = posix_spawn(&pid_, binary_.c_str(), &actions, nullptr, argv.data(), environ);
    cpus.enter_generator();
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) pid_ = -1;
    g_child = pid_;
    return rc == 0;
  }

  bool alive() {
    if (pid_ <= 0) return false;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = g_child = -1;
      return false;
    }
    return true;
  }

  void kill_hard() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = g_child = -1;
  }

  /// Reap after a `shutdown` RPC; falls back to SIGKILL after `timeout_s`.
  bool wait_exit(double timeout_s) {
    auto start = Clock::now();
    while (pid_ > 0) {
      int status = 0;
      pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        pid_ = g_child = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      if (seconds_since(start) > timeout_s) {
        kill_hard();
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  pid_t pid() const { return pid_; }

  /// Peak resident set (VmHWM) in MiB; 0 when unreadable.
  double peak_rss_mib() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
  }

 private:
  std::string binary_;
  std::vector<std::string> args_;
  std::string log_path_;
  pid_t pid_ = -1;
};

struct Paths {
  std::string sock_dir;
  std::string state_dir;
  std::string log;
  std::string control() const { return sock_dir + "/control.sock"; }
  std::string ingest() const { return sock_dir + "/ingest.sock"; }
};

/// Spawn and time until the first `status` reply on `control` (left
/// connected, blocking). Returns seconds, or a negative value on failure.
double spawn_until_status(DaemonProcess& daemon, ControlConn& control, const Paths& paths,
                          std::string* status_out) {
  std::filesystem::remove(paths.control());  // a killed daemon leaves stale sockets
  std::filesystem::remove(paths.ingest());
  auto start = Clock::now();
  if (!daemon.spawn()) return -1.0;
  while (!control.open(paths.control())) {
    if (!daemon.alive() || seconds_since(start) > kSpawnTimeoutS) return -1.0;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  std::optional<std::string> status = control.rpc("status");
  double elapsed = seconds_since(start);
  if (!status || !well_formed_status(*status)) return -1.0;
  if (status_out != nullptr) *status_out = *status;
  return elapsed;
}

/// Replace directory `to` with a copy of `from`, flushed to disk, so a
/// daemon recovering from the copy syncs only what it writes itself.
void copy_state(const std::string& from, const std::string& to) {
  namespace fs = std::filesystem;
  fs::remove_all(to);
  fs::copy(from, to);
  for (const fs::directory_entry& entry : fs::directory_iterator(to)) {
    int fd = ::open(entry.path().c_str(), O_RDONLY | O_CLOEXEC);
    if (fd >= 0) {
      ::fsync(fd);
      ::close(fd);
    }
  }
}

/// Operator RPCs: `why <io>` on the oracle's violating FIB updates (three
/// of every four) and `repairs list`.
struct RpcPlan {
  std::vector<std::pair<hbguard::IoId, std::size_t>> targets;  // (io, record index)
  std::size_t sent = 0;

  /// Next command given that records [0, delivered) are in the capture.
  std::string next(std::size_t delivered, bool* is_why) {
    std::size_t m = sent++;
    *is_why = false;
    if (m % 4 == 3 || targets.empty()) return "repairs list";
    std::size_t eligible = 0;
    while (eligible < targets.size() && targets[eligible].second < delivered) ++eligible;
    if (eligible == 0) return "repairs list";
    *is_why = true;
    return "why " + std::to_string(targets[(m - m / 4) % eligible].first);
  }
};

bool well_formed_rpc(const std::string& reply, bool is_why) {
  if (reply.empty() || reply.rfind("err", 0) == 0) return false;
  if (is_why) return true;
  return reply.rfind("#", 0) == 0 || reply.rfind("no proposals", 0) == 0;
}

/// Open-loop RPC stream state on one control connection: replies arrive
/// in order, each matched to its due time.
struct RpcStream {
  ControlConn* conn = nullptr;
  RpcPlan plan;
  double rate = 0.0;
  Clock::time_point t0;
  std::size_t scheduled = 0;  // RPCs whose due time has been reached
  std::deque<std::pair<Clock::time_point, bool>> outstanding;  // (due, is_why)
  std::vector<double> latency_ms;
  std::uint64_t malformed = 0;

  Clock::time_point due(std::size_t m) const {
    return t0 + std::chrono::nanoseconds(
                    static_cast<long long>(1e9 * static_cast<double>(m) / rate));
  }
  /// Send every RPC due by `now` (and before `stop`).
  void send_due(Clock::time_point now, Clock::time_point stop, std::size_t delivered) {
    while (rate > 0 && due(scheduled) <= now && due(scheduled) < stop) {
      bool is_why = false;
      std::string command = plan.next(delivered, &is_why);
      if (!conn->send(command)) ++malformed;
      outstanding.emplace_back(due(scheduled), is_why);
      ++scheduled;
    }
  }
  void take_replies(Clock::time_point now) {
    while (conn->has_reply() && !outstanding.empty()) {
      std::string reply = conn->pop_reply();
      auto [due_at, is_why] = outstanding.front();
      outstanding.pop_front();
      if (!well_formed_rpc(reply, is_why)) ++malformed;
      latency_ms.push_back(ms_between(due_at, now));
    }
  }
  Clock::time_point next_due() const { return due(scheduled); }
};

/// poll(2) until an fd is ready or `wake` arrives, sleeping (not spinning)
/// with nanosecond resolution: a busy generator would compete with the
/// daemon's threads for the host's cores.
void poll_until(pollfd* fds, nfds_t count, Clock::time_point wake) {
  auto now = Clock::now();
  auto wait = wake > now ? std::chrono::duration_cast<std::chrono::nanoseconds>(wake - now)
                         : std::chrono::nanoseconds(0);
  if (wait > std::chrono::seconds(1)) wait = std::chrono::seconds(1);
  timespec timeout{static_cast<time_t>(wait.count() / 1'000'000'000),
                   static_cast<long>(wait.count() % 1'000'000'000)};
  ::ppoll(fds, count, &timeout, nullptr);
}

}  // namespace

RunResult run_live(const Workload& w, const Oracle& oracle, const LiveConfig& config) {
  RunResult result;
  namespace fs = std::filesystem;
  ::prctl(PR_SET_TIMERSLACK, 1UL);  // wake at due times, not up to 50us late
  CpuSplit::instance().enter_generator();
  for (int sig : {SIGTERM, SIGINT, SIGHUP}) ::signal(sig, kill_child_and_die);
  Paths paths{config.work_dir + "/s", config.work_dir + "/state", config.work_dir + "/daemon.log"};
  fs::create_directories(paths.sock_dir);
  fs::remove(paths.log);  // one run's log, not every run's

  std::vector<std::string> args = w.daemon_args;
  args.insert(args.end(), {"--dir", paths.sock_dir});
  if (w.durable) {
    args.insert(args.end(), {"--state-dir", paths.state_dir, "--fsync-interval",
                             std::to_string(w.fsync_interval), "--checkpoint-every",
                             std::to_string(w.checkpoint_every)});
  }
  const std::size_t n = w.records.size();
  const std::size_t paced_end = w.warm + w.paced;
  result.attempted = n + oracle.trigger.size();

  // ---- setup ---------------------------------------------------------
  // Fresh spawns here and in every cycle below, so the median spans the run.
  std::vector<double> setup;
  auto daemon = std::make_unique<DaemonProcess>(config.daemon, args, paths.log);
  ControlConn ctl;  // control connection A: status polls, digest
  auto fresh_spawn = [&] {
    fs::remove_all(paths.state_dir);
    ++result.attempted;
    double s = spawn_until_status(*daemon, ctl, paths, nullptr);
    if (s < 0) {
      ++result.failed;
      result.fail("daemon did not start");
      return false;
    }
    setup.push_back(s);
    return true;
  };
  auto shutdown = [&] {
    std::optional<std::string> bye = ctl.rpc("shutdown");
    ctl.close();
    if (!bye || bye->rfind("ok", 0) != 0 || !daemon->wait_exit(30)) {
      ++result.failed;
      result.fail("daemon did not shut down cleanly");
    }
  };
  for (int i = 0; i < kSetupSpawns; ++i) {
    if (!fresh_spawn()) return result;
    if (i + 1 < kSetupSpawns) shutdown();
  }

  int ingest = connect_unix(paths.ingest());
  ControlConn rpc_conn;  // control connection B: operator RPCs
  if (ingest < 0 || !rpc_conn.open(paths.control())) {
    result.fail("cannot connect to the daemon");
    return result;
  }
  auto close_ingest = [&] {
    if (ingest >= 0) ::close(ingest);
    ingest = -1;
  };

  auto status_barrier = [&](std::size_t delivered, std::size_t scans) -> std::optional<std::string> {
    auto start = Clock::now();
    for (;;) {
      std::optional<std::string> status = ctl.rpc("status");
      if (!status || !well_formed_status(*status)) return std::nullopt;
      if (json_number(*status, "records_delivered").value_or(-1) >= static_cast<double>(delivered) &&
          json_number(*status, "scans").value_or(-1) >= static_cast<double>(scans)) {
        return status;
      }
      if (seconds_since(start) > 60) return std::nullopt;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  };
  auto scans_before = [&](std::size_t record) {
    return static_cast<std::size_t>(
        std::lower_bound(oracle.trigger.begin(), oracle.trigger.end(), record) -
        oracle.trigger.begin());
  };

  // ---- warm ----------------------------------------------------------
  if (!write_all(ingest, w.jsonl.data(), w.offsets[w.warm]) ||
      !status_barrier(w.warm, scans_before(w.warm))) {
    result.fail("warm-up phase did not complete");
    return result;
  }

  // ---- paced ---------------------------------------------------------
  set_blocking(ingest, false);
  set_blocking(ctl.fd(), false);
  set_blocking(rpc_conn.fd(), false);
  const double rate = w.offered_rps;
  const auto t0 = Clock::now() + std::chrono::milliseconds(2);
  auto due = [&](std::size_t i) {
    return t0 + std::chrono::nanoseconds(
                    static_cast<long long>(1e9 * static_cast<double>(i - w.warm) / rate));
  };
  const auto paced_stop = due(paced_end);
  const std::size_t first_scan = scans_before(w.warm);  // triggered inside the window
  const std::size_t end_scan = scans_before(paced_end);
  std::vector<double> verdict_ms(end_scan - first_scan, -1.0);
  std::vector<double> lag_ms;
  lag_ms.reserve(w.paced);

  RpcStream rpcs;
  rpcs.conn = &rpc_conn;
  rpcs.plan.targets = oracle.violating;
  rpcs.rate = w.rpc_rps;
  rpcs.t0 = t0;

  std::size_t queued = w.warm;   // records [warm, queued) are due
  std::size_t written = w.offsets[w.warm];
  std::size_t sent = w.warm;     // records [.., sent) fully written
  std::size_t awaited = first_scan;   // scans [first_scan, awaited) have their trigger sent
  std::size_t stamped = first_scan;   // scans [first_scan, stamped) have a verdict
  bool poll_outstanding = false;
  double max_buffered = 0;
  double delivered_seen = static_cast<double>(w.warm);
  std::uint64_t polls = 0;
  std::uint64_t bad_status = 0;

  auto phase_done = [&] {
    return sent == paced_end && stamped == end_scan && !poll_outstanding &&
           rpcs.outstanding.empty() && Clock::now() >= paced_stop;
  };
  auto deadline = paced_stop + std::chrono::seconds(30);
  while (!phase_done()) {
    auto now = Clock::now();
    if (now > deadline) break;
    while (queued < paced_end && due(queued) <= now) ++queued;
    if (written < w.offsets[queued]) {
      ssize_t wrote = ::write(ingest, w.jsonl.data() + written, w.offsets[queued] - written);
      if (wrote < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        result.fail("ingest write failed");
        break;
      }
      if (wrote > 0) {
        written += static_cast<std::size_t>(wrote);
        auto done = Clock::now();
        while (sent < queued && w.offsets[sent + 1] <= written) {
          lag_ms.push_back(ms_between(due(sent), done));
          ++sent;
        }
      }
    }
    while (awaited < end_scan && oracle.trigger[awaited] < sent) ++awaited;
    if (!poll_outstanding && stamped < awaited) {
      if (!ctl.send("status")) {
        result.fail("status poll failed");
        break;
      }
      poll_outstanding = true;
      ++polls;
    }
    rpcs.send_due(now, paced_stop, static_cast<std::size_t>(delivered_seen));

    pollfd fds[3] = {{ingest, static_cast<short>(written < w.offsets[queued] ? POLLOUT : 0), 0},
                     {ctl.fd(), POLLIN, 0},
                     {rpc_conn.fd(), POLLIN, 0}};
    // Timer wake-ups are coalesced into ticks: at 15k records/s a wake-up
    // per record would keep a core busy in the generator alone. Replies
    // still wake the loop at once.
    Clock::time_point wake = paced_stop;
    if (queued < paced_end) wake = std::min(wake, due(queued));
    if (rpcs.rate > 0) wake = std::min(wake, rpcs.next_due());
    wake = std::max(wake, now + kSendTick);
    if (now >= paced_stop) wake = now + std::chrono::milliseconds(5);
    poll_until(fds, 3, wake);
    if (fds[1].revents & (POLLIN | POLLHUP | POLLERR)) {
      if (!ctl.pump()) {
        result.fail("control connection closed");
        break;
      }
      while (ctl.has_reply()) {
        auto at = Clock::now();
        std::string status = ctl.pop_reply();
        poll_outstanding = false;
        if (!well_formed_status(status)) {
          ++bad_status;
          continue;
        }
        double scans = json_number(status, "scans").value_or(0);
        max_buffered = std::max(max_buffered, json_number(status, "records_buffered").value_or(0));
        delivered_seen = std::max(delivered_seen, json_number(status, "records_delivered").value_or(0));
        while (stamped < awaited && static_cast<double>(stamped + 1) <= scans) {
          verdict_ms[stamped - first_scan] = ms_between(due(oracle.trigger[stamped]), at);
          ++stamped;
        }
      }
    }
    if (fds[2].revents & (POLLIN | POLLHUP | POLLERR)) {
      if (!rpc_conn.pump()) {
        result.fail("RPC connection closed");
        break;
      }
      rpcs.take_replies(Clock::now());
    }
  }
  if (!phase_done()) result.fail("paced phase did not complete");

  rpc_conn.close();
  set_blocking(ingest, true);
  set_blocking(ctl.fd(), true);
  if (!status_barrier(paced_end, end_scan)) result.fail("paced backlog did not clear");

  // Paced-phase samples and hygiene.
  std::uint64_t missing = 0;
  std::vector<double> verdicts;
  for (double v : verdict_ms) {
    if (v < 0) {
      ++missing;
    } else {
      verdicts.push_back(v);
    }
  }
  {
    // Raw samples beside the daemon log, for looking at a distribution:
    // scan, trigger record, verdict ms, trigger send lag ms.
    std::ofstream out(config.work_dir + "/verdicts.tsv");
    for (std::size_t i = 0; i < verdict_ms.size(); ++i) {
      std::size_t trigger = oracle.trigger[first_scan + i];
      if (trigger - w.warm >= lag_ms.size()) break;  // the phase ended early
      out << first_scan + i + 1 << "\t" << trigger << "\t" << verdict_ms[i] << "\t"
          << lag_ms[trigger - w.warm] << "\n";
    }
  }
  result.failed += missing + bad_status;
  if (missing + bad_status > 0) result.fail("paced scans without a verdict");
  // Reported, not gated: see README.md, "Host noise and steadiness".
  result.detail["verdict_ms_p50"] = percentile(verdicts, 0.50);
  result.detail["verdict_ms_p99"] = percentile(verdicts, 0.99);
  if (samples_beyond(verdicts, 0.99) < kTailSamples) result.fail("too few paced scans for a p99");
  double lag_p99 = percentile(lag_ms, 0.99);
  result.detail["paced_scans"] = static_cast<double>(verdicts.size());
  result.detail["paced_records"] = static_cast<double>(w.paced);
  result.detail["offered_rps"] = rate;
  result.detail["send_lag_ms_p99"] = lag_p99;
  result.detail["send_lag_ms_max"] = lag_ms.empty() ? 0 : *std::max_element(lag_ms.begin(), lag_ms.end());
  result.detail["records_buffered_max"] = max_buffered;
  result.detail["status_polls"] = static_cast<double>(polls);
  if (max_buffered >= kMaxPacedBacklog) result.fail("paced backlog grew");
  result.detail["send_lag_ms_p50"] = percentile(lag_ms, 0.50);
  if (percentile(lag_ms, 0.50) > kMaxSendLagP50Ms || lag_p99 > kMaxSendLagP99Ms) {
    result.fail("generator fell behind the offered rate");
  }

  result.attempted += rpcs.scheduled;
  std::uint64_t rpc_failed = rpcs.malformed + rpcs.outstanding.size();
  result.failed += rpc_failed;
  if (rpc_failed > 0) result.fail("RPC replies missing or malformed");
  {
    std::ofstream lags(config.work_dir + "/lags.tsv");
    for (double ms : lag_ms) lags << ms << "\n";
    std::ofstream out(config.work_dir + "/rpcs.tsv");
    for (double ms : rpcs.latency_ms) out << ms << "\n";
  }
  if (rpcs.rate > 0) {
    result.detail["rpc_ms_p50"] = percentile(rpcs.latency_ms, 0.50);
    result.detail["rpc_ms_p99"] = percentile(rpcs.latency_ms, 0.99);
    result.detail["rpc_samples"] = static_cast<double>(rpcs.latency_ms.size());
    if (samples_beyond(rpcs.latency_ms, 0.99) < kTailSamples) result.fail("too few RPCs for a p99");
  }

  auto chomp = [](std::string s) {
    while (!s.empty() && s.back() == '\n') s.pop_back();
    return s;
  };
  // Closed loop on the ingest socket: records [from, n), then `digest`,
  // which must equal the oracle's, then a `status` that must show the whole
  // stream delivered and scanned. Returns the seconds from the first byte
  // to the digest reply; negative on a transport failure.
  auto drain = [&](std::size_t from) -> double {
    auto start = Clock::now();
    bool wrote_all = write_all(ingest, w.jsonl.data() + w.offsets[from],
                               w.jsonl.size() - w.offsets[from]);
    std::optional<std::string> digest = ctl.rpc("digest");
    double drain_s = seconds_since(start);
    close_ingest();
    if (!wrote_all || !digest) {
      result.failed += n - from;
      result.fail("drain transport failure");
      return -1.0;
    }
    if (chomp(*digest) != chomp(oracle.digest)) {
      result.failed += oracle.trigger.size();
      result.fail("digest differs from the run_offline oracle");
    }
    std::optional<std::string> status = ctl.rpc("status");
    if (!status || !well_formed_status(*status)) {
      ++result.failed;
      result.fail("final status malformed");
      return -1.0;
    }
    double delivered = json_number(*status, "records_delivered").value_or(0);
    double dropped = json_number(*status, "records_dropped").value_or(-1);
    double gaps = json_number(*status, "stream_gaps").value_or(-1);
    double scans = json_number(*status, "scans").value_or(0);
    if (delivered != static_cast<double>(n) || dropped != 0 || gaps != 0) {
      result.failed += n - static_cast<std::size_t>(std::min(delivered, static_cast<double>(n)));
      result.failed += static_cast<std::uint64_t>(std::max(dropped, 0.0));
      result.fail("records lost: delivered " + std::to_string(delivered) + ", dropped " +
                  std::to_string(dropped) + ", gaps " + std::to_string(gaps));
    }
    if (scans != static_cast<double>(oracle.trigger.size())) {
      result.fail("scan count differs from the oracle");
    }
    return drain_s;
  };

  // ---- kill point ------------------------------------------------------
  // durable_ops: a checkpoint where the paced phase ends, `recovery_tail`
  // more records, then SIGKILL. The state directory as the kill left it is
  // kept, and every cycle recovers from a fresh copy of it: import the
  // checkpoint, fast-forward the WAL before it, replay the tail through
  // scans. The tail is shorter than the checkpoint cadence, so the daemon
  // does not checkpoint again before the kill.
  // churn: the paced daemon drains the rest of the stream, so a digest
  // checks the paced phase as well.
  std::size_t drain_from = w.warm;
  const std::string kill_state = config.work_dir + "/state.kill";
  std::string pre;  // durable_ops: the status every recovered daemon must reproduce
  double wal_lsn = 0;
  if (w.durable) {
    drain_from = paced_end + w.recovery_tail;
    std::optional<std::string> checkpoint = ctl.rpc("checkpoint");
    std::optional<std::string> before = ctl.rpc("status");
    const std::string at_lsn = " at lsn ";
    std::size_t at = checkpoint ? checkpoint->find(at_lsn) : std::string::npos;
    if (!checkpoint || checkpoint->rfind("ok checkpoint", 0) != 0 || at == std::string::npos ||
        !before || !well_formed_status(*before)) {
      result.fail("checkpoint before the recovery tail failed");
      return result;
    }
    const double checkpoint_lsn = std::strtod(checkpoint->c_str() + at + at_lsn.size(), nullptr);
    std::optional<std::string> tail_status;
    if (!write_all(ingest, w.jsonl.data() + w.offsets[paced_end],
                   w.offsets[drain_from] - w.offsets[paced_end]) ||
        !(tail_status = status_barrier(drain_from, scans_before(drain_from)))) {
      result.fail("recovery tail was not applied");
      return result;
    }
    pre = *tail_status;
    close_ingest();
    ctl.close();
    daemon->kill_hard();
    wal_lsn = json_number(pre, "wal_lsn").value_or(-1);
    if (wal_lsn != checkpoint_lsn + static_cast<double>(w.recovery_tail) ||
        json_number(pre, "checkpoints_taken") != json_number(*before, "checkpoints_taken")) {
      result.fail("the WAL tail past the checkpoint is not the recovery tail");
    }
    result.detail["recovery_fast_forwarded_entries"] = checkpoint_lsn;
    result.detail["recovery_replayed_entries"] = wal_lsn - checkpoint_lsn;
    copy_state(paths.state_dir, kill_state);
  } else if (drain(paced_end) < 0) {
    return result;
  }

  // ---- cycles ----------------------------------------------------------
  // Repeated for `seconds` (at least kMinCycles times), each on a new
  // daemon: SIGKILL the last one, a few fresh spawns (setup), a restart
  // (recovery), then the rest of the stream closed loop on the restarted
  // daemon (drain). durable_ops restarts on a copy of the kill state and
  // drains from the kill point, so each digest checks that recovery too.
  // churn keeps no state: its daemon comes back empty, and recovery is the
  // collector re-sending the warm prefix, timed until it is applied; the
  // drain sends the rest. Metrics are medians over the cycles, so they
  // span the run rather than one second of it.
  std::vector<double> restart;
  std::vector<double> drain_rps;
  std::vector<double> rss;
  std::size_t drained = 0;
  double drained_s = 0;
  const auto cycles_start = Clock::now();
  int cycles = 0;
  for (; cycles < kMinCycles || seconds_since(cycles_start) < config.seconds; ++cycles) {
    ctl.close();
    daemon->kill_hard();
    for (int i = 0; i < kSetupPerCycle; ++i) {
      if (!fresh_spawn()) return result;
      shutdown();
    }
    result.attempted += 1 + n + oracle.trigger.size();  // the restart and its session
    std::string first;
    double restart_s = -1.0;
    bool ok = false;
    if (w.durable) {
      copy_state(kill_state, paths.state_dir);
      restart_s = spawn_until_status(*daemon, ctl, paths, &first);
      ok = restart_s >= 0 && first.find("\"recovered\":true") != std::string::npos &&
           json_number(first, "recovered_entries") == wal_lsn;
      for (const char* key : {"records_delivered", "scans", "clean_scans", "incidents",
                              "proposals_pending", "watermark_us", "wal_lsn"}) {
        ok = ok && json_number(first, key) == json_number(pre, key);
      }
      ok = ok && (ingest = connect_unix(paths.ingest())) >= 0;
    } else {
      auto start = Clock::now();
      ok = spawn_until_status(*daemon, ctl, paths, &first) >= 0 &&
           json_number(first, "records_delivered").value_or(-1) == 0 &&
           (ingest = connect_unix(paths.ingest())) >= 0 &&
           write_all(ingest, w.jsonl.data(), w.offsets[w.warm]) &&
           status_barrier(w.warm, scans_before(w.warm)).has_value();
      restart_s = seconds_since(start);
    }
    if (!ok) {
      ++result.failed;
      result.fail(w.durable ? "restart did not recover the pre-kill state" : "restart failed");
      return result;
    }
    restart.push_back(restart_s);
    double drain_s = drain(drain_from);
    if (drain_s < 0) return result;
    drain_rps.push_back(static_cast<double>(n - drain_from) / drain_s);
    drained += n - drain_from;
    drained_s += drain_s;
    rss.push_back(daemon->peak_rss_mib());
  }
  shutdown();

  result.metrics["setup_s"] = {median(setup), "s"};
  result.metrics["recovery_s"] = {median(restart), "s"};
  result.metrics["ingest_rps"] = {median(drain_rps), "1/s"};
  result.metrics["rss_mb"] = {median(rss), "MiB"};
  result.detail["cycles"] = cycles;
  result.detail["setup_spawns"] = static_cast<double>(setup.size());
  result.detail["setup_s_q1"] = percentile(setup, 0.25);
  result.detail["setup_s_q3"] = percentile(setup, 0.75);
  result.detail["recovery_s_q1"] = percentile(restart, 0.25);
  result.detail["recovery_s_q3"] = percentile(restart, 0.75);
  result.detail["ingest_rps_q1"] = percentile(drain_rps, 0.25);
  result.detail["ingest_rps_q3"] = percentile(drain_rps, 0.75);
  result.detail["ingest_rps_pooled"] = static_cast<double>(drained) / drained_s;
  result.detail["drain_records"] = static_cast<double>(n - drain_from);
  return result;
}

}  // namespace hbgbench
