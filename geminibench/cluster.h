// The benchmark's live cluster: one geminicoordd and N geminid processes
// spawned from the build tree, plus the read-only probes the benchmark takes
// of them from outside (kStats counters, /proc busy time, data-dir size).
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace geminibench {

/// kStats counters of one daemon, by name.
using Counters = std::map<std::string, uint64_t>;

/// A spawned daemon, logging to a file the benchmark reads its readiness
/// banner from. Killed with SIGKILL by the destructor if still running.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Kill(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Forks `path args...` with stdout and stderr appended to `log_path`,
  /// and waits up to 15 s for a line containing `banner`. Returns false (and
  /// reaps the child) when none arrives.
  bool Start(const std::string& path, const std::vector<std::string>& args,
             const std::string& banner, const std::string& log_path);
  /// SIGKILL and reap; no-op when not running.
  void Kill();

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] const std::string& banner() const { return banner_; }
  /// Port the banner announced ("... on 127.0.0.1:PORT").
  [[nodiscard]] uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  std::string banner_;
  uint16_t port_ = 0;
};

/// One kStats round trip; false if the daemon does not answer.
bool QueryStats(uint16_t port, Counters* out);

/// utime + stime of a live process in microseconds (from /proc/PID/stat);
/// 0 when the process is gone.
uint64_t ProcessCpuMicros(pid_t pid);
/// utime + stime of this process (getrusage) in microseconds.
uint64_t SelfCpuMicros();

/// Bytes of regular files under `dir`, recursively.
uint64_t DirBytes(const std::string& dir);
/// rm -rf.
void RemoveTree(const std::string& dir);

/// Running per-daemon totals of kStats counters and busy time across the
/// daemon's incarnations: a restarted daemon's counters start again at zero,
/// so each incarnation's final reading is folded in before it is killed.
class Ledger {
 public:
  /// Starts a new incarnation whose counters begin at `base`.
  void Rebase(const Counters& base, uint64_t cpu_us);
  /// Folds the reading since the last Rebase/Fold into the totals.
  void Fold(const Counters& now, uint64_t cpu_us);

  [[nodiscard]] const Counters& totals() const { return totals_; }
  [[nodiscard]] uint64_t cpu_us() const { return cpu_us_; }

 private:
  Counters base_;
  uint64_t base_cpu_ = 0;
  Counters totals_;
  uint64_t cpu_us_ = 0;
};

/// Counter-wise `after - before` (gauges such as cache.used_bytes included;
/// callers pick the names that are counters).
Counters Delta(const Counters& before, const Counters& after);

}  // namespace geminibench
