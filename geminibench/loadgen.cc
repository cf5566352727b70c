// gemini_loadgen: the benchmark's load generator.
//
// Spawns one geminicoordd and two geminids (each with its own --data-dir),
// drives them in a closed loop from two GeminiClient sessions that share one
// connection per daemon, checks every read against the store (checker.h),
// and writes a JSON report of end-to-end metrics, per-layer metrics (traced
// run only), kStats deltas, busy time and run metadata. run.py builds and
// invokes it; see NOTES.md for what each workload is for.
//
//   gemini_loadgen --workload read_hot|write_mix|failover --seed N
//                  --seconds S --trace 0|1 --bin-dir DIR --workdir DIR
//                  --report FILE [--spans FILE] [--commit ID]
#include <sys/prctl.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <csignal>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "geminibench/checker.h"
#include "geminibench/cluster.h"
#include "geminibench/trace.h"
#include "src/client/gemini_client.h"
#include "src/cluster/remote_coordinator.h"
#include "src/common/clock.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/coordinator/configuration.h"
#include "src/recovery/recovery_worker.h"
#include "src/store/data_store.h"
#include "src/transport/tcp_backend.h"

#ifndef GEMINI_BUILD_TYPE
#define GEMINI_BUILD_TYPE "unknown"
#endif

namespace geminibench {
namespace {

using gemini::Code;
using gemini::ConfigurationPtr;
using gemini::FragmentMode;
using SteadyClock = std::chrono::steady_clock;

constexpr size_t kInstances = 2;
constexpr size_t kFragments = 256;
constexpr uint64_t kHeartbeatMs = 50;
constexpr int kSessions = 2;
constexpr int kRecoveryWorkers = 2;
/// A failover cycle that has not returned every fragment to normal this
/// long after the restart fails the run (recovery takes 3-6 s today).
constexpr double kRecoveryTimeoutS = 30;
/// Set-ups per run; setup_s is their median (plus the time of any failed
/// set-up, shared over them), the last cluster is measured.
constexpr int kSetups = 3;
constexpr int kMaxSetupFailures = 2;
constexpr int kWarmThreads = 4;
/// Bound on warming a cluster that keeps dropping fills.
constexpr double kWarmTimeoutS = 30;
/// An op that has not succeeded this long after it began missed its
/// deadline: it counts as failed.
constexpr double kOpDeadlineS = 2.0;
/// Longest traced steady segment.
constexpr double kMaxTracedS = 10.0;
/// Unmeasured load between set-up and measurement.
constexpr double kLoadWarmS = 2.0;
/// Length of one measurement window of a steady workload.
constexpr double kWindowS = 1.0;
/// Pause before retrying a kSuspended write.
constexpr auto kSuspendPause = std::chrono::milliseconds(1);

// ---- Workloads ---------------------------------------------------------------

struct Workload {
  std::string name;
  uint64_t keys = 0;
  size_t value_bytes = 0;
  double write_fraction = 0;
  bool zipfian = false;          // scrambled Zipfian theta 0.99, else uniform
  uint64_t capacity_mb = 0;      // per geminid; 0 = unbounded
  int64_t store_latency_us = 0;  // applied once the cluster is warm
  bool failover = false;
};

std::optional<Workload> FindWorkload(const std::string& name) {
  if (name == "read_hot") {
    return Workload{name, 100'000, 100, 0.05, true, 0, 0, false};
  }
  if (name == "write_mix") {
    // 2 MiB per geminid holds ~1.9k entries of 1 KiB plus the 56 B entry
    // charge, so 15k keys are about 4x the cluster's capacity.
    return Workload{name, 15'000, 1024, 0.50, false, 2, 0, false};
  }
  if (name == "failover") {
    return Workload{name, 100'000, 100, 0.05, true, 0, 500, true};
  }
  return std::nullopt;
}

// ---- Flags -------------------------------------------------------------------

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string bin_dir;
  std::string workdir;
  std::string report;
  std::string spans;
  std::string commit = "unknown";
};

bool ParseFlags(int argc, char** argv, Flags* f) {
  if (argc % 2 == 0) return false;  // a flag without its value
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const char* v = argv[i + 1];
    if (arg == "--workload") {
      f->workload = v;
    } else if (arg == "--seed") {
      f->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      f->seconds = std::atof(v);
    } else if (arg == "--trace") {
      f->trace = std::atoi(v) != 0;
    } else if (arg == "--bin-dir") {
      f->bin_dir = v;
    } else if (arg == "--workdir") {
      f->workdir = v;
    } else if (arg == "--report") {
      f->report = v;
    } else if (arg == "--spans") {
      f->spans = v;
    } else if (arg == "--commit") {
      f->commit = v;
    } else {
      return false;
    }
  }
  return !f->workload.empty() && f->seconds > 0 && !f->bin_dir.empty() &&
         !f->workdir.empty() && !f->report.empty();
}

// ---- Small helpers -----------------------------------------------------------

double Seconds(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

void SleepFor(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

/// Quantile of an unsorted sample (nearest rank); 0 for an empty one.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const size_t idx = rank == 0 ? 0 : std::min(rank - 1, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(idx), v.end());
  return v[idx];
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

bool AllNormal(const ConfigurationPtr& config) {
  if (config == nullptr || config->num_fragments() != kFragments) return false;
  for (gemini::FragmentId f = 0; f < kFragments; ++f) {
    const gemini::FragmentAssignment& a = config->fragment(f);
    if (a.mode != FragmentMode::kNormal || a.primary == gemini::kInvalidInstance) {
      return false;
    }
  }
  return true;
}

template <typename Pred>
bool WaitFor(Pred pred, double timeout_s, double poll_s = 0.002) {
  const auto start = SteadyClock::now();
  while (!pred()) {
    if (Seconds(start, SteadyClock::now()) > timeout_s) return false;
    SleepFor(poll_s);
  }
  return true;
}

// A minimal JSON object writer (keys in insertion order).
class Json {
 public:
  Json& Num(const std::string& k, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    return Raw(k, buf);
  }
  Json& Str(const std::string& k, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q.push_back('\\');
      if (static_cast<unsigned char>(c) < 0x20) {
        q += ' ';
        continue;
      }
      q.push_back(c);
    }
    q.push_back('"');
    return Raw(k, q);
  }
  Json& Obj(const std::string& k, const Json& v) { return Raw(k, v.Render()); }
  Json& Arr(const std::string& k, const std::vector<Json>& items) {
    std::string out = "[";
    for (size_t i = 0; i < items.size(); ++i) {
      if (i > 0) out += ",";
      out += items[i].Render();
    }
    return Raw(k, out + "]");
  }
  Json& Raw(const std::string& k, const std::string& rendered) {
    fields_.emplace_back(k, rendered);
    return *this;
  }
  [[nodiscard]] std::string Render() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ",";
      out += "\"" + fields_[i].first + "\":" + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

Json CountersJson(const Counters& c) {
  Json j;
  for (const auto& [name, value] : c) j.Num(name, static_cast<double>(value));
  return j;
}

/// A metric for the report: value, unit and (for ratios) its base.
Json Metric(double value, const std::string& unit, const std::string& base = "",
            double samples = -1) {
  Json j;
  j.Num("value", value).Str("unit", unit);
  if (!base.empty()) j.Str("base", base);
  if (samples >= 0) j.Num("samples", samples);
  return j;
}

// ---- The cluster ---------------------------------------------------------------

/// The daemons of one set-up: index 0 is geminicoordd, 1 + i is geminid i.
class Cluster {
 public:
  Cluster(const Flags& flags, const Workload& w, int setup)
      : flags_(flags), workload_(w), setup_(setup) {}
  ~Cluster() {
    Shutdown();
    for (const std::string& dir : data_dirs_) {
      if (!dir.empty()) RemoveTree(dir);
    }
  }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  bool Start() {
    if (!coord_.Start(flags_.bin_dir + "/geminicoordd",
                      {"--port", "0", "--cluster-size",
                       std::to_string(kInstances), "--fragments",
                       std::to_string(kFragments), "--heartbeat-interval-ms",
                       std::to_string(kHeartbeatMs), "--miss-threshold", "3",
                       "--lease-ttl-ms", "3000"},
                      "coordinating", flags_.workdir + "/geminicoordd.log")) {
      std::fprintf(stderr, "loadgen: geminicoordd did not start\n");
      return false;
    }
    for (size_t i = 0; i < kInstances; ++i) {
      data_dirs_[i] = flags_.workdir + "/node" + std::to_string(i) + "_setup" +
                      std::to_string(setup_);
      RemoveTree(data_dirs_[i]);
      if (!StartNode(i)) return false;
    }
    for (Ledger& l : ledgers_) l = Ledger();
    return true;
  }

  bool StartNode(size_t i) {
    std::vector<std::string> args = {
        "--port", std::to_string(ports_[i]), "--instance", std::to_string(i),
        "--data-dir", data_dirs_[i], "--coordinator",
        "127.0.0.1:" + std::to_string(coord_.port()),
        "--heartbeat-interval-ms", std::to_string(kHeartbeatMs), "--threads",
        "1"};
    if (workload_.capacity_mb > 0) {
      args.insert(args.end(),
                  {"--capacity-mb", std::to_string(workload_.capacity_mb)});
    }
    if (!nodes_[i].Start(flags_.bin_dir + "/geminid", args, "serving on",
                         flags_.workdir + "/geminid" + std::to_string(i) +
                             ".log")) {
      std::fprintf(stderr, "loadgen: geminid %zu did not start\n", i);
      return false;
    }
    ports_[i] = nodes_[i].port();
    const std::string& b = nodes_[i].banner();
    const size_t at = b.find("io backend: ");
    if (at != std::string::npos) {
      io_backend_ = b.substr(at + 12, b.find(')', at) - at - 12);
    }
    return true;
  }

  /// kill -9 geminid `i` after folding its final counters into its ledger.
  void KillNode(size_t i) {
    Fold(1 + i);
    nodes_[i].Kill();
  }

  /// Restarts geminid `i` on its old port with its data dir intact.
  bool RestartNode(size_t i) {
    if (!StartNode(i)) return false;
    ledgers_[1 + i].Rebase({}, 0);
    return true;
  }

  void Shutdown() {
    for (Daemon& n : nodes_) n.Kill();
    coord_.Kill();
  }

  /// Folds daemon `d`'s current counters and busy time into its ledger.
  bool Fold(size_t d) {
    Counters now;
    if (!QueryStats(port(d), &now)) return false;
    ledgers_[d].Fold(now, ProcessCpuMicros(pid(d)));
    last_[d] = now;
    return true;
  }
  bool FoldAll() {
    bool ok = true;
    for (size_t d = 0; d < 1 + kInstances; ++d) ok = Fold(d) && ok;
    return ok;
  }
  /// Starts every ledger afresh from the daemons' current readings.
  bool RebaseAll() {
    for (size_t d = 0; d < 1 + kInstances; ++d) {
      Counters now;
      if (!QueryStats(port(d), &now)) return false;
      ledgers_[d] = Ledger();
      ledgers_[d].Rebase(now, ProcessCpuMicros(pid(d)));
      last_[d] = now;
    }
    return true;
  }

  [[nodiscard]] uint16_t port(size_t d) const {
    return d == 0 ? coord_.port() : ports_[d - 1];
  }
  [[nodiscard]] pid_t pid(size_t d) const {
    return d == 0 ? coord_.pid() : nodes_[d - 1].pid();
  }
  [[nodiscard]] const Ledger& ledger(size_t d) const { return ledgers_[d]; }
  [[nodiscard]] const Counters& last(size_t d) const { return last_[d]; }
  [[nodiscard]] const std::string& data_dir(size_t i) const {
    return data_dirs_[i];
  }
  [[nodiscard]] const std::string& io_backend() const { return io_backend_; }
  static std::string DaemonName(size_t d) {
    return d == 0 ? "geminicoordd" : "geminid" + std::to_string(d - 1);
  }

 private:
  const Flags& flags_;
  const Workload& workload_;
  const int setup_;
  Daemon coord_;
  Daemon nodes_[kInstances];
  uint16_t ports_[kInstances] = {0, 0};  // 0 until the first start
  std::string data_dirs_[kInstances];
  Ledger ledgers_[1 + kInstances];
  Counters last_[1 + kInstances];
  std::string io_backend_ = "unknown";
};

/// Totals of every ledger, keyed by daemon name (a point-in-time reading).
std::map<std::string, Counters> LedgerTotals(const Cluster& c,
                                             std::map<std::string, uint64_t>* cpu) {
  std::map<std::string, Counters> out;
  for (size_t d = 0; d < 1 + kInstances; ++d) {
    out[Cluster::DaemonName(d)] = c.ledger(d).totals();
    if (cpu != nullptr) (*cpu)[Cluster::DaemonName(d)] = c.ledger(d).cpu_us();
  }
  return out;
}

/// A snapshot of every daemon's folded totals plus this process's busy time.
struct Snapshot {
  std::map<std::string, Counters> counters;
  std::map<std::string, uint64_t> cpu_us;
  uint64_t loadgen_cpu_us = 0;
};

Snapshot TakeSnapshot(Cluster& c) {
  c.FoldAll();
  Snapshot s;
  s.counters = LedgerTotals(c, &s.cpu_us);
  s.loadgen_cpu_us = SelfCpuMicros();
  return s;
}

/// Per-daemon counter deltas between two snapshots.
std::map<std::string, Counters> SnapshotDelta(const Snapshot& a,
                                              const Snapshot& b) {
  std::map<std::string, Counters> out;
  for (const auto& [name, after] : b.counters) {
    const auto it = a.counters.find(name);
    out[name] = Delta(it == a.counters.end() ? Counters{} : it->second, after);
  }
  return out;
}

uint64_t SumOverNodes(const std::map<std::string, Counters>& delta,
                      const std::string& name) {
  uint64_t sum = 0;
  for (size_t i = 0; i < kInstances; ++i) {
    const auto it = delta.find("geminid" + std::to_string(i));
    if (it == delta.end()) continue;
    const auto v = it->second.find(name);
    if (v != it->second.end()) sum += v->second;
  }
  return sum;
}

/// Failures the coordinator detected between two snapshots.
double FailuresDetected(const Snapshot& a, const Snapshot& b) {
  const auto delta = SnapshotDelta(a, b);
  const Counters& coord = delta.at("geminicoordd");
  const auto it = coord.find("cluster.failures_detected");
  return it == coord.end() ? 0 : static_cast<double>(it->second);
}

Json DeltaJson(const Snapshot& a, const Snapshot& b) {
  Json j;
  const auto delta = SnapshotDelta(a, b);
  for (const auto& [name, counters] : delta) {
    Json d = CountersJson(counters);
    const auto ca = a.cpu_us.find(name);
    const auto cb = b.cpu_us.find(name);
    d.Num("cpu_us", static_cast<double>(cb->second - ca->second));
    j.Obj(name, d);
  }
  j.Num("loadgen.cpu_us",
        static_cast<double>(b.loadgen_cpu_us - a.loadgen_cpu_us));
  return j;
}

// ---- Load --------------------------------------------------------------------

struct OpRecord {
  int64_t start_ns = 0;  // relative to the run epoch
  float latency_us = 0;
  uint16_t fragment = 0;
  bool write = false;
  bool failed = false;
  bool hit = false;
  bool store_fallback = false;  // read served by the store (routed nowhere)
  Code code = Code::kOk;
  uint32_t user_bytes = 0;  // key + value bytes of an acked write
};

/// One failover cycle's timeline and readings.
struct Cycle {
  size_t victim = 0;
  int64_t start_ns = 0, kill_ns = 0, detect_ns = 0, restart_ns = 0,
          normal_ns = 0, end_ns = 0;
  std::vector<bool> victim_fragments;
  uint64_t config_id_restart = 0, config_id_normal = 0;
  double replay_ms = 0;
  Snapshot before, after;
};

class Bench {
 public:
  Bench(const Flags& flags, const Workload& w)
      : flags_(flags),
        w_(w),
        checker_(w.keys, w.value_bytes, flags.seed),
        epoch_(SteadyClock::now()) {}
  ~Bench() { TearDownClients(); }
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  int Run();

 private:
  /// A traced steady segment (and the untraced one it is compared with)
  /// is capped: spans stay in memory until the run ends.
  double TracedSeconds() const { return std::min(flags_.seconds, kMaxTracedS); }
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               SteadyClock::now() - epoch_)
        .count();
  }

  bool SetUp(int setup, double* seconds);
  void StopWorkers();
  /// Stops the recovery workers, then drops every client-side object.
  void TearDownClients();
  bool Warm();
  void SessionLoop(int s);
  void RecoveryLoop(int w);
  bool RunCycle(size_t index, Cycle* cycle);
  void Fail(const std::string& why) {
    if (error_.empty()) error_ = why;
    std::fprintf(stderr, "loadgen: %s\n", why.c_str());
  }

  // Metrics over ops that began in [a, b).
  struct Window {
    uint64_t attempted = 0, failed = 0, hits = 0, fallbacks = 0,
             acked_writes = 0, user_bytes = 0;
    std::vector<double> read_us, write_us;
    std::map<std::string, uint64_t> failed_by_code;
    double seconds = 0;
    [[nodiscard]] uint64_t acked() const { return attempted - failed; }
  };
  Window Measure(int64_t a, int64_t b) const;
  using Interval = std::pair<int64_t, int64_t>;
  Json EndToEnd(const std::vector<Interval>& windows, const std::string& label,
                double setup_s) const;
  Json PerLayer(const Window& win, const Window& traced_steady,
                const Window& untraced, const std::vector<Span>& spans,
                const Snapshot& before, const Snapshot& after) const;
  Json FailoverMetrics() const;

  const Flags& flags_;
  const Workload& w_;
  RawChecker checker_;
  const SteadyClock::time_point epoch_;
  gemini::DataStore store_;
  std::unique_ptr<Tracer> tracer_;

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<gemini::RemoteCoordinator> coordinator_;
  std::vector<std::unique_ptr<gemini::TcpCacheBackend>> backends_;
  std::vector<std::unique_ptr<TracedBackend>> traced_;
  std::unique_ptr<TracedCoordinator> traced_coord_;
  std::unique_ptr<gemini::GeminiClient> client_;

  std::atomic<bool> stop_{false};          // session threads
  std::atomic<bool> workers_stop_{false};  // recovery worker threads
  std::vector<std::thread> workers_;
  std::vector<std::vector<OpRecord>> records_;
  std::vector<gemini::RecoveryWorker::Stats> worker_stats_;
  std::vector<Cycle> cycles_;  // completed cycles
  size_t kills_ = 0;
  std::string error_;
};

bool Bench::SetUp(int setup, double* seconds) {
  const auto t0 = SteadyClock::now();
  cluster_ = std::make_unique<Cluster>(flags_, w_, setup);
  if (!cluster_->Start()) {
    Fail("the daemons did not start");
    return false;
  }
  coordinator_ = std::make_unique<gemini::RemoteCoordinator>(
      "127.0.0.1", cluster_->port(0), gemini::RemoteCoordinator::Options());
  std::vector<gemini::CacheBackend*> ptrs;
  for (size_t i = 0; i < kInstances; ++i) {
    backends_.push_back(std::make_unique<gemini::TcpCacheBackend>(
        "127.0.0.1", cluster_->port(1 + i), static_cast<gemini::InstanceId>(i),
        gemini::TcpCacheBackend::Options()));
    ptrs.push_back(backends_.back().get());
  }
  gemini::CoordinatorService* coord = coordinator_.get();
  if (tracer_ != nullptr) {
    for (auto& b : backends_) {
      traced_.push_back(std::make_unique<TracedBackend>(b.get(), tracer_.get()));
    }
    ptrs.clear();
    for (auto& t : traced_) ptrs.push_back(t.get());
    traced_coord_ =
        std::make_unique<TracedCoordinator>(coordinator_.get(), tracer_.get());
    coord = traced_coord_.get();
  }
  if (!WaitFor(
          [&] {
            (void)coordinator_->Refresh();
            return AllNormal(coordinator_->GetConfiguration());
          },
          30, 0.005)) {
    Fail("cluster never converged at set-up");
    return false;
  }
  gemini::GeminiClient::Options copts;
  copts.follow_config_pushes = true;
  client_ = std::make_unique<gemini::GeminiClient>(
      &gemini::SystemClock::Global(), coord, ptrs, &store_, copts);
  // Recovery workers run from here on in every workload, as in a
  // deployment: they idle until a fragment enters recovery mode, which
  // without a kill happens only when the coordinator falsely fails over a
  // healthy geminid — and under the default policy only a worker's report
  // ends recovery mode.
  workers_stop_.store(false);
  worker_stats_.assign(kRecoveryWorkers, {});
  for (int w = 0; w < kRecoveryWorkers; ++w) {
    workers_.emplace_back([this, w] { RecoveryLoop(w); });
  }
  if (!Warm()) return false;
  *seconds = Seconds(t0, SteadyClock::now());
  return true;
}

void Bench::StopWorkers() {
  workers_stop_.store(true, std::memory_order_release);
  for (auto& th : workers_) th.join();
  workers_.clear();
}

void Bench::TearDownClients() {
  StopWorkers();
  client_.reset();
  traced_coord_.reset();
  traced_.clear();
  backends_.clear();
  coordinator_.reset();
}

bool Bench::Warm() {
  // Every key is read through GeminiClient::WarmUp (a batched probe, then a
  // full Read for each miss), split across warm threads. A read can
  // fall through to the store without filling (e.g. while fragment leases
  // are still being granted), so an unbounded cache is warmed again until
  // it holds every key; a bounded one gets one pass. A false failover can
  // put fragments in recovery mode, where reads mostly bypass the cache, so
  // each pass starts from all-normal.
  const auto start = SteadyClock::now();
  while (true) {
    if (!WaitFor([&] { return AllNormal(coordinator_->GetConfiguration()); },
                 kRecoveryTimeoutS)) {
      Fail("the cluster left all-normal during warm-up and did not return");
      return false;
    }
    std::vector<std::thread> threads;
    for (int t = 0; t < kWarmThreads; ++t) {
      threads.emplace_back([&, t] {
        gemini::Session session;
        std::vector<std::string> batch;
        for (uint64_t k = static_cast<uint64_t>(t); k < w_.keys;
             k += kWarmThreads) {
          batch.push_back(RawChecker::KeyName(k));
          if (batch.size() == 512 || k + kWarmThreads >= w_.keys) {
            client_->WarmUp(session, batch);
            batch.clear();
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    if (w_.capacity_mb != 0) return true;
    uint64_t entries = 0;
    for (size_t i = 0; i < kInstances; ++i) {
      Counters c;
      if (!QueryStats(cluster_->port(1 + i), &c)) return false;
      entries += c["cache.entry_count"];
    }
    if (entries >= w_.keys) return true;
    if (Seconds(start, SteadyClock::now()) > kWarmTimeoutS) {
      Fail("warm-up cached " + std::to_string(entries) + " of " +
           std::to_string(w_.keys) + " keys");
      return false;
    }
  }
}

void Bench::SessionLoop(int s) {
  gemini::Rng rng(gemini::Mix64(flags_.seed * 1000003 + static_cast<uint64_t>(s)));
  const gemini::ScrambledZipfian zipf(w_.keys, 0.99);
  auto draw = [&] { return w_.zipfian ? zipf.Next(rng) : rng.NextBounded(w_.keys); };
  gemini::Session session;
  std::vector<OpRecord>& out = records_[static_cast<size_t>(s)];
  Tracer* tracer = tracer_.get();
  while (!stop_.load(std::memory_order_acquire)) {
    OpRecord rec;
    rec.write = rng.NextDouble() < w_.write_fraction;
    uint64_t k = draw();
    // Each key has one writing session (checker.h): a write redraws until
    // it lands on a key this session owns.
    while (rec.write && k % kSessions != static_cast<uint64_t>(s)) k = draw();
    const std::string key = RawChecker::KeyName(k);
    rec.fragment = static_cast<uint16_t>(gemini::Fnv1a64(key) % kFragments);
    const auto t0 = SteadyClock::now();
    rec.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       t0 - epoch_)
                       .count();
    if (!rec.write) {
      const RawChecker::Acked floor = checker_.Floor(k);
      ScopedSpan span(tracer, "client.read");
      auto r = client_->Read(session, key);
      span.set_code(r.code());
      if (r.ok()) {
        rec.hit = r->cache_hit;
        rec.store_fallback = r->routed == gemini::kInvalidInstance;
        checker_.OnRead(k, floor, r->value.version, r->value.data);
      } else {
        rec.failed = true;
        rec.code = r.code();
      }
    } else {
      const uint64_t wn = checker_.NextWrite(k);
      const std::string payload = checker_.Payload(k, wn);
      const gemini::Version before = store_.VersionOf(key);
      gemini::Status st;
      while (true) {
        {
          ScopedSpan span(tracer, "client.write");
          st = client_->Write(session, key, payload);
          span.set_code(st.code());
        }
        if (st.code() != Code::kSuspended ||
            Seconds(t0, SteadyClock::now()) > kOpDeadlineS ||
            stop_.load(std::memory_order_acquire)) {
          break;
        }
        std::this_thread::sleep_for(kSuspendPause);
      }
      const gemini::Version after = store_.VersionOf(key);
      checker_.OnWrite(k, wn, before, after, st.ok());
      if (st.ok()) {
        rec.user_bytes = static_cast<uint32_t>(key.size() + payload.size());
      } else {
        rec.failed = true;
        rec.code = st.code();
      }
    }
    const double us =
        std::chrono::duration<double, std::micro>(SteadyClock::now() - t0)
            .count();
    rec.latency_us = static_cast<float>(us);
    if (!rec.failed && us > kOpDeadlineS * 1e6) {
      rec.failed = true;  // missed its deadline
      rec.code = Code::kSuspended;
    }
    out.push_back(rec);
  }
}

void Bench::RecoveryLoop(int w) {
  // Each worker has its own backends (they still share the connection per
  // daemon), traced like the client's when tracing is on.
  std::vector<std::unique_ptr<gemini::TcpCacheBackend>> own;
  std::vector<std::unique_ptr<TracedBackend>> own_traced;
  std::vector<gemini::CacheBackend*> ptrs;
  for (size_t i = 0; i < kInstances; ++i) {
    own.push_back(std::make_unique<gemini::TcpCacheBackend>(
        "127.0.0.1", cluster_->port(1 + i), static_cast<gemini::InstanceId>(i),
        gemini::TcpCacheBackend::Options()));
    if (tracer_ != nullptr) {
      own_traced.push_back(
          std::make_unique<TracedBackend>(own.back().get(), tracer_.get()));
      ptrs.push_back(own_traced.back().get());
    } else {
      ptrs.push_back(own.back().get());
    }
  }
  gemini::CoordinatorService* coord =
      traced_coord_ != nullptr
          ? static_cast<gemini::CoordinatorService*>(traced_coord_.get())
          : coordinator_.get();
  gemini::RecoveryWorker::Options wopts;
  // geminicoordd's default policy (gemini-ow) keeps a fragment in recovery
  // until a worker reports its working-set transfer terminated.
  wopts.working_set_transfer = true;
  wopts.wst_page_keys = 2048;
  gemini::RecoveryWorker worker(&gemini::SystemClock::Global(), coord, ptrs,
                                wopts);
  gemini::Session session;
  Tracer* tracer = tracer_.get();
  while (!workers_stop_.load(std::memory_order_acquire)) {
    std::optional<gemini::FragmentId> adopted;
    {
      ScopedSpan span(tracer, "recovery.adopt");
      adopted = worker.TryAdoptFragment(session);
    }
    if (!adopted.has_value()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      continue;
    }
    bool done = false;
    while (!done && !workers_stop_.load(std::memory_order_acquire)) {
      ScopedSpan span(tracer, "recovery.step");
      done = worker.Step(session);
    }
  }
  worker_stats_[static_cast<size_t>(w)] = worker.stats();
}

bool Bench::RunCycle(size_t index, Cycle* c) {
  constexpr double kSteadyS = 1.0, kOutageS = 1.0, kPostS = 0.5;
  c->victim = (index + flags_.seed) % kInstances;
  c->before = TakeSnapshot(*cluster_);
  c->start_ns = NowNs();
  SleepFor(kSteadyS);

  // A false failover may still be recovering; kill from all-normal only.
  if (!WaitFor([&] { return AllNormal(coordinator_->GetConfiguration()); },
               kRecoveryTimeoutS)) {
    Fail("the cluster never returned to all-normal before a kill");
    return false;
  }
  const ConfigurationPtr cfg = coordinator_->GetConfiguration();
  c->victim_fragments.assign(kFragments, false);
  for (gemini::FragmentId f = 0; f < kFragments; ++f) {
    c->victim_fragments[f] = cfg->fragment(f).primary == c->victim;
  }
  cluster_->KillNode(c->victim);
  ++kills_;
  c->kill_ns = NowNs();
  // Detected once the coordinator moved one of the victim's fragments.
  if (!WaitFor(
          [&] {
            const ConfigurationPtr now = coordinator_->GetConfiguration();
            if (now == nullptr) return false;
            for (gemini::FragmentId f = 0; f < kFragments; ++f) {
              if (c->victim_fragments[f] &&
                  now->fragment(f).mode != FragmentMode::kNormal) {
                return true;
              }
            }
            return false;
          },
          10, 0.001)) {
    Fail("the coordinator never failed over the killed geminid");
    return false;
  }
  c->detect_ns = NowNs();
  SleepFor(std::max(0.0, kOutageS - (NowNs() - c->kill_ns) / 1e9));

  c->restart_ns = NowNs();
  if (!cluster_->RestartNode(c->victim)) {
    Fail("the killed geminid did not restart");
    return false;
  }
  Counters coord_stats;
  if (QueryStats(cluster_->port(0), &coord_stats)) {
    c->config_id_restart = coord_stats["cluster.config_id"];
  }
  if (!WaitFor([&] { return AllNormal(coordinator_->GetConfiguration()); },
               kRecoveryTimeoutS)) {
    Fail("recovery never returned every fragment to normal");
    return false;
  }
  c->normal_ns = NowNs();
  if (QueryStats(cluster_->port(0), &coord_stats)) {
    c->config_id_normal = coord_stats["cluster.config_id"];
  }
  Counters victim_stats;
  if (QueryStats(cluster_->port(1 + c->victim), &victim_stats)) {
    c->replay_ms = static_cast<double>(victim_stats["persist.replay_micros"]) / 1e3;
  }
  SleepFor(kPostS);
  c->end_ns = NowNs();
  c->after = TakeSnapshot(*cluster_);
  return true;
}

Bench::Window Bench::Measure(int64_t a, int64_t b) const {
  Window win;
  win.seconds = static_cast<double>(b - a) / 1e9;
  for (const auto& session : records_) {
    for (const OpRecord& r : session) {
      if (r.start_ns < a || r.start_ns >= b) continue;
      ++win.attempted;
      if (r.failed) {
        ++win.failed;
        win.failed_by_code[std::string(gemini::CodeName(r.code))]++;
        continue;
      }
      if (r.write) {
        ++win.acked_writes;
        win.user_bytes += r.user_bytes;
        win.write_us.push_back(r.latency_us);
      } else {
        win.hits += r.hit ? 1 : 0;
        win.fallbacks += r.store_fallback ? 1 : 0;
        win.read_us.push_back(r.latency_us);
      }
    }
  }
  return win;
}

Json Bench::EndToEnd(const std::vector<Interval>& windows,
                     const std::string& label, double setup_s) const {
  // Each figure is the median of its per-window values, so a burst of
  // interference from outside the benchmark moves one window, not the run.
  std::vector<double> goodput, r50, r99, w50, w99, hit;
  uint64_t attempted = 0, failed = 0, reads = 0, writes = 0;
  for (const auto& [wa, wb] : windows) {
    const Window win = Measure(wa, wb);
    attempted += win.attempted;
    failed += win.failed;
    reads += win.read_us.size();
    writes += win.write_us.size();
    goodput.push_back(Ratio(static_cast<double>(win.acked()), win.seconds));
    r50.push_back(Quantile(win.read_us, 0.50));
    r99.push_back(Quantile(win.read_us, 0.99));
    w50.push_back(Quantile(win.write_us, 0.50));
    w99.push_back(Quantile(win.write_us, 0.99));
    hit.push_back(Ratio(static_cast<double>(win.hits),
                        static_cast<double>(win.read_us.size())));
  }
  const std::string base = "median of " + std::to_string(windows.size()) +
                           " " + label;
  const double nr = static_cast<double>(reads);
  const double nw = static_cast<double>(writes);
  Json j;
  j.Obj("setup_s", Metric(setup_s, "s",
                          "median of " + std::to_string(kSetups) +
                              " set-ups, plus any failed set-up's time / " +
                              std::to_string(kSetups)));
  j.Obj("goodput_ops_s", Metric(Median(goodput), "1/s",
                                "acknowledged ops per second, " + base));
  j.Obj("read_p50_us", Metric(Median(r50), "us", base, nr));
  j.Obj("read_p99_us", Metric(Median(r99), "us", base, nr));
  j.Obj("write_p50_us", Metric(Median(w50), "us", base, nw));
  j.Obj("write_p99_us", Metric(Median(w99), "us", base, nw));
  j.Obj("hit_ratio", Metric(Median(hit), "ratio",
                            "cache hits per successful read, " + base));
  j.Obj("failed_op_ratio",
        Metric(Ratio(static_cast<double>(failed),
                     static_cast<double>(attempted)),
               "ratio", "failed or late ops per op attempted"));
  std::vector<Json> each;
  for (size_t i = 0; i < windows.size(); ++i) {
    Json w;
    w.Num("goodput_ops_s", goodput[i]).Num("read_p50_us", r50[i])
        .Num("read_p99_us", r99[i]).Num("write_p50_us", w50[i])
        .Num("write_p99_us", w99[i]).Num("hit_ratio", hit[i]);
    each.push_back(w);
  }
  j.Arr("windows", each);
  return j;
}

Json Bench::FailoverMetrics() const {
  std::vector<double> failover_s, recovery_s, hit, p50;
  for (const Cycle& c : cycles_) {
    double first_ack = -1;
    std::vector<double> reads;
    uint64_t hits = 0;
    for (const auto& session : records_) {
      for (const OpRecord& r : session) {
        const int64_t end =
            r.start_ns + static_cast<int64_t>(r.latency_us * 1e3);
        if (r.write && !r.failed && r.start_ns >= c.kill_ns &&
            c.victim_fragments[r.fragment]) {
          const double s = static_cast<double>(end - c.kill_ns) / 1e9;
          if (first_ack < 0 || s < first_ack) first_ack = s;
        }
        if (!r.write && !r.failed && r.start_ns >= c.restart_ns &&
            r.start_ns < c.normal_ns) {
          reads.push_back(r.latency_us);
          hits += r.hit ? 1 : 0;
        }
      }
    }
    failover_s.push_back(first_ack);
    recovery_s.push_back(static_cast<double>(c.normal_ns - c.restart_ns) / 1e9);
    hit.push_back(Ratio(static_cast<double>(hits),
                        static_cast<double>(reads.size())));
    p50.push_back(Median(reads));
  }
  const std::string base = "median of " + std::to_string(cycles_.size()) +
                           " cycles";
  Json j;
  j.Obj("failover_s", Metric(Median(failover_s), "s", base));
  j.Obj("recovery_s", Metric(Median(recovery_s), "s", base));
  j.Obj("recovery_hit_ratio",
        Metric(Median(hit), "ratio", "cache hits per read in the recovery "
                                     "window, " + base));
  j.Obj("recovery_read_p50_us", Metric(Median(p50), "us", base));
  return j;
}

Json Bench::PerLayer(const Window& win, const Window& traced_steady,
                     const Window& untraced, const std::vector<Span>& spans,
                     const Snapshot& before, const Snapshot& after) const {
  // Roots by operation id, and the time direct children cover per parent.
  std::unordered_map<uint64_t, const char*> root_name;
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const Span& s : spans) {
    if (s.parent == 0) root_name[s.id] = s.name;
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  auto under_client = [&](const Span& s) {
    const auto it = root_name.find(s.op);
    return it != root_name.end() && std::strncmp(it->second, "client.", 7) == 0;
  };
  std::vector<double> self_us, step_us;
  std::map<std::string, std::vector<double>> transport_us;
  uint64_t client_calls = 0, backend_calls = 0, config_fetches = 0;
  std::map<Code, uint64_t> codes;
  for (const Span& s : spans) {
    const double dur_us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    const std::string_view name = s.name;
    if (s.parent == 0 && name.substr(0, 7) == "client.") {
      ++client_calls;
      const auto it = child_ns.find(s.id);
      self_us.push_back(dur_us - (it == child_ns.end() ? 0 : it->second / 1e3));
    } else if (name == "recovery.step") {
      step_us.push_back(dur_us);
    } else if (name.substr(0, 10) == "transport.") {
      transport_us[std::string(name.substr(10))].push_back(dur_us);
      if (under_client(s)) {
        ++backend_calls;
        ++codes[s.code];
      }
    } else if (name == "coord.get_config" && under_client(s)) {
      ++config_fetches;
    }
  }

  const auto delta = SnapshotDelta(before, after);
  auto node_sum = [&](const std::string& n) {
    return static_cast<double>(SumOverNodes(delta, n));
  };
  const double acked = static_cast<double>(win.acked());
  const double acked_writes = static_cast<double>(win.acked_writes);
  auto cpu_delta = [&](const std::string& d) {
    return static_cast<double>(after.cpu_us.at(d) - before.cpu_us.at(d));
  };

  Json j;
  // client
  j.Obj("client.self_us", Metric(Median(self_us), "us",
                                 "median per GeminiClient call, store included",
                                 static_cast<double>(self_us.size())));
  j.Obj("client.backend_calls_per_op",
        Metric(Ratio(static_cast<double>(backend_calls),
                     static_cast<double>(client_calls)),
               "count", "backend calls per GeminiClient call"));
  j.Obj("client.store_fallback_reads",
        Metric(static_cast<double>(win.fallbacks), "count",
               "reads served by the store, routed to no replica"));
  j.Obj("client.config_fetches",
        Metric(static_cast<double>(config_fetches), "count",
               "GetConfiguration calls from GeminiClient"));
  const std::pair<const char*, Code> reply_codes[] = {
      {"stale_config", Code::kStaleConfig},
      {"wrong_instance", Code::kWrongInstance},
      {"unavailable", Code::kUnavailable},
      {"backoff", Code::kBackoff}};
  for (const auto& [label, code] : reply_codes) {
    const auto it = codes.find(code);
    j.Obj(std::string("client.reply_codes.") + label,
          Metric(it == codes.end() ? 0 : static_cast<double>(it->second),
                 "count", "client backend replies with this code"));
  }
  // transport
  for (const char* op : {"iqget", "iqset", "qareg", "dar"}) {
    const auto it = transport_us.find(op);
    const std::vector<double> none;
    const std::vector<double>& v = it == transport_us.end() ? none : it->second;
    j.Obj(std::string("transport.") + op + "_p50_us",
          Metric(Quantile(v, 0.5), "us", "", static_cast<double>(v.size())));
    j.Obj(std::string("transport.") + op + "_p99_us",
          Metric(Quantile(v, 0.99), "us", "", static_cast<double>(v.size())));
  }
  j.Obj("transport.frames_per_flush",
        Metric(Ratio(node_sum("transport.frames_flushed"),
                     node_sum("transport.flush_calls")),
               "count", "server frames per flush"));
  j.Obj("transport.sendmsg_per_frame",
        Metric(Ratio(node_sum("transport.sendmsg_calls"),
                     node_sum("transport.frames_flushed")),
               "count", "server sendmsg calls per frame flushed"));
  // cache
  j.Obj("cache.server_hit_ratio",
        Metric(Ratio(node_sum("cache.hits"),
                     node_sum("cache.hits") + node_sum("cache.misses")),
               "ratio", "server hits per server lookup"));
  j.Obj("cache.evictions_per_op",
        Metric(Ratio(node_sum("cache.evictions"), acked), "count",
               "evictions per acknowledged op"));
  j.Obj("cache.config_discards",
        Metric(node_sum("cache.config_discards"), "count",
               "entries discarded by Rejig validation"));
  // persist
  double live_bytes = 0, disk_bytes = 0;
  for (size_t i = 0; i < kInstances; ++i) {
    const Counters& last = cluster_->last(1 + i);
    const auto it = last.find("cache.used_bytes");
    if (it != last.end()) live_bytes += static_cast<double>(it->second);
    disk_bytes += static_cast<double>(DirBytes(cluster_->data_dir(i)));
  }
  j.Obj("persist.commits_per_write",
        Metric(Ratio(node_sum("persist.journal_commits"), acked_writes),
               "count", "journal commits per acknowledged write"));
  j.Obj("persist.bytes_per_user_byte",
        Metric(Ratio(node_sum("persist.appended_bytes"),
                     static_cast<double>(win.user_bytes)),
               "ratio", "WAL bytes appended per key+value byte written"));
  j.Obj("persist.checkpoints",
        Metric(node_sum("persist.checkpoints"), "count", "checkpoints taken"));
  j.Obj("persist.disk_bytes_per_live_byte",
        Metric(Ratio(disk_bytes, live_bytes), "ratio",
               "data-dir bytes per cached byte at the end"));
  std::vector<double> replay_ms, publishes, detect_ms;
  for (const Cycle& c : cycles_) {
    replay_ms.push_back(c.replay_ms);
    publishes.push_back(
        static_cast<double>(c.config_id_normal - c.config_id_restart));
    detect_ms.push_back(static_cast<double>(c.detect_ns - c.kill_ns) / 1e6);
  }
  const std::string per_cycle =
      "median of " + std::to_string(cycles_.size()) + " recoveries";
  j.Obj("persist.replay_ms", Metric(Median(replay_ms), "ms", per_cycle));
  // coordinator / cluster
  j.Obj("coord.publishes_per_recovery",
        Metric(Median(publishes), "count",
               "config publishes from restart to all-normal, " + per_cycle));
  j.Obj("coord.detect_ms", Metric(Median(detect_ms), "ms",
                                  "kill to first failover publish, " +
                                      per_cycle));
  j.Obj("coord.false_failovers",
        Metric(FailuresDetected(before, after) - static_cast<double>(kills_),
               "count",
               "failures detected minus kills"));
  // recovery
  gemini::RecoveryWorker::Stats ws;
  for (const auto& s : worker_stats_) {
    ws.keys_overwritten += s.keys_overwritten;
    ws.wst_keys_copied += s.wst_keys_copied;
    ws.wst_pages += s.wst_pages;
    ws.fragments_abandoned += s.fragments_abandoned;
  }
  const double recoveries = static_cast<double>(std::max<size_t>(1, cycles_.size()));
  j.Obj("recovery.step_us", Metric(Median(step_us), "us",
                                   "median RecoveryWorker::Step",
                                   static_cast<double>(step_us.size())));
  j.Obj("recovery.keys_overwritten",
        Metric(static_cast<double>(ws.keys_overwritten) / recoveries, "count",
               "per recovery"));
  j.Obj("recovery.wst_keys_copied",
        Metric(static_cast<double>(ws.wst_keys_copied) / recoveries, "count",
               "per recovery"));
  j.Obj("recovery.wst_pages",
        Metric(static_cast<double>(ws.wst_pages) / recoveries, "count",
               "per recovery"));
  j.Obj("recovery.fragments_abandoned",
        Metric(static_cast<double>(ws.fragments_abandoned) / recoveries,
               "count", "per recovery"));
  // per process busy time
  j.Obj("cpu.geminid_us_per_op",
        Metric(Ratio(cpu_delta("geminid0") + cpu_delta("geminid1"), acked),
               "us", "CPU-us of both geminids per acknowledged op"));
  j.Obj("cpu.loadgen_us_per_op",
        Metric(Ratio(static_cast<double>(after.loadgen_cpu_us -
                                         before.loadgen_cpu_us),
                     acked),
               "us", "CPU-us of the load generator per acknowledged op"));
  j.Obj("cpu.coordd_us_per_op",
        Metric(Ratio(cpu_delta("geminicoordd"), acked), "us",
               "CPU-us of geminicoordd per acknowledged op"));
  // tracing overhead: the untraced steady segment against the traced one
  const double g_off = Ratio(static_cast<double>(untraced.acked()), untraced.seconds);
  const double g_on = Ratio(static_cast<double>(traced_steady.acked()),
                            traced_steady.seconds);
  const double p50_off = Quantile(untraced.read_us, 0.5);
  const double p50_on = Quantile(traced_steady.read_us, 0.5);
  j.Obj("trace.overhead_goodput_pct",
        Metric(100.0 * Ratio(g_off - g_on, g_off), "%",
               "goodput lost to tracing, traced vs untraced segment"));
  j.Obj("trace.overhead_read_p50_pct",
        Metric(100.0 * Ratio(p50_on - p50_off, p50_off), "%",
               "read p50 added by tracing, traced vs untraced segment"));
  j.Obj("trace.spans", Metric(static_cast<double>(spans.size()), "count",
                              "spans recorded"));
  return j;
}

int Bench::Run() {
  if (flags_.trace) tracer_ = std::make_unique<Tracer>();
  for (uint64_t k = 0; k < w_.keys; ++k) {
    store_.Put(RawChecker::KeyName(k), checker_.Payload(k, 0));
  }

  // ---- Set-up, several times; the last cluster is the one measured ---------
  std::vector<double> setup_times;
  // A set-up that fails (today: a false failover that never converges) is
  // reported and replaced by a fresh one, a bounded number of times. Its
  // time is not dropped: it is shared over the set-ups kept, so a set-up
  // that has to be redone raises setup_s.
  std::vector<std::string> setup_failures;
  double failed_setup_s = 0;
  for (int attempt = 0; static_cast<int>(setup_times.size()) < kSetups;
       ++attempt) {
    double t = 0;
    const auto t0 = SteadyClock::now();
    if (!SetUp(attempt, &t)) {
      failed_setup_s += Seconds(t0, SteadyClock::now());
      setup_failures.push_back(error_);
      error_.clear();
      TearDownClients();
      cluster_.reset();
      if (static_cast<int>(setup_failures.size()) > kMaxSetupFailures) {
        Fail("set-up failed " + std::to_string(setup_failures.size()) +
             " times; last: " + setup_failures.back());
        return 1;
      }
      continue;
    }
    setup_times.push_back(t);
    if (static_cast<int>(setup_times.size()) < kSetups) {
      TearDownClients();
      cluster_.reset();
    }
  }
  const double setup_s = Median(setup_times) + failed_setup_s / kSetups;
  store_.set_synthetic_latency(w_.store_latency_us);

  // ---- Load ----------------------------------------------------------------
  records_.resize(kSessions);
  for (auto& r : records_) r.reserve(1 << 19);
  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([this, s] { SessionLoop(s); });
  }
  auto stop_load = [&] {
    stop_.store(true, std::memory_order_release);
    for (auto& th : threads) th.join();
    threads.clear();
  };

  // Flush what set-up wrote (three warmed clusters' logs and checkpoints)
  // so its write-back does not land in the measured window, then run the
  // load unmeasured until the caches and logs reach their steady cadence.
  ::sync();
  SleepFor(kLoadWarmS);
  bool ok = cluster_->RebaseAll();
  if (!ok) Fail("a daemon did not answer kStats");
  const Snapshot workload_before = TakeSnapshot(*cluster_);
  int64_t untraced_a = 0, untraced_b = 0;
  if (flags_.trace) {
    // An untraced steady segment first, so the traced run reports its own
    // tracing overhead.
    const double len = w_.failover ? 2.0 : TracedSeconds();
    untraced_a = NowNs();
    SleepFor(len);
    untraced_b = NowNs();
    tracer_->set_enabled(true);
  }
  const Snapshot before = TakeSnapshot(*cluster_);
  const int64_t a = NowNs();
  if (w_.failover) {
    if (flags_.trace) SleepFor(2.0);  // traced steady segment
    const size_t n = static_cast<size_t>(
        std::max(2.0, std::round(flags_.seconds / 5.0)));
    for (size_t i = 0; ok && i < n; ++i) {
      Cycle c;
      ok = RunCycle(i, &c);
      if (ok) cycles_.push_back(std::move(c));
    }
  } else {
    SleepFor(flags_.trace ? TracedSeconds() : flags_.seconds);
  }
  const int64_t b = NowNs();
  if (tracer_ != nullptr) tracer_->set_enabled(false);
  const Snapshot after = TakeSnapshot(*cluster_);
  stop_load();
  StopWorkers();
  checker_.Finish();

  // ---- Report --------------------------------------------------------------
  // The measured window is [a, b). A traced run also has its untraced
  // segment, and its traced steady segment (all of [a, b) except under
  // failover, where cycles follow it) for the tracing overhead.
  const Window full = Measure(a, b);
  const Window untraced = Measure(untraced_a, untraced_b);
  const Window traced_steady =
      w_.failover ? Measure(a, a + 2'000'000'000) : full;
  const Window attempted = Measure(flags_.trace ? untraced_a : a, b);
  Json report;
  utsname uts{};
  ::uname(&uts);
  Json meta;
  meta.Str("workload", w_.name)
      .Num("seed", static_cast<double>(flags_.seed))
      .Num("seconds", flags_.seconds)
      .Num("trace", flags_.trace ? 1 : 0)
      .Num("nproc", static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN)))
      .Str("kernel", std::string(uts.sysname) + " " + uts.release)
      .Str("io_backend", cluster_->io_backend())
      .Str("build_type", GEMINI_BUILD_TYPE)
      .Str("commit", flags_.commit)
      .Num("keys", static_cast<double>(w_.keys))
      .Num("value_bytes", static_cast<double>(w_.value_bytes))
      .Num("write_fraction", w_.write_fraction)
      .Str("key_distribution", w_.zipfian ? "scrambled zipfian 0.99" : "uniform")
      .Num("capacity_mb_per_geminid", static_cast<double>(w_.capacity_mb))
      .Num("store_latency_us", static_cast<double>(w_.store_latency_us))
      .Num("sessions", kSessions)
      .Num("fragments", kFragments)
      .Str("load", "closed loop");
  Json setups;
  for (size_t i = 0; i < setup_times.size(); ++i) {
    setups.Num(std::to_string(i), setup_times[i]);
  }
  meta.Obj("setup_s_each", setups);
  meta.Num("setup_failures", static_cast<double>(setup_failures.size()));
  meta.Num("failed_setup_s", failed_setup_s);
  for (size_t i = 0; i < setup_failures.size(); ++i) {
    meta.Str("setup_failure_" + std::to_string(i), setup_failures[i]);
  }
  report.Obj("meta", meta);

  // End-to-end figures always come from the untraced measurement: the
  // plain run's window, or the traced run's untraced segment. Failover
  // cycles share one shape, so they are the windows there; a steady
  // measurement is cut into windows of kWindowS.
  std::vector<Interval> windows;
  std::string label = "cycles";
  if (w_.failover && !flags_.trace) {
    for (const Cycle& c : cycles_) windows.emplace_back(c.start_ns, c.end_ns);
  } else {
    const int64_t wa = flags_.trace ? untraced_a : a;
    const int64_t wb = flags_.trace ? untraced_b : b;
    const int64_t n = std::max<int64_t>(
        1, std::llround(static_cast<double>(wb - wa) / 1e9 / kWindowS));
    for (int64_t i = 0; i < n; ++i) {
      windows.emplace_back(wa + (wb - wa) * i / n, wa + (wb - wa) * (i + 1) / n);
    }
    label = "windows of about " + std::to_string(static_cast<int>(kWindowS)) +
            " s";
  }
  Json e2e_json = EndToEnd(windows, label, setup_s);
  if (w_.failover && !flags_.trace) e2e_json.Raw("failover", FailoverMetrics().Render());
  report.Obj("end_to_end", e2e_json);
  report.Obj("failed_by_code", [&] {
    Json j;
    for (const auto& [code, n] : full.failed_by_code) {
      j.Num(code, static_cast<double>(n));
    }
    return j;
  }());
  report.Num("attempted", static_cast<double>(attempted.attempted));
  report.Num("failed", static_cast<double>(attempted.failed));

  if (flags_.trace) {
    const std::vector<Span> spans = tracer_->Collect();
    report.Obj("per_layer", PerLayer(full, traced_steady, untraced, spans,
                                     before, after));
    if (!flags_.spans.empty() && !Tracer::WriteCsv(flags_.spans, spans)) {
      Fail("cannot write spans to " + flags_.spans);
    }
  }
  report.Obj("kstats_workload_delta", DeltaJson(workload_before, after));
  std::vector<Json> cycles;
  for (const Cycle& c : cycles_) {
    Json cj;
    cj.Num("victim", static_cast<double>(c.victim))
        .Num("detect_ms", static_cast<double>(c.detect_ns - c.kill_ns) / 1e6)
        .Num("recovery_s", static_cast<double>(c.normal_ns - c.restart_ns) / 1e9)
        .Num("publishes", static_cast<double>(c.config_id_normal -
                                              c.config_id_restart))
        .Num("replay_ms", c.replay_ms)
        .Obj("kstats_delta", DeltaJson(c.before, c.after));
    cycles.push_back(cj);
  }
  report.Arr("cycles", cycles);

  // Liveness: every failure the coordinator detected beyond the kills this
  // run made was a healthy geminid declared dead.
  {
    const double detected = FailuresDetected(workload_before, after);
    Json live;
    live.Num("failures_detected", detected)
        .Num("kills", static_cast<double>(kills_))
        .Num("false_failovers", detected - static_cast<double>(kills_));
    report.Obj("liveness", live);
  }
  Json correctness;
  correctness.Num("reads_checked", static_cast<double>(checker_.reads_checked()))
      .Num("stale_reads", static_cast<double>(checker_.stale_reads()))
      .Num("superseded_reads",
           static_cast<double>(checker_.superseded_reads()))
      .Num("payload_mismatches",
           static_cast<double>(checker_.payload_mismatches()))
      .Str("first_violation", checker_.first_violation())
      .Str("error", error_);
  report.Obj("correctness", correctness);
  const bool correct = ok && error_.empty() && checker_.stale_reads() == 0 &&
                       checker_.payload_mismatches() == 0;
  report.Raw("correct", correct ? "true" : "false");

  TearDownClients();
  cluster_.reset();

  std::FILE* f = std::fopen(flags_.report.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "loadgen: cannot write %s\n", flags_.report.c_str());
    return 1;
  }
  std::fprintf(f, "%s\n", report.Render().c_str());
  std::fclose(f);
  return correct ? 0 : 3;
}

int Main(int argc, char** argv) {
  // Die with the process that started us; the daemons die with us.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    std::fprintf(stderr,
                 "usage: gemini_loadgen --workload W --seed N --seconds S "
                 "--trace 0|1 --bin-dir DIR --workdir DIR --report FILE "
                 "[--spans FILE] [--commit ID]\n");
    return 2;
  }
  const std::string self = RawChecker::SelfTest();
  if (!self.empty()) {
    std::fprintf(stderr, "loadgen: checker self-test failed: %s\n",
                 self.c_str());
    return 4;
  }
  const std::optional<Workload> w = FindWorkload(flags.workload);
  if (!w.has_value()) {
    std::fprintf(stderr, "loadgen: unknown workload %s\n",
                 flags.workload.c_str());
    return 2;
  }
  Bench bench(flags, *w);
  return bench.Run();
}

}  // namespace
}  // namespace geminibench

int main(int argc, char** argv) { return geminibench::Main(argc, argv); }
