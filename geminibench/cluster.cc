#include "geminibench/cluster.h"

#include <fcntl.h>
#include <ftw.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>

#include "src/common/clock.h"
#include "src/transport/tcp_connection.h"
#include "src/transport/wire.h"

namespace geminibench {

using SteadyClock = std::chrono::steady_clock;

bool Daemon::Start(const std::string& path,
                   const std::vector<std::string>& args,
                   const std::string& banner, const std::string& log_path) {
  Kill();
  // The daemon's stdout and stderr go to a log file rather than a pipe, so a
  // chatty daemon can never block on a full pipe nobody drains.
  const int log_fd = ::open(log_path.c_str(),
                            O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) return false;
  struct stat st {};
  const off_t offset = ::fstat(log_fd, &st) == 0 ? st.st_size : 0;
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    return false;
  }
  if (pid == 0) {
    // A daemon must not outlive the load generator, however it exits.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    std::vector<std::string> owned;
    owned.push_back(path);
    owned.insert(owned.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (auto& a : owned) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(path.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(log_fd);
  pid_ = pid;
  banner_.clear();
  port_ = 0;

  // Wait for this incarnation's banner line (the log may hold earlier ones).
  const auto deadline = SteadyClock::now() + std::chrono::seconds(15);
  while (SteadyClock::now() < deadline) {
    std::ifstream in(log_path);
    in.seekg(offset);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const size_t at = text.find(banner);
    if (at != std::string::npos) {
      const size_t eol = text.find('\n', at);
      if (eol != std::string::npos) {
        banner_ = text.substr(at, eol - at);
        break;
      }
    }
    int wstatus = 0;
    if (::waitpid(pid_, &wstatus, WNOHANG) == pid_) {
      pid_ = -1;  // exited before it was ready
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const std::string marker = "127.0.0.1:";
  const size_t mp = banner_.find(marker);
  if (mp != std::string::npos) {
    port_ = static_cast<uint16_t>(
        std::atoi(banner_.c_str() + mp + marker.size()));
  }
  if (port_ == 0) {
    Kill();
    return false;
  }
  return true;
}

void Daemon::Kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int wstatus = 0;
  ::waitpid(pid_, &wstatus, 0);
  pid_ = -1;
}

bool QueryStats(uint16_t port, Counters* out) {
  gemini::TcpConnection::Options copts;
  copts.connect_timeout = gemini::Millis(250);
  copts.io_timeout = gemini::Millis(1000);
  auto conn = gemini::TcpConnection::Acquire("127.0.0.1", port,
                                             gemini::wire::kAnyInstance, copts);
  std::string resp;
  if (!conn->Transact(gemini::wire::Op::kStats, "", &resp).ok()) return false;
  gemini::wire::Reader r(resp);
  uint32_t count = 0;
  if (!r.GetU32(&count)) return false;
  out->clear();
  for (uint32_t i = 0; i < count; ++i) {
    std::string_view key;
    uint64_t v = 0;
    if (!r.GetBlob(&key) || !r.GetU64(&v)) return false;
    (*out)[std::string(key)] = v;
  }
  return true;
}

uint64_t ProcessCpuMicros(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return 0;
  // Field 2 (comm) may hold spaces; fields resume after the last ')'.
  const size_t close = line.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  uint64_t utime = 0, stime = 0;
  // rest starts at field 3 (state); utime and stime are fields 14 and 15.
  for (int f = 3; f <= 15 && rest >> field; ++f) {
    if (f == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (f == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  const long ticks = ::sysconf(_SC_CLK_TCK);
  return ticks > 0 ? (utime + stime) * 1'000'000 / static_cast<uint64_t>(ticks)
                   : 0;
}

uint64_t SelfCpuMicros() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& tv) {
    return static_cast<uint64_t>(tv.tv_sec) * 1'000'000 +
           static_cast<uint64_t>(tv.tv_usec);
  };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

namespace {
thread_local uint64_t g_dir_bytes = 0;
int SumVisit(const char*, const struct stat* sb, int type, struct FTW*) {
  if (type == FTW_F) g_dir_bytes += static_cast<uint64_t>(sb->st_size);
  return 0;
}
int RemoveVisit(const char* path, const struct stat*, int, struct FTW*) {
  return ::remove(path);
}
}  // namespace

uint64_t DirBytes(const std::string& dir) {
  g_dir_bytes = 0;
  ::nftw(dir.c_str(), SumVisit, 16, FTW_PHYS);
  return g_dir_bytes;
}

void RemoveTree(const std::string& dir) {
  ::nftw(dir.c_str(), RemoveVisit, 16, FTW_DEPTH | FTW_PHYS);
}

void Ledger::Rebase(const Counters& base, uint64_t cpu_us) {
  base_ = base;
  base_cpu_ = cpu_us;
}

void Ledger::Fold(const Counters& now, uint64_t cpu_us) {
  for (const auto& [name, value] : now) {
    const auto it = base_.find(name);
    const uint64_t from = it == base_.end() ? 0 : it->second;
    if (value >= from) totals_[name] += value - from;
  }
  if (cpu_us >= base_cpu_) cpu_us_ += cpu_us - base_cpu_;
  Rebase(now, cpu_us);
}

Counters Delta(const Counters& before, const Counters& after) {
  Counters out;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    const uint64_t from = it == before.end() ? 0 : it->second;
    out[name] = value >= from ? value - from : 0;
  }
  return out;
}

}  // namespace geminibench
