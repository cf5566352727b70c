// Tracing for the benchmark's per-layer run.
//
// Spans are recorded from the benchmark's own files only, around the calls
// into each layer's public interface:
//   - the load loop opens client.read / client.write around GeminiClient;
//   - the recovery threads open recovery.adopt / recovery.step around
//     RecoveryWorker::TryAdoptFragment / Step;
//   - TracedBackend (a CacheBackend decorator around TcpCacheBackend) opens
//     one transport.<op> span per call, tagged with the reply code;
//   - TracedCoordinator (a CoordinatorService decorator around
//     RemoteCoordinator) opens one coord.<call> span per call, except for
//     latest_id(), a local atomic load.
// A span with no open parent on its thread starts a new operation; its
// children share the operation's id. Spans stay in per-thread memory until
// Tracer::Collect() after the run.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/cache/cache_backend.h"
#include "src/common/status.h"
#include "src/coordinator/coordinator_service.h"

namespace geminibench {

struct Span {
  const char* name = nullptr;  // static string
  int64_t start_ns = 0;        // steady clock, relative to the tracer epoch
  int64_t end_ns = 0;
  uint64_t id = 0;             // unique across threads; 0 = none
  uint64_t parent = 0;         // 0 for an operation's root span
  uint64_t op = 0;             // id of the root span of this operation
  gemini::Code code = gemini::Code::kOk;
};

class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Spans are recorded only while enabled; disabled spans cost one load.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_acquire);
  }

  /// Opens a span on the calling thread; returns its slot, or -1 when off.
  int64_t Begin(const char* name);
  void End(int64_t slot, gemini::Code code);

  /// Every recorded span of every thread. Call after the traced threads
  /// have stopped recording.
  [[nodiscard]] std::vector<Span> Collect() const;

  /// Writes `spans` as CSV (name,start_ns,end_ns,id,parent,op,code).
  static bool WriteCsv(const std::string& path, const std::vector<Span>& spans);

 private:
  struct ThreadLog;
  ThreadLog* Local();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_thread_{1};
  const int64_t epoch_ns_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;  // guarded by mu_
};

/// RAII span; no-op when `tracer` is null or disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer),
        slot_(tracer != nullptr ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (slot_ >= 0) tracer_->End(slot_, code_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_code(gemini::Code code) { code_ = code; }

 private:
  Tracer* tracer_;
  int64_t slot_;
  gemini::Code code_ = gemini::Code::kOk;
};

/// CacheBackend decorator: forwards every call to `inner`, one span each.
class TracedBackend final : public gemini::CacheBackend {
 public:
  TracedBackend(gemini::CacheBackend* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] gemini::InstanceId id() const override { return inner_->id(); }
  gemini::Result<gemini::CacheValue> Get(const gemini::OpContext& ctx,
                                         std::string_view key) override;
  std::vector<gemini::Result<gemini::CacheValue>> MultiGet(
      const std::vector<gemini::GetRequest>& reqs) override;
  gemini::Result<gemini::IqGetResult> IqGet(const gemini::OpContext& ctx,
                                            std::string_view key) override;
  gemini::Status IqSet(const gemini::OpContext& ctx, std::string_view key,
                       gemini::CacheValue value,
                       gemini::LeaseToken token) override;
  gemini::Result<gemini::LeaseToken> Qareg(const gemini::OpContext& ctx,
                                           std::string_view key) override;
  gemini::Status Dar(const gemini::OpContext& ctx, std::string_view key,
                     gemini::LeaseToken token) override;
  gemini::Status Rar(const gemini::OpContext& ctx, std::string_view key,
                     gemini::CacheValue value,
                     gemini::LeaseToken token) override;
  gemini::Result<gemini::LeaseToken> ISet(const gemini::OpContext& ctx,
                                          std::string_view key) override;
  gemini::Status IDelete(const gemini::OpContext& ctx, std::string_view key,
                         gemini::LeaseToken token) override;
  gemini::Status Delete(const gemini::OpContext& ctx,
                        std::string_view key) override;
  gemini::Status Set(const gemini::OpContext& ctx, std::string_view key,
                     gemini::CacheValue value) override;
  std::vector<gemini::Status> MultiSet(
      std::vector<gemini::SetRequest> reqs) override;
  std::vector<gemini::Status> MultiDelete(
      const std::vector<gemini::DeleteRequest>& reqs) override;
  gemini::Status Cas(const gemini::OpContext& ctx, std::string_view key,
                     gemini::Version expected,
                     gemini::CacheValue value) override;
  gemini::Status WriteBackInstall(const gemini::OpContext& ctx,
                                  std::string_view key,
                                  gemini::CacheValue value,
                                  gemini::LeaseToken token) override;
  gemini::Status Append(const gemini::OpContext& ctx, std::string_view key,
                        std::string_view data) override;
  gemini::Result<gemini::WorkingSetPage> WorkingSetScan(
      const gemini::OpContext& ctx, uint32_t num_fragments, uint64_t cursor,
      uint32_t max_keys) override;
  gemini::Result<gemini::LeaseToken> AcquireRed(std::string_view key) override;
  gemini::Status ReleaseRed(std::string_view key,
                            gemini::LeaseToken token) override;
  gemini::Status RenewRed(std::string_view key,
                          gemini::LeaseToken token) override;

 private:
  gemini::CacheBackend* inner_;
  Tracer* tracer_;
};

/// CoordinatorService decorator: forwards every call to `inner`, one span
/// each except latest_id().
class TracedCoordinator final : public gemini::CoordinatorService {
 public:
  TracedCoordinator(gemini::CoordinatorService* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] gemini::ConfigurationPtr GetConfiguration() const override;
  [[nodiscard]] gemini::ConfigId latest_id() const override;
  void OnDirtyListProcessed(gemini::FragmentId fragment) override;
  void OnWorkingSetTransferTerminated(gemini::FragmentId fragment) override;
  void OnDirtyListUnavailable(gemini::FragmentId fragment) override;
  [[nodiscard]] bool DirtyProcessed(gemini::FragmentId fragment) const override;

 private:
  gemini::CoordinatorService* inner_;
  Tracer* tracer_;
};

}  // namespace geminibench
