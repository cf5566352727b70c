#include "geminibench/trace.h"

#include <chrono>
#include <cstdio>

namespace geminibench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <typename T>
gemini::Code CodeOf(const gemini::Result<T>& r) {
  return r.code();
}
gemini::Code CodeOf(const gemini::Status& s) { return s.code(); }

// One span around `call()`, tagged with the reply code.
template <typename Fn>
auto Traced(Tracer* tracer, const char* name, Fn&& call) {
  ScopedSpan span(tracer, name);
  auto result = call();
  span.set_code(CodeOf(result));
  return result;
}

}  // namespace

struct Tracer::ThreadLog {
  uint64_t thread = 0;
  uint64_t next_seq = 1;
  std::vector<Span> spans;
  std::vector<size_t> open;  // slots of the spans still open, innermost last
};

Tracer::Tracer() : epoch_ns_(NowNs()) {}
Tracer::~Tracer() = default;

Tracer::ThreadLog* Tracer::Local() {
  struct Slot {
    const Tracer* owner = nullptr;
    ThreadLog* log = nullptr;
  };
  thread_local Slot slot;
  if (slot.owner != this) {
    auto log = std::make_unique<ThreadLog>();
    log->thread = next_thread_.fetch_add(1, std::memory_order_relaxed);
    log->spans.reserve(1 << 16);
    slot = {this, log.get()};
    std::lock_guard<std::mutex> lock(mu_);
    logs_.push_back(std::move(log));
  }
  return slot.log;
}

int64_t Tracer::Begin(const char* name) {
  if (!enabled()) return -1;
  ThreadLog* log = Local();
  Span s;
  s.name = name;
  s.start_ns = NowNs() - epoch_ns_;
  s.id = (log->thread << 40) | log->next_seq++;
  if (log->open.empty()) {
    s.op = s.id;
  } else {
    const Span& parent = log->spans[log->open.back()];
    s.parent = parent.id;
    s.op = parent.op;
  }
  log->spans.push_back(s);
  log->open.push_back(log->spans.size() - 1);
  return static_cast<int64_t>(log->spans.size() - 1);
}

void Tracer::End(int64_t slot, gemini::Code code) {
  ThreadLog* log = Local();
  Span& s = log->spans[static_cast<size_t>(slot)];
  s.end_ns = NowNs() - epoch_ns_;
  s.code = code;
  if (!log->open.empty()) log->open.pop_back();
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const auto& log : logs_) {
    out.insert(out.end(), log->spans.begin(), log->spans.end());
  }
  return out;
}

bool Tracer::WriteCsv(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,start_ns,end_ns,id,parent,op,code\n");
  for (const Span& s : spans) {
    const std::string_view code = gemini::CodeName(s.code);
    std::fprintf(f, "%s,%lld,%lld,%llu,%llu,%llu,%.*s\n", s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op),
                 static_cast<int>(code.size()), code.data());
  }
  return std::fclose(f) == 0;
}

// ---- TracedBackend ----------------------------------------------------------

using gemini::CacheValue;
using gemini::LeaseToken;
using gemini::OpContext;
using gemini::Result;
using gemini::Status;

Result<CacheValue> TracedBackend::Get(const OpContext& ctx,
                                      std::string_view key) {
  return Traced(tracer_, "transport.get", [&] { return inner_->Get(ctx, key); });
}

std::vector<Result<CacheValue>> TracedBackend::MultiGet(
    const std::vector<gemini::GetRequest>& reqs) {
  ScopedSpan span(tracer_, "transport.multiget");
  return inner_->MultiGet(reqs);
}

Result<gemini::IqGetResult> TracedBackend::IqGet(const OpContext& ctx,
                                                 std::string_view key) {
  return Traced(tracer_, "transport.iqget",
                [&] { return inner_->IqGet(ctx, key); });
}

Status TracedBackend::IqSet(const OpContext& ctx, std::string_view key,
                            CacheValue value, LeaseToken token) {
  return Traced(tracer_, "transport.iqset", [&] {
    return inner_->IqSet(ctx, key, std::move(value), token);
  });
}

Result<LeaseToken> TracedBackend::Qareg(const OpContext& ctx,
                                        std::string_view key) {
  return Traced(tracer_, "transport.qareg",
                [&] { return inner_->Qareg(ctx, key); });
}

Status TracedBackend::Dar(const OpContext& ctx, std::string_view key,
                          LeaseToken token) {
  return Traced(tracer_, "transport.dar",
                [&] { return inner_->Dar(ctx, key, token); });
}

Status TracedBackend::Rar(const OpContext& ctx, std::string_view key,
                          CacheValue value, LeaseToken token) {
  return Traced(tracer_, "transport.rar", [&] {
    return inner_->Rar(ctx, key, std::move(value), token);
  });
}

Result<LeaseToken> TracedBackend::ISet(const OpContext& ctx,
                                       std::string_view key) {
  return Traced(tracer_, "transport.iset",
                [&] { return inner_->ISet(ctx, key); });
}

Status TracedBackend::IDelete(const OpContext& ctx, std::string_view key,
                              LeaseToken token) {
  return Traced(tracer_, "transport.idelete",
                [&] { return inner_->IDelete(ctx, key, token); });
}

Status TracedBackend::Delete(const OpContext& ctx, std::string_view key) {
  return Traced(tracer_, "transport.delete",
                [&] { return inner_->Delete(ctx, key); });
}

Status TracedBackend::Set(const OpContext& ctx, std::string_view key,
                          CacheValue value) {
  return Traced(tracer_, "transport.set",
                [&] { return inner_->Set(ctx, key, std::move(value)); });
}

std::vector<Status> TracedBackend::MultiSet(
    std::vector<gemini::SetRequest> reqs) {
  ScopedSpan span(tracer_, "transport.multiset");
  return inner_->MultiSet(std::move(reqs));
}

std::vector<Status> TracedBackend::MultiDelete(
    const std::vector<gemini::DeleteRequest>& reqs) {
  ScopedSpan span(tracer_, "transport.multidelete");
  return inner_->MultiDelete(reqs);
}

Status TracedBackend::Cas(const OpContext& ctx, std::string_view key,
                          gemini::Version expected, CacheValue value) {
  return Traced(tracer_, "transport.cas", [&] {
    return inner_->Cas(ctx, key, expected, std::move(value));
  });
}

Status TracedBackend::WriteBackInstall(const OpContext& ctx,
                                       std::string_view key, CacheValue value,
                                       LeaseToken token) {
  return Traced(tracer_, "transport.writeback_install", [&] {
    return inner_->WriteBackInstall(ctx, key, std::move(value), token);
  });
}

Status TracedBackend::Append(const OpContext& ctx, std::string_view key,
                             std::string_view data) {
  return Traced(tracer_, "transport.append",
                [&] { return inner_->Append(ctx, key, data); });
}

Result<gemini::WorkingSetPage> TracedBackend::WorkingSetScan(
    const OpContext& ctx, uint32_t num_fragments, uint64_t cursor,
    uint32_t max_keys) {
  return Traced(tracer_, "transport.ws_scan", [&] {
    return inner_->WorkingSetScan(ctx, num_fragments, cursor, max_keys);
  });
}

Result<LeaseToken> TracedBackend::AcquireRed(std::string_view key) {
  return Traced(tracer_, "transport.acquire_red",
                [&] { return inner_->AcquireRed(key); });
}

Status TracedBackend::ReleaseRed(std::string_view key, LeaseToken token) {
  return Traced(tracer_, "transport.release_red",
                [&] { return inner_->ReleaseRed(key, token); });
}

Status TracedBackend::RenewRed(std::string_view key, LeaseToken token) {
  return Traced(tracer_, "transport.renew_red",
                [&] { return inner_->RenewRed(key, token); });
}

// ---- TracedCoordinator ------------------------------------------------------

gemini::ConfigurationPtr TracedCoordinator::GetConfiguration() const {
  ScopedSpan span(tracer_, "coord.get_config");
  return inner_->GetConfiguration();
}

gemini::ConfigId TracedCoordinator::latest_id() const {
  // A local atomic load that GeminiClient makes before every operation
  // (follow_config_pushes); a span per call would double the span count
  // and time nothing.
  return inner_->latest_id();
}

void TracedCoordinator::OnDirtyListProcessed(gemini::FragmentId fragment) {
  ScopedSpan span(tracer_, "coord.report_dirty_processed");
  inner_->OnDirtyListProcessed(fragment);
}

void TracedCoordinator::OnWorkingSetTransferTerminated(
    gemini::FragmentId fragment) {
  ScopedSpan span(tracer_, "coord.report_wst_terminated");
  inner_->OnWorkingSetTransferTerminated(fragment);
}

void TracedCoordinator::OnDirtyListUnavailable(gemini::FragmentId fragment) {
  ScopedSpan span(tracer_, "coord.report_dirty_unavailable");
  inner_->OnDirtyListUnavailable(fragment);
}

bool TracedCoordinator::DirtyProcessed(gemini::FragmentId fragment) const {
  ScopedSpan span(tracer_, "coord.dirty_query");
  return inner_->DirtyProcessed(fragment);
}

}  // namespace geminibench
