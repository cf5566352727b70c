#include "src/transport/tcp_backend.h"

#include <thread>

#include "src/common/hash.h"

namespace gemini {

TcpCacheBackend::TcpCacheBackend(std::string host, uint16_t port,
                                 InstanceId target_instance, Options options)
    : conn_(TcpConnection::Acquire(host, port, target_instance, options)) {}

TcpCacheBackend::~TcpCacheBackend() = default;

bool TcpCacheBackend::connected() const { return conn_->connected(); }

InstanceId TcpCacheBackend::id() const { return conn_->remote_id(); }

TcpConnection::BreakerState TcpCacheBackend::breaker_state() const {
  return conn_->breaker_state();
}

const TcpCacheBackend::Options& TcpCacheBackend::options() const {
  return conn_->options();
}

Status TcpCacheBackend::Connect() { return conn_->Connect(); }

void TcpCacheBackend::Disconnect() { conn_->Disconnect(); }

Status TcpCacheBackend::Transact(wire::Op op, std::string_view body,
                                 std::string* resp_body) {
  return conn_->Transact(op, body, resp_body);
}

// ---- Op wrappers ------------------------------------------------------------

namespace {

/// Shared guard-rail: keys above the wire limit never leave the client.
Status CheckKey(std::string_view key) {
  if (key.size() > wire::kMaxKeyLen) {
    return Status(Code::kInvalidArgument, "key exceeds wire limit");
  }
  return Status::Ok();
}

/// Requests that carry `ctx | key` and nothing else.
std::string CtxKeyBody(const OpContext& ctx, std::string_view key) {
  std::string body;
  wire::PutContext(body, ctx);
  wire::PutKey(body, key);
  return body;
}

/// Requests that carry `ctx | key | token`, the prefix of every op that
/// presents a lease.
std::string CtxKeyTokenBody(const OpContext& ctx, std::string_view key,
                            LeaseToken token) {
  std::string body = CtxKeyBody(ctx, key);
  wire::PutU64(body, token);
  return body;
}

/// GET response: `value`.
Result<CacheValue> DecodeGet(std::string_view resp) {
  wire::Reader r(resp);
  CacheValue value;
  if (!r.GetValue(&value) || !r.Done()) {
    return Status(Code::kInternal, "malformed GET response");
  }
  return value;
}

/// IQGET response: `u8 hit | [value] | u64 i_token`.
Result<IqGetResult> DecodeIqGet(std::string_view resp) {
  wire::Reader r(resp);
  uint8_t hit = 0;
  IqGetResult out;
  if (!r.GetU8(&hit)) return Status(Code::kInternal, "malformed IQGET");
  if (hit != 0) {
    CacheValue value;
    if (!r.GetValue(&value)) return Status(Code::kInternal, "malformed IQGET");
    out.value = std::move(value);
  }
  uint64_t token = 0;
  if (!r.GetU64(&token) || !r.Done()) {
    return Status(Code::kInternal, "malformed IQGET");
  }
  out.i_token = token;
  return out;
}

/// One pipelined burst of `ctx | key` requests and its per-slot results.
template <typename T>
struct Burst {
  std::vector<Result<T>> out;  // one slot per request
  std::vector<TcpConnection::BatchRequest> batch;  // the shipped requests
  std::vector<size_t> slot_of;  // out index of each shipped request
};

/// Settles one burst slot: the reply's error, or its decoded body.
template <typename T>
void FillSlot(Result<T>& slot, TcpConnection::BatchResponse& resp,
              Result<T> (*decode)(std::string_view)) {
  if (resp.status.ok()) {
    slot = decode(resp.body);
  } else {
    slot = std::move(resp.status);
  }
}

/// Ships `reqs` as `op` frames in one TransactBatch burst and decodes every
/// reply into its slot.
template <typename T>
Burst<T> SendBurst(TcpConnection& conn, wire::Op op,
                   const std::vector<GetRequest>& reqs,
                   Result<T> (*decode)(std::string_view)) {
  Burst<T> b;
  b.out.reserve(reqs.size());
  b.batch.reserve(reqs.size());
  for (const auto& req : reqs) {
    if (Status s = CheckKey(req.key); !s.ok()) {
      // Oversized keys never leave the client; their slots fail locally and
      // the rest of the batch still ships.
      b.out.push_back(std::move(s));
      continue;
    }
    b.out.push_back(Status(Code::kInternal, "no response"));
    b.slot_of.push_back(b.out.size() - 1);
    b.batch.push_back({op, CtxKeyBody(req.ctx, req.key)});
  }
  std::vector<TcpConnection::BatchResponse> resps = conn.TransactBatch(b.batch);
  for (size_t i = 0; i < resps.size(); ++i) {
    FillSlot(b.out[b.slot_of[i]], resps[i], decode);
  }
  return b;
}

}  // namespace

Result<CacheValue> TcpCacheBackend::Get(const OpContext& ctx,
                                        std::string_view key) {
  if (Status s = CheckKey(key); !s.ok()) return s;
  std::string resp;
  if (Status s = Transact(wire::Op::kGet, CtxKeyBody(ctx, key), &resp);
      !s.ok()) {
    return s;
  }
  return DecodeGet(resp);
}

std::vector<Result<CacheValue>> TcpCacheBackend::MultiGet(
    const std::vector<GetRequest>& reqs) {
  const RetryPolicy& policy = options().retry;
  const Timestamp start = SystemClock::Global().Now();
  Burst<CacheValue> b = SendBurst(*conn_, wire::Op::kGet, reqs, &DecodeGet);

  // Gets are idempotent, so kUnavailable slots (a connection drop failed
  // part or all of the burst) are re-batched together and retried under the
  // same attempt/backoff/deadline budget a single Get would get.
  for (int attempt = 2; attempt <= policy.max_attempts; ++attempt) {
    std::vector<size_t> failed;  // indices into batch/slot_of
    for (size_t i = 0; i < b.batch.size(); ++i) {
      const Result<CacheValue>& slot = b.out[b.slot_of[i]];
      if (!slot.ok() && slot.status().code() == Code::kUnavailable) {
        failed.push_back(i);
      }
    }
    if (failed.empty()) break;
    const Duration elapsed = SystemClock::Global().Now() - start;
    const Duration sleep = TcpConnection::BackoffBeforeAttempt(
        policy, attempt, elapsed, Fnv1a64("multiget") ^ failed.size());
    if (sleep < 0) break;  // deadline budget exhausted
    if (sleep > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(sleep));
    }
    std::vector<TcpConnection::BatchRequest> retry_batch;
    retry_batch.reserve(failed.size());
    for (size_t i : failed) retry_batch.push_back(b.batch[i]);
    std::vector<TcpConnection::BatchResponse> retry_resps =
        conn_->TransactBatch(retry_batch);
    for (size_t j = 0; j < retry_resps.size(); ++j) {
      FillSlot(b.out[b.slot_of[failed[j]]], retry_resps[j], &DecodeGet);
    }
  }
  return std::move(b.out);
}

Result<IqGetResult> TcpCacheBackend::IqGet(const OpContext& ctx,
                                           std::string_view key) {
  if (Status s = CheckKey(key); !s.ok()) return s;
  std::string resp;
  if (Status s = Transact(wire::Op::kIqGet, CtxKeyBody(ctx, key), &resp);
      !s.ok()) {
    return s;
  }
  return DecodeIqGet(resp);
}

std::vector<Result<IqGetResult>> TcpCacheBackend::MultiIqGet(
    const std::vector<GetRequest>& reqs) {
  // One burst and no retry pass: a replayed IQGET could grant a second I
  // lease, so a slot the connection dropped stays kUnavailable.
  return SendBurst(*conn_, wire::Op::kIqGet, reqs, &DecodeIqGet).out;
}

Status TcpCacheBackend::IqSet(const OpContext& ctx, std::string_view key,
                              CacheValue value, LeaseToken token) {
  if (Status s = CheckKey(key); !s.ok()) return s;
  std::string body = CtxKeyTokenBody(ctx, key, token);
  wire::PutValue(body, value);
  std::string resp;
  return Transact(wire::Op::kIqSet, body, &resp);
}

void TcpCacheBackend::PostFill(const OpContext& ctx, std::string_view key,
                               LeaseToken token,
                               std::optional<CacheValue> value) {
  // An oversized key never got an I lease; there is nothing to end.
  if (!CheckKey(key).ok()) return;
  std::string body = CtxKeyTokenBody(ctx, key, token);
  if (value.has_value()) wire::PutValue(body, *value);
  // The completion captures nothing, so it outlives this backend safely: a
  // lost frame only leaves the I lease to lapse, and the server's lease
  // check settles the fill either way.
  conn_->SubmitAsync(value.has_value() ? wire::Op::kIqSet : wire::Op::kIDelete,
                     body, [](Status, std::string) {});
}

Result<LeaseToken> TcpCacheBackend::Qareg(const OpContext& ctx,
                                          std::string_view key) {
  if (Status s = CheckKey(key); !s.ok()) return s;
  std::string resp;
  if (Status s = Transact(wire::Op::kQareg, CtxKeyBody(ctx, key), &resp);
      !s.ok()) {
    return s;
  }
  wire::Reader r(resp);
  uint64_t token = 0;
  if (!r.GetU64(&token) || !r.Done()) {
    return Status(Code::kInternal, "malformed QAREG response");
  }
  return static_cast<LeaseToken>(token);
}

Status TcpCacheBackend::Dar(const OpContext& ctx, std::string_view key,
                            LeaseToken token) {
  if (Status s = CheckKey(key); !s.ok()) return s;
  std::string body = CtxKeyTokenBody(ctx, key, token);
  std::string resp;
  return Transact(wire::Op::kDar, body, &resp);
}

Status TcpCacheBackend::Rar(const OpContext& ctx, std::string_view key,
                            CacheValue value, LeaseToken token) {
  if (Status s = CheckKey(key); !s.ok()) return s;
  std::string body = CtxKeyTokenBody(ctx, key, token);
  wire::PutValue(body, value);
  std::string resp;
  return Transact(wire::Op::kRar, body, &resp);
}

Result<LeaseToken> TcpCacheBackend::ISet(const OpContext& ctx,
                                         std::string_view key) {
  if (Status s = CheckKey(key); !s.ok()) return s;
  std::string resp;
  if (Status s = Transact(wire::Op::kISet, CtxKeyBody(ctx, key), &resp);
      !s.ok()) {
    return s;
  }
  wire::Reader r(resp);
  uint64_t token = 0;
  if (!r.GetU64(&token) || !r.Done()) {
    return Status(Code::kInternal, "malformed ISET response");
  }
  return static_cast<LeaseToken>(token);
}

Status TcpCacheBackend::IDelete(const OpContext& ctx, std::string_view key,
                                LeaseToken token) {
  if (Status s = CheckKey(key); !s.ok()) return s;
  std::string body = CtxKeyTokenBody(ctx, key, token);
  std::string resp;
  return Transact(wire::Op::kIDelete, body, &resp);
}

Status TcpCacheBackend::Delete(const OpContext& ctx, std::string_view key) {
  if (Status s = CheckKey(key); !s.ok()) return s;
  std::string resp;
  return Transact(wire::Op::kDelete, CtxKeyBody(ctx, key), &resp);
}

Status TcpCacheBackend::Set(const OpContext& ctx, std::string_view key,
                            CacheValue value) {
  if (Status s = CheckKey(key); !s.ok()) return s;
  std::string body;
  wire::PutContext(body, ctx);
  wire::PutKey(body, key);
  wire::PutValue(body, value);
  std::string resp;
  return Transact(wire::Op::kSet, body, &resp);
}

namespace {

/// Decodes a bulk response (`u32 count | count * u8 code`) into the `out`
/// slots named by `slot_of`. Any shape mismatch fails every shipped slot
/// kInternal — a server that answered kOk but miscounted is a protocol bug,
/// not a partial success.
void FillBulkSlots(std::string_view resp, const std::vector<size_t>& slot_of,
                   std::vector<Status>& out) {
  wire::Reader r(resp);
  uint32_t got = 0;
  const bool shape_ok =
      r.GetU32(&got) && got == slot_of.size() && r.remaining() == got;
  if (!shape_ok) {
    for (size_t i : slot_of) {
      out[i] = Status(Code::kInternal, "malformed bulk response");
    }
    return;
  }
  for (size_t i : slot_of) {
    uint8_t code = 0;
    r.GetU8(&code);
    const Code c = wire::CodeFromWire(code);
    out[i] = c == Code::kOk ? Status::Ok() : Status(c, "bulk slot failed");
  }
}

}  // namespace

std::vector<Status> TcpCacheBackend::MultiSet(std::vector<SetRequest> reqs) {
  std::vector<Status> out(reqs.size(), Status::Ok());
  std::string body;
  std::vector<size_t> slot_of;  // out index of each shipped entry
  std::string entries;
  for (size_t i = 0; i < reqs.size(); ++i) {
    if (Status s = CheckKey(reqs[i].key); !s.ok()) {
      // Oversized keys never leave the client; their slots fail locally and
      // the rest of the batch still ships (mirrors MultiGet).
      out[i] = std::move(s);
      continue;
    }
    slot_of.push_back(i);
    wire::PutContext(entries, reqs[i].ctx);
    wire::PutKey(entries, reqs[i].key);
    wire::PutValue(entries, reqs[i].value);
  }
  if (slot_of.empty()) return out;
  wire::PutU32(body, static_cast<uint32_t>(slot_of.size()));
  body += entries;
  if (1 + body.size() > wire::kMaxFrameLen) {
    for (size_t i : slot_of) {
      out[i] = Status(Code::kInvalidArgument, "batch exceeds frame limit");
    }
    return out;
  }
  // ONE frame, one response. The batch is non-idempotent (a replay would
  // re-apply N writes), so Transact's retry loop — gated on IsIdempotentOp —
  // never re-sends it: transport loss fails every shipped slot fast.
  std::string resp;
  if (Status s = Transact(wire::Op::kMultiSet, body, &resp); !s.ok()) {
    for (size_t i : slot_of) out[i] = s;
    return out;
  }
  FillBulkSlots(resp, slot_of, out);
  return out;
}

std::vector<Status> TcpCacheBackend::MultiDelete(
    const std::vector<DeleteRequest>& reqs) {
  std::vector<Status> out(reqs.size(), Status::Ok());
  std::string body;
  std::vector<size_t> slot_of;
  std::string entries;
  for (size_t i = 0; i < reqs.size(); ++i) {
    if (Status s = CheckKey(reqs[i].key); !s.ok()) {
      out[i] = std::move(s);
      continue;
    }
    slot_of.push_back(i);
    wire::PutContext(entries, reqs[i].ctx);
    wire::PutKey(entries, reqs[i].key);
  }
  if (slot_of.empty()) return out;
  wire::PutU32(body, static_cast<uint32_t>(slot_of.size()));
  body += entries;
  if (1 + body.size() > wire::kMaxFrameLen) {
    for (size_t i : slot_of) {
      out[i] = Status(Code::kInvalidArgument, "batch exceeds frame limit");
    }
    return out;
  }
  std::string resp;
  if (Status s = Transact(wire::Op::kMultiDelete, body, &resp); !s.ok()) {
    for (size_t i : slot_of) out[i] = s;
    return out;
  }
  FillBulkSlots(resp, slot_of, out);
  return out;
}

Status TcpCacheBackend::Cas(const OpContext& ctx, std::string_view key,
                            Version expected, CacheValue value) {
  if (Status s = CheckKey(key); !s.ok()) return s;
  std::string body;
  wire::PutContext(body, ctx);
  wire::PutKey(body, key);
  wire::PutU64(body, expected);
  wire::PutValue(body, value);
  std::string resp;
  return Transact(wire::Op::kCas, body, &resp);
}

Status TcpCacheBackend::WriteBackInstall(const OpContext& ctx,
                                         std::string_view key,
                                         CacheValue value, LeaseToken token) {
  if (Status s = CheckKey(key); !s.ok()) return s;
  std::string body = CtxKeyTokenBody(ctx, key, token);
  wire::PutValue(body, value);
  std::string resp;
  return Transact(wire::Op::kWriteBackInstall, body, &resp);
}

Status TcpCacheBackend::Append(const OpContext& ctx, std::string_view key,
                               std::string_view data) {
  if (Status s = CheckKey(key); !s.ok()) return s;
  std::string body;
  wire::PutContext(body, ctx);
  wire::PutKey(body, key);
  wire::PutBlob(body, data);
  std::string resp;
  return Transact(wire::Op::kAppend, body, &resp);
}

Result<LeaseToken> TcpCacheBackend::AcquireRed(std::string_view key) {
  if (Status s = CheckKey(key); !s.ok()) return s;
  std::string body;
  wire::PutKey(body, key);
  std::string resp;
  if (Status s = Transact(wire::Op::kRedAcquire, body, &resp); !s.ok()) {
    return s;
  }
  wire::Reader r(resp);
  uint64_t token = 0;
  if (!r.GetU64(&token) || !r.Done()) {
    return Status(Code::kInternal, "malformed RED response");
  }
  return static_cast<LeaseToken>(token);
}

Status TcpCacheBackend::ReleaseRed(std::string_view key, LeaseToken token) {
  if (Status s = CheckKey(key); !s.ok()) return s;
  std::string body;
  wire::PutKey(body, key);
  wire::PutU64(body, token);
  std::string resp;
  return Transact(wire::Op::kRedRelease, body, &resp);
}

Status TcpCacheBackend::RenewRed(std::string_view key, LeaseToken token) {
  if (Status s = CheckKey(key); !s.ok()) return s;
  std::string body;
  wire::PutKey(body, key);
  wire::PutU64(body, token);
  std::string resp;
  return Transact(wire::Op::kRedRenew, body, &resp);
}

Result<WorkingSetPage> TcpCacheBackend::WorkingSetScan(const OpContext& ctx,
                                                       uint32_t num_fragments,
                                                       uint64_t cursor,
                                                       uint32_t max_keys) {
  std::string body;
  wire::PutContext(body, ctx);
  wire::PutU32(body, num_fragments);
  wire::PutU64(body, cursor);
  wire::PutU32(body, max_keys);
  std::string resp;
  if (Status s = Transact(wire::Op::kWorkingSetScan, body, &resp); !s.ok()) {
    return s;
  }
  wire::Reader r(resp);
  WorkingSetPage page;
  uint32_t count = 0;
  if (!r.GetU64(&page.next_cursor) || !r.GetU32(&count) ||
      static_cast<uint64_t>(count) * 6 > r.remaining()) {
    // Each item is >= 6 wire bytes (key len 2 | charged 4).
    return Status(Code::kInternal, "malformed WORKING_SET_SCAN response");
  }
  page.items.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string_view key;
    uint32_t charged = 0;
    if (!r.GetKey(&key) || !r.GetU32(&charged)) {
      return Status(Code::kInternal, "malformed WORKING_SET_SCAN response");
    }
    page.items.push_back(WorkingSetItem{std::string(key), charged});
  }
  if (!r.Done()) {
    return Status(Code::kInternal, "malformed WORKING_SET_SCAN response");
  }
  return page;
}

Status TcpCacheBackend::Ping() {
  std::string resp;
  return Transact(wire::Op::kPing, {}, &resp);
}

Result<std::vector<InstanceId>> TcpCacheBackend::ListInstances() {
  return conn_->ListInstances();
}

Result<ConfigId> TcpCacheBackend::RemoteConfigId() {
  std::string resp;
  if (Status s = Transact(wire::Op::kConfigIdGet, {}, &resp); !s.ok()) {
    return s;
  }
  wire::Reader r(resp);
  uint64_t id = 0;
  if (!r.GetU64(&id) || !r.Done()) {
    return Status(Code::kInternal, "malformed CONFIG_ID response");
  }
  return static_cast<ConfigId>(id);
}

Status TcpCacheBackend::BumpConfigId(ConfigId latest) {
  std::string body;
  wire::PutU64(body, latest);
  std::string resp;
  return Transact(wire::Op::kConfigIdBump, body, &resp);
}

Result<CacheValue> TcpCacheBackend::DirtyListGet(ConfigId config_id,
                                                 FragmentId fragment) {
  std::string body;
  wire::PutU64(body, config_id);
  wire::PutU32(body, fragment);
  std::string resp;
  if (Status s = Transact(wire::Op::kDirtyListGet, body, &resp); !s.ok()) {
    return s;
  }
  wire::Reader r(resp);
  CacheValue value;
  if (!r.GetValue(&value) || !r.Done()) {
    return Status(Code::kInternal, "malformed DIRTY_GET response");
  }
  return value;
}

Status TcpCacheBackend::DirtyListAppend(ConfigId config_id,
                                        FragmentId fragment,
                                        std::string_view record) {
  std::string body;
  wire::PutU64(body, config_id);
  wire::PutU32(body, fragment);
  wire::PutBlob(body, record);
  std::string resp;
  return Transact(wire::Op::kDirtyListAppend, body, &resp);
}

Status TcpCacheBackend::TriggerSnapshot(std::string_view path) {
  std::string body;
  wire::PutBlob(body, path);
  std::string resp;
  return Transact(wire::Op::kSnapshot, body, &resp);
}

}  // namespace gemini
