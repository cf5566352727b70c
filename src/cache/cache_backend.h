// CacheBackend: the per-key cache surface GeminiClient (and the recovery
// machinery) program against.
//
// Two implementations exist:
//  - CacheInstance (src/cache/cache_instance.h): the in-process cache used by
//    the discrete-event harness and the unit tests.
//  - TcpCacheBackend (src/transport/tcp_backend.h): a socket client that
//    speaks the geminid wire protocol (docs/PROTOCOL.md §10) to a remote
//    cache process.
//
// The split keeps the protocol library deployment-agnostic: the client
// routes, leases, retries, and bills sessions identically whether the
// "instance" is a pointer or a TCP connection. Methods mirror the IQ /
// Redlease vocabulary of Sections 2.3 and 3 of the paper; see
// cache_instance.h for per-operation semantics.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"

namespace gemini {

/// A cached value. `data` carries the payload; `charged_bytes` is the size
/// the entry is billed at for memory accounting, which lets the simulator
/// model, e.g., 329-byte Facebook values without materializing them
/// (charged_bytes >= data.size() always holds for real payloads).
/// `version` is the data store version the value was computed from — consumed
/// only by the consistency checker, never by the protocol itself.
struct CacheValue {
  std::string data;
  uint32_t charged_bytes = 0;
  Version version = 0;

  static CacheValue OfData(std::string d, Version v = 0) {
    CacheValue value;
    value.charged_bytes = static_cast<uint32_t>(d.size());
    value.data = std::move(d);
    value.version = v;
    return value;
  }
  static CacheValue OfSize(uint32_t bytes, Version v = 0) {
    CacheValue value;
    value.charged_bytes = bytes;
    value.version = v;
    return value;
  }
};

/// Per-operation context. `config_id` is the caller's configuration id
/// (kInternalConfigId for coordinator/recovery-internal operations, which
/// bypass the staleness check); `fragment` scopes entry validation, or
/// kInvalidFragment for Gemini-internal keys (dirty lists, the configuration
/// entry) which are not fragment-scoped.
struct OpContext {
  ConfigId config_id = 0;
  FragmentId fragment = kInvalidFragment;
};

inline constexpr ConfigId kInternalConfigId =
    std::numeric_limits<ConfigId>::max();

/// One request of a MultiGet or MultiIqGet batch. The context travels per
/// key because a batch may span fragments, and each key validates against
/// its own fragment's lease and Rejig stamp.
struct GetRequest {
  OpContext ctx;
  std::string key;
};

/// One write of a MultiSet batch (same per-key context rationale as
/// GetRequest).
struct SetRequest {
  OpContext ctx;
  std::string key;
  CacheValue value;
};

/// One delete of a MultiDelete batch.
struct DeleteRequest {
  OpContext ctx;
  std::string key;
};

/// One hot key surfaced by a working-set scan page (Section 3.2.2). Only
/// metadata travels: the recovery worker fetches the value separately with
/// MultiGet, so a scan page stays small no matter how large the values are.
struct WorkingSetItem {
  std::string key;
  /// The entry's accounting size on the scanned instance — lets the worker
  /// throttle the transfer by bytes before fetching a single value.
  uint32_t charged_bytes = 0;
};

/// One page of a working-set scan. Items within a page — and pages within a
/// scan — come hottest-first (approximate: priority bands over per-stripe
/// LRU order). `next_cursor` resumes the scan; 0 means the scan is done.
struct WorkingSetPage {
  std::vector<WorkingSetItem> items;
  uint64_t next_cursor = 0;
};

/// Result of iqget: either a hit (value set) or a miss. On a miss the
/// instance attempted to grant an I lease; `i_token` is kNoLease if another
/// session holds an incompatible lease (caller backs off — surfaced as
/// Code::kBackoff instead, so this struct always has a token on miss).
struct IqGetResult {
  std::optional<CacheValue> value;
  LeaseToken i_token = kNoLease;
};

class CacheBackend {
 public:
  virtual ~CacheBackend() = default;

  /// The InstanceId of the cache this backend fronts.
  [[nodiscard]] virtual InstanceId id() const = 0;

  // ---- Data path (Section 2.3 / Algorithms 1-3) ---------------------------

  /// Plain get, no lease on miss.
  virtual Result<CacheValue> Get(const OpContext& ctx,
                                 std::string_view key) = 0;

  /// Batched plain get; results align with `reqs` by index, each the exact
  /// outcome Get() would have produced. The base implementation loops;
  /// transports that can pipeline (TcpCacheBackend) override it to issue
  /// the whole batch as one in-flight burst, turning N round trips into
  /// roughly one.
  virtual std::vector<Result<CacheValue>> MultiGet(
      const std::vector<GetRequest>& reqs) {
    std::vector<Result<CacheValue>> out;
    out.reserve(reqs.size());
    for (const auto& req : reqs) out.push_back(Get(req.ctx, req.key));
    return out;
  }

  /// Get; on miss, atomically acquire an I lease (or kBackoff).
  virtual Result<IqGetResult> IqGet(const OpContext& ctx,
                                    std::string_view key) = 0;

  /// Batched lease read; results align with `reqs` by index, each the exact
  /// outcome IqGet() would have produced had the requests run one after
  /// another (so a key that appears twice misses with a token once, then
  /// backs off). Every miss holds an I lease the caller must end — IqSet,
  /// IDelete or PostFill — before it lapses (i_lease_lifetime), so callers
  /// size bursts by how fast they can fill them. The base implementation
  /// loops; TcpCacheBackend overrides it to issue the whole batch as one
  /// in-flight burst. There is no retry: IqGet grants leases, so a replayed
  /// slot could hand out a second token, and a slot lost to a connection
  /// drop fails kUnavailable for the caller to re-run.
  virtual std::vector<Result<IqGetResult>> MultiIqGet(
      const std::vector<GetRequest>& reqs) {
    std::vector<Result<IqGetResult>> out;
    out.reserve(reqs.size());
    for (const auto& req : reqs) out.push_back(IqGet(req.ctx, req.key));
    return out;
  }

  /// Insert if the I lease `token` is still valid, then release it.
  virtual Status IqSet(const OpContext& ctx, std::string_view key,
                       CacheValue value, LeaseToken token) = 0;

  /// Ends a read miss's I lease without waiting for the verdict: with a
  /// `value` it is IqSet, without one it is IDelete (the store had no
  /// record). The server's I-lease check alone decides whether a fill lands
  /// (Lemma 2, Case II), so a caller that would discard the status posts
  /// instead. Ops on one connection apply in submission order, so the post
  /// lands before any later op of the same caller. The default runs the
  /// synchronous op; TcpCacheBackend sends the frame and returns.
  virtual void PostFill(const OpContext& ctx, std::string_view key,
                        LeaseToken token, std::optional<CacheValue> value) {
    if (value.has_value()) {
      (void)IqSet(ctx, key, std::move(*value), token);
    } else {
      (void)IDelete(ctx, key, token);
    }
  }

  /// Acquire a Q lease (write path); voids any I lease.
  virtual Result<LeaseToken> Qareg(const OpContext& ctx,
                                   std::string_view key) = 0;

  /// Delete-and-release (write-around commit); voids any I lease. Callers
  /// wait for the reply: the write is acknowledged only once it applied.
  virtual Status Dar(const OpContext& ctx, std::string_view key,
                     LeaseToken token) = 0;

  /// Replace-and-release (write-through commit).
  virtual Status Rar(const OpContext& ctx, std::string_view key,
                     CacheValue value, LeaseToken token) = 0;

  /// Delete the entry and acquire an I lease in one step.
  virtual Result<LeaseToken> ISet(const OpContext& ctx,
                                  std::string_view key) = 0;

  /// Delete the entry and release the I lease.
  virtual Status IDelete(const OpContext& ctx, std::string_view key,
                         LeaseToken token) = 0;

  /// Unconditional delete with no leases.
  virtual Status Delete(const OpContext& ctx, std::string_view key) = 0;

  /// Unconditional insert with no leases.
  virtual Status Set(const OpContext& ctx, std::string_view key,
                     CacheValue value) = 0;

  /// Batched unconditional insert; statuses align with `reqs` by index, each
  /// the exact outcome Set() would have produced. The base implementation
  /// loops; TcpCacheBackend overrides it to ship the whole batch as ONE
  /// kMultiSet frame with per-key status slots (PROTOCOL.md §10.3). Unlike
  /// MultiGet the batch is NOT retry-safe: on transport loss every slot
  /// fails kUnavailable and the caller decides what to re-run.
  virtual std::vector<Status> MultiSet(std::vector<SetRequest> reqs) {
    std::vector<Status> out;
    out.reserve(reqs.size());
    for (auto& req : reqs) {
      out.push_back(Set(req.ctx, req.key, std::move(req.value)));
    }
    return out;
  }

  /// Batched unconditional delete, mirroring MultiSet (one kMultiDelete
  /// frame over TCP; fail-fast, never retried).
  virtual std::vector<Status> MultiDelete(
      const std::vector<DeleteRequest>& reqs) {
    std::vector<Status> out;
    out.reserve(reqs.size());
    for (const auto& req : reqs) out.push_back(Delete(req.ctx, req.key));
    return out;
  }

  /// Compare-and-swap: replace the entry iff its current version equals
  /// `expected`. kNotFound when absent, kLeaseInvalid on version mismatch.
  virtual Status Cas(const OpContext& ctx, std::string_view key,
                     Version expected, CacheValue value) = 0;

  /// Write-back install: buffer the value under the Q lease, pin the entry.
  virtual Status WriteBackInstall(const OpContext& ctx, std::string_view key,
                                  CacheValue value, LeaseToken token) = 0;

  /// Appends bytes to an entry's payload, creating the entry if absent
  /// (dirty-list append semantics).
  virtual Status Append(const OpContext& ctx, std::string_view key,
                        std::string_view data) = 0;

  // ---- Working-set enumeration (recovery workers, Section 3.2.2) ----------

  /// Enumerates the hot keys this backend holds for fragment `ctx.fragment`,
  /// hottest first, one bounded page per call. `num_fragments` is the
  /// cluster's fragment count (the backend routes keys by
  /// Fnv1a64(key) % num_fragments); `cursor` is 0 to start or the previous
  /// page's next_cursor to resume. Gemini-internal keys (dirty lists, the
  /// configuration entry) are never surfaced. The default refuses: only
  /// CacheInstance (native stripe walk) and TcpCacheBackend (kWorkingSetScan
  /// wire op) enumerate working sets.
  virtual Result<WorkingSetPage> WorkingSetScan(const OpContext& ctx,
                                                uint32_t num_fragments,
                                                uint64_t cursor,
                                                uint32_t max_keys) {
    (void)ctx;
    (void)num_fragments;
    (void)cursor;
    (void)max_keys;
    return Status(Code::kInvalidArgument,
                  "backend does not support working-set scans");
  }

  // ---- Redlease (recovery workers, Section 2.3) ---------------------------

  virtual Result<LeaseToken> AcquireRed(std::string_view key) = 0;
  virtual Status ReleaseRed(std::string_view key, LeaseToken token) = 0;
  /// Extends a held Redlease; kLeaseInvalid if it lapsed.
  virtual Status RenewRed(std::string_view key, LeaseToken token) = 0;
};

}  // namespace gemini
