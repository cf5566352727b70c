// TcpCacheBackend: a CacheBackend that fronts a remote geminid over TCP.
//
// A backend names `(endpoint, instance)` — since a geminid can host many
// CacheInstances behind one event loop, the instance id picks which one
// this backend talks to (kAnyInstance = the server's default, which is
// what a single-instance geminid serves). The socket itself lives in a
// shared TcpConnection (src/transport/tcp_connection.h): every backend in
// the process targeting the same (host, port, instance) multiplexes one
// *pipelined* connection — so a GeminiClient, a recovery worker, and a
// flusher pointed at the same instance cost one socket, not three, and
// their requests share the in-flight window instead of waiting on each
// other's round trips.
//
// Every operation is one wire frame and one response frame; connection
// loss maps to kUnavailable — the same code an in-process failed instance
// returns — so GeminiClient's failover machinery (configuration refresh,
// store fall-through, write suspension) drives recovery with no
// transport-specific logic. By default the backend redials transparently
// on the next call after a drop.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/cache/cache_backend.h"
#include "src/common/clock.h"
#include "src/transport/tcp_connection.h"
#include "src/transport/wire.h"

namespace gemini {

class TcpCacheBackend : public CacheBackend {
 public:
  using Options = TcpConnection::Options;

  TcpCacheBackend(std::string host, uint16_t port)
      : TcpCacheBackend(std::move(host), port, wire::kAnyInstance,
                        Options()) {}
  TcpCacheBackend(std::string host, uint16_t port, Options options)
      : TcpCacheBackend(std::move(host), port, wire::kAnyInstance, options) {}
  /// Targets a specific instance on a multi-instance server; the HELLO
  /// handshake fails with kWrongInstance when the server does not host it.
  TcpCacheBackend(std::string host, uint16_t port,
                  InstanceId target_instance, Options options = Options());
  ~TcpCacheBackend() override;

  TcpCacheBackend(const TcpCacheBackend&) = delete;
  TcpCacheBackend& operator=(const TcpCacheBackend&) = delete;

  /// Dials and runs the HELLO handshake. Idempotent; kUnavailable when the
  /// server cannot be reached, kWrongInstance when it does not host the
  /// target instance, kInternal on a protocol-version mismatch.
  Status Connect();
  /// Closes the underlying (possibly shared) socket; sharers redial on
  /// their next call.
  void Disconnect();
  [[nodiscard]] bool connected() const;

  /// The remote instance's id, learned from HELLO (kInvalidInstance until
  /// the first successful Connect()).
  [[nodiscard]] InstanceId id() const override;

  /// Circuit-breaker state of the underlying (possibly shared) connection;
  /// kOpen means calls fail fast with kUnavailable without dialing.
  [[nodiscard]] TcpConnection::BreakerState breaker_state() const;

  /// The effective connection options. When the connection is shared, these
  /// are the *creator's* options, which may differ from the ones this
  /// backend was constructed with (see TcpConnection::Acquire).
  [[nodiscard]] const Options& options() const;

  // ---- CacheBackend ---------------------------------------------------------

  Result<CacheValue> Get(const OpContext& ctx, std::string_view key) override;
  /// Issues the whole batch as one pipelined burst over the shared
  /// connection: N gets cost ~1 round trip (window permitting) instead of N.
  /// Under a RetryPolicy with max_attempts > 1, slots that failed with
  /// kUnavailable are re-batched and retried together (gets are idempotent)
  /// within the same attempt/deadline budget as a single Get.
  std::vector<Result<CacheValue>> MultiGet(
      const std::vector<GetRequest>& reqs) override;
  Result<IqGetResult> IqGet(const OpContext& ctx,
                            std::string_view key) override;
  /// The whole batch as ordinary IQGET frames in one pipelined burst, like
  /// MultiGet, but never retried: IQGET grants leases, so a slot lost to a
  /// connection drop fails kUnavailable.
  std::vector<Result<IqGetResult>> MultiIqGet(
      const std::vector<GetRequest>& reqs) override;
  Status IqSet(const OpContext& ctx, std::string_view key, CacheValue value,
               LeaseToken token) override;
  /// Submits the IQSET/IDELETE frame into the pipeline and returns without
  /// waiting for its response (which is discarded).
  void PostFill(const OpContext& ctx, std::string_view key, LeaseToken token,
                std::optional<CacheValue> value) override;
  Result<LeaseToken> Qareg(const OpContext& ctx,
                           std::string_view key) override;
  Status Dar(const OpContext& ctx, std::string_view key,
             LeaseToken token) override;
  Status Rar(const OpContext& ctx, std::string_view key, CacheValue value,
             LeaseToken token) override;
  Result<LeaseToken> ISet(const OpContext& ctx,
                          std::string_view key) override;
  Status IDelete(const OpContext& ctx, std::string_view key,
                 LeaseToken token) override;
  Status Delete(const OpContext& ctx, std::string_view key) override;
  Status Set(const OpContext& ctx, std::string_view key,
             CacheValue value) override;
  /// Ships the whole batch as ONE kMultiSet frame (one round trip total,
  /// not one per window slot). Unlike MultiGet there is no retry loop:
  /// bulk writes are non-idempotent, so on transport loss every shipped
  /// slot fails kUnavailable and the caller decides what to re-run.
  std::vector<Status> MultiSet(std::vector<SetRequest> reqs) override;
  /// One kMultiDelete frame; same fail-fast contract as MultiSet.
  std::vector<Status> MultiDelete(
      const std::vector<DeleteRequest>& reqs) override;
  Status Cas(const OpContext& ctx, std::string_view key, Version expected,
             CacheValue value) override;
  Status WriteBackInstall(const OpContext& ctx, std::string_view key,
                          CacheValue value, LeaseToken token) override;
  Status Append(const OpContext& ctx, std::string_view key,
                std::string_view data) override;
  Result<LeaseToken> AcquireRed(std::string_view key) override;
  Status ReleaseRed(std::string_view key, LeaseToken token) override;
  Status RenewRed(std::string_view key, LeaseToken token) override;
  /// One kWorkingSetScan frame per page (docs/PROTOCOL.md §13). Idempotent:
  /// the retry layer may resend a dropped page, and any returned cursor
  /// resumes the scan after a reconnect.
  Result<WorkingSetPage> WorkingSetScan(const OpContext& ctx,
                                        uint32_t num_fragments,
                                        uint64_t cursor,
                                        uint32_t max_keys) override;

  // ---- Wire-only extras -----------------------------------------------------

  Status Ping();
  /// The instance ids the remote server hosts (discovery for tools and
  /// cluster bring-up).
  Result<std::vector<InstanceId>> ListInstances();
  /// The remote instance's latest observed configuration id.
  Result<ConfigId> RemoteConfigId();
  /// Advances the remote instance's latest observed configuration id.
  Status BumpConfigId(ConfigId latest);
  /// Dirty-list ops by fragment id (the server owns the key scheme).
  Result<CacheValue> DirtyListGet(ConfigId config_id, FragmentId fragment);
  Status DirtyListAppend(ConfigId config_id, FragmentId fragment,
                         std::string_view record);
  /// Asks the server to persist a snapshot of the bound instance. `path`
  /// is honored only when the server allows remote paths; empty uses the
  /// server's configured per-instance target.
  Status TriggerSnapshot(std::string_view path = {});

 private:
  /// One round trip over the shared connection.
  Status Transact(wire::Op op, std::string_view body, std::string* resp_body);

  std::shared_ptr<TcpConnection> conn_;
};

}  // namespace gemini
