// GeminiClient: the client library applications link against (Sections 2, 3).
//
// The client caches a configuration, routes each request to a fragment with
// hash(key) % F (Figure 3), and runs the per-mode request protocols:
//
//  - normal:     IQ sessions against the fragment's primary replica.
//  - transient:  the same against the secondary replica, plus appending the
//                key of every write to the fragment's dirty list.
//  - recovery:   Algorithm 1 (reads) and Algorithm 2 (writes) against both
//                replicas, including the optional working set transfer.
//
// Failure handling (Sections 2.2, 3.3):
//  - kStaleConfig / kWrongInstance from an instance: refresh the
//    configuration and retry the whole operation.
//  - kUnavailable with an unchanged configuration (the coordinator has not
//    yet published the secondary): reads fall through to the data store,
//    writes return kSuspended — callers retry after the new configuration
//    appears, preserving read-after-write consistency. Over TCP the
//    transport layer may already have retried idempotent ops (and a tripped
//    circuit breaker fails instantly without dialing) before kUnavailable
//    reaches this client — see docs/PROTOCOL.md §11; either way the meaning
//    here is identical: treat the instance as failed, degrade, never guess
//    about lease or write outcome.
//  - Lease back-off (kBackoff): bounded retry with a configurable pause;
//    reads exhausted of retries fall through to the data store *without*
//    populating the cache.
//
// Every remote touch is billed to the caller's Session so the discrete-event
// harness can account virtual time; pass a default-constructed Session for
// real-time use.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/cache/cache_instance.h"
#include "src/cache/dirty_list.h"
#include "src/client/recovery_state.h"
#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/coordinator/coordinator_service.h"
#include "src/net/cost_model.h"
#include "src/store/data_store.h"

namespace gemini {

/// Section 2: policies for processing writes. The paper evaluates Gemini
/// with write-around ("due to lack of space"); write-through is implemented
/// as an extension — the write installs the new value in the cache under
/// the same Q lease instead of deleting the entry, so dirty keys recovered
/// by Gemini-O carry real values rather than invalidations.
enum class WritePolicy : uint8_t {
  kWriteAround,
  kWriteThrough,
  /// Extension: acknowledge after installing the value in the (persistent)
  /// cache; a WriteBackFlusher applies it to the data store asynchronously.
  /// Read-after-write holds while the primary is reachable; an unflushed
  /// write is invisible to other replicas until flushed — the failure-window
  /// hole bench/ablation_write_policy quantifies (and the reason the paper
  /// evaluates write-around). Outside normal mode the client falls back to
  /// write-through.
  kWriteBack,
};

class GeminiClient {
 public:
  struct Options {
    /// Pause before retrying a lease collision (paper: leases live for
    /// milliseconds, so collisions resolve quickly).
    Duration backoff = Millis(1);
    int max_backoff_retries = 25;
    /// Bound on refresh-and-retry loops for configuration changes.
    int max_config_retries = 8;
    /// Working set transfer enabled (policy +W variants).
    bool working_set_transfer = false;
    /// Write processing policy (Section 2). Write-back is out of scope.
    WritePolicy write_policy = WritePolicy::kWriteAround;
    /// Record written keys on the fragment's dirty list in transient mode.
    /// True for Gemini; the VolatileCache/StaleCache baselines do not
    /// maintain dirty lists (Section 5).
    bool maintain_dirty_lists = true;
    /// Delete the key in the secondary replica on a recovery-mode write.
    /// Algorithm 2 guards this with "working set transfer enabled", but the
    /// consistency proof (Lemma 4, Case II) relies on the delete whenever a
    /// secondary-to-primary copy can occur — which includes Gemini-O's
    /// overwriting recovery workers — so it defaults to on. Disable only to
    /// reproduce the narrower pseudo-code (exercised by tests).
    bool delete_secondary_on_recovery_write = true;
    /// Adopt coordinator configuration advances eagerly: before each
    /// operation, compare the coordinator's latest_id() against the cached
    /// configuration and refresh when it moved. Against a RemoteCoordinator
    /// the compare is a local atomic load that kPushConfig frames keep
    /// fresh, so a Rejig reaches the very next operation instead of waiting
    /// for a kStaleConfig bounce off an instance. Off by default: the
    /// historical (poll-on-error) behavior, which the DES harness bills
    /// explicitly and the in-process builds rely on.
    bool follow_config_pushes = false;
  };

  GeminiClient(const Clock* clock, CoordinatorService* coordinator,
               std::vector<CacheBackend*> instances, DataStore* store)
      : GeminiClient(clock, coordinator, std::move(instances), store,
                     Options()) {}
  GeminiClient(const Clock* clock, CoordinatorService* coordinator,
               std::vector<CacheBackend*> instances, DataStore* store,
               Options options);
  /// Convenience overloads for in-process clusters (tests, the DES harness):
  /// a CacheInstance* vector upcasts element-wise to the backend interface.
  GeminiClient(const Clock* clock, CoordinatorService* coordinator,
               const std::vector<CacheInstance*>& instances, DataStore* store)
      : GeminiClient(clock, coordinator, instances, store, Options()) {}
  GeminiClient(const Clock* clock, CoordinatorService* coordinator,
               const std::vector<CacheInstance*>& instances, DataStore* store,
               Options options)
      : GeminiClient(clock, coordinator,
                     std::vector<CacheBackend*>(instances.begin(),
                                                instances.end()),
                     store, options) {}

  /// Binds the shared WST-termination flags (required when
  /// working_set_transfer is on).
  void BindRecoveryState(RecoveryState* state) { recovery_state_ = state; }

  struct ReadResult {
    CacheValue value;
    /// Value came from the cache layer (either replica).
    bool cache_hit = false;
    /// Value was copied from the secondary during working set transfer.
    bool from_secondary = false;
    /// Replica instance that processed the cache lookup (kInvalidInstance
    /// when the read was served by the data store during the failover
    /// window). On a miss this is the replica that observed the miss.
    InstanceId instance = kInvalidInstance;
    /// Replica the configuration routed this read to (the primary in normal
    /// and recovery modes, the secondary in transient mode). Differs from
    /// `instance` when the working set transfer served the value from the
    /// secondary; per-instance hit-ratio accounting attributes the lookup to
    /// the routed replica.
    InstanceId routed = kInvalidInstance;
    /// The working set transfer probed the secondary replica on a primary
    /// miss; `from_secondary` tells whether that probe hit. Feeds the
    /// secondary-miss-ratio termination condition (Section 3.2.2).
    bool secondary_probed = false;
  };

  /// Application read. On a cache miss the client queries the data store,
  /// computes the cache entry, and inserts it for future references.
  Result<ReadResult> Read(Session& session, std::string_view key);

  /// Primes the cache for `keys` (e.g. after a client restart, or ahead of
  /// an anticipated hot set). Sends each routed replica MultiIqGet bursts of
  /// at most 64 keys — over TCP a burst pipelines through the connection's
  /// in-flight window instead of paying one round trip per key. A hit is
  /// already cached; a miss already holds its I lease, so it is filled from
  /// the store straight away (store query, then a posted fill). Slots a
  /// burst failed (lease collision, stale configuration, wrong or
  /// unreachable replica) and keys on recovery-mode fragments take the full
  /// Read() path. Returns how many keys were already cached. Hits do not
  /// count toward stats(); a miss filled inline counts as a read and a
  /// store read, like a Read() that misses.
  size_t WarmUp(Session& session, const std::vector<std::string>& keys);

  /// Drops the cache entries for `keys` (e.g. after a bulk store-side
  /// mutation that bypassed Write()). Groups keys per routed replica and
  /// ships one pipelined MultiDelete frame per replica — no lease, no store
  /// write, kNotFound is a success. Keys on recovery-mode fragments are
  /// skipped (their invalidation must go through Write(), which maintains
  /// the dirty list); the skip count is keys.size() minus the return value
  /// minus the not-found entries. Returns how many entries were dropped.
  size_t InvalidateKeys(Session& session, const std::vector<std::string>& keys);

  /// Application write, write-around policy: updates the data store and
  /// invalidates the impacted cache entry under a Q lease. `data` optionally
  /// replaces the record payload (synthetic workloads pass nullopt; only the
  /// version moves). Returns kSuspended while the fragment has no reachable
  /// replica and no new configuration exists yet.
  Status Write(Session& session, std::string_view key,
               std::optional<std::string> data = std::nullopt);

  /// Fetches the latest configuration from the coordinator.
  void RefreshConfig(Session& session);

  /// Client crash-recovery path (Section 3.3): fetch the configuration from
  /// an instance's cache entry; falls back to the coordinator when the entry
  /// was evicted. Returns the id of the adopted configuration.
  ConfigId Bootstrap(Session& session, InstanceId via_instance);

  [[nodiscard]] ConfigurationPtr config() const;

  /// Drops all client-local state (configuration and fetched dirty lists),
  /// as a freshly restarted client process would have.
  void ForgetState();

  struct Stats {
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t cache_hits = 0;
    uint64_t store_reads = 0;
    uint64_t suspended_writes = 0;
    uint64_t wst_copies = 0;
    uint64_t dirty_hits = 0;  // reads that found their key on a dirty list
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct CachedDirtyList {
    DirtyList list;
    /// The fragment's epoch when the list was fetched; a different epoch in
    /// the current configuration invalidates the cache (the fragment went
    /// through another transient episode this client never observed).
    uint32_t epoch = 0;
  };

  // Marks `key` clean for `fragment` from this client's perspective
  // (Algorithm 1 line 8 / Algorithm 2's deletes): removes it from the
  // fetched list, or remembers the removal for a list fetched later within
  // the same epoch.
  void MarkKeyClean(FragmentId fragment, uint32_t epoch,
                    std::string_view key);

  // Returns the cached configuration, fetching it on first use.
  ConfigurationPtr EnsureConfig(Session& session);

  // Indices of `keys` grouped by the replica `cfg` routes each to (the
  // primary in normal mode, the secondary in transient mode). Keys on
  // recovery-mode fragments, and keys routed nowhere, are left out.
  std::unordered_map<InstanceId, std::vector<size_t>> GroupByServingReplica(
      const Configuration& cfg, const std::vector<std::string>& keys) const;

  // Normal/transient read processing against one replica.
  Result<ReadResult> ReadViaReplica(Session& session, std::string_view key,
                                    FragmentId fragment, InstanceId target,
                                    ConfigId config_id);

  // Recovery-mode read (Algorithm 1).
  Result<ReadResult> ReadRecovery(Session& session, std::string_view key,
                                  FragmentId fragment,
                                  const FragmentAssignment& a,
                                  ConfigId config_id);

  // Shared miss path: query the store, insert into `target` under `i_token`.
  Result<ReadResult> FillFromStore(Session& session, std::string_view key,
                                   FragmentId fragment, InstanceId target,
                                   ConfigId config_id, LeaseToken i_token,
                                   bool secondary_probed = false);

  // Applies the data-store update and the cache-side completion of a write
  // session per the configured write policy: delete-and-release
  // (write-around) or replace-and-release (write-through).
  Status CommitWrite(Session& session, CacheBackend& inst,
                     InstanceId instance, const OpContext& ctx,
                     std::string_view key, LeaseToken q_token,
                     std::optional<std::string>& data, bool allow_write_back);

  // Fetches (or reuses) the dirty list of a fragment in recovery mode.
  // Returns nullptr if the list is unavailable (primary being discarded).
  CachedDirtyList* EnsureDirtyList(Session& session, FragmentId fragment,
                                   const FragmentAssignment& a,
                                   ConfigId config_id);

  // True if the working set transfer is currently active for the fragment.
  bool WstActive(FragmentId fragment, const FragmentAssignment& a) const;

  void DropStaleDirtyLists(const Configuration& config);

  const Clock* clock_;
  CoordinatorService* coordinator_;
  std::vector<CacheBackend*> instances_;
  DataStore* store_;
  Options options_;
  RecoveryState* recovery_state_ = nullptr;

  mutable std::mutex mu_;
  ConfigurationPtr config_;
  std::unordered_map<FragmentId, CachedDirtyList> dirty_lists_;
  // Keys this client already handled for fragments whose dirty list it has
  // not fetched yet (epoch-scoped); applied at fetch time.
  struct PendingClean {
    uint32_t epoch = 0;
    std::vector<std::string> keys;
  };
  std::unordered_map<FragmentId, PendingClean> pending_clean_;
  Stats stats_;
};

}  // namespace gemini
