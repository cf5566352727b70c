// Coordinator: grants fragment leases, maintains the configuration, and
// drives the fragment lifecycle of Figure 4 (Sections 2.1, 3).
//
// The coordinator owns the authoritative fragment table. On every instance
// failure or recovery it computes a new configuration, increments the
// configuration id, re-grants fragment leases to the serving replicas,
// notifies impacted instances of the new id, and inserts the serialized
// configuration as a cache entry into those instances (Section 2.1).
//
// Lifecycle transitions implemented here (circled numbers from Figure 4):
//   (1) primary unavailable: normal -> transient; assign a secondary on an
//       available instance (round-robin, Section 5.4.3) and initialize its
//       marker-bearing dirty list.
//   (2) primary available again: transient -> recovery, IF the dirty list is
//       intact in the secondary; the fragment's config id is restored to its
//       pre-failure value so still-valid primary entries are served
//       immediately.
//   (3) dirty list drained (and working set transfer finished, when enabled):
//       recovery -> normal; the secondary replica is retired.
//   (4) dirty list lost (secondary failed or evicted the list) or dirty-list
//       overhead over budget: the primary replica is discarded by bumping the
//       fragment's config id to the latest id — an O(1) mass-invalidation of
//       every entry the fragment held (Section 3.2.4, Example 3.1).
//   (5) primary fails again before recovery completes: recovery -> transient.
//
// The paper's prototype backs the coordinator with one master and shadow
// coordinators via ZooKeeper. This class is a single master; replication is
// layered on top of it: CoordinatorGroup replicates CoordinatorState to
// in-process shadows, and CoordinatorReplica (src/cluster) replicates it to
// shadow geminicoordd processes over the wire with rank-based election and
// epoch fencing (docs/PROTOCOL.md §12.7). Both promote a shadow by calling
// ImportState on a fresh Coordinator.
//
// Thread-safe.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/cache/cache_instance.h"
#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/coordinator/configuration.h"
#include "src/coordinator/coordinator_service.h"
#include "src/coordinator/instance_endpoint.h"
#include "src/coordinator/policy.h"

namespace gemini {

/// Replicable coordinator state: everything a promoted shadow needs to
/// continue exactly where the failed master stopped (the in-process
/// equivalent of the paper's ZooKeeper-backed shadow coordinators).
struct CoordinatorState {
  struct FragmentEntry {
    FragmentAssignment assignment;
    ConfigId prefailure_config_id = 0;
    ConfigId secondary_created_id = 0;
    bool dirty_processed = false;
    bool wst_terminated = false;
  };
  ConfigId next_config_id = 1;
  std::vector<FragmentEntry> fragments;
  std::vector<bool> believed_up;
  size_t round_robin_cursor = 0;
  uint64_t discarded_fragments = 0;
  /// Mastership generation. 0/1 = the first master; each promotion adopts
  /// the state with a strictly larger epoch. For epoch >= 2, ImportState
  /// floors next_config_id at (master_epoch << 32) + 1 so configuration ids
  /// minted by the new master always exceed every id a stale ex-master
  /// could have published — clients adopt configurations only forward by
  /// id, which fences the ex-master's output (docs/PROTOCOL.md §12.7).
  uint64_t master_epoch = 0;
};

class Coordinator : public CoordinatorService {
 public:
  struct Options {
    RecoveryPolicy policy = RecoveryPolicy::GeminiOW();
    /// Fragment leases are long-lived (seconds to minutes, Section 2.3);
    /// the coordinator re-grants them on every publish.
    Duration fragment_lease_lifetime = Seconds(3600);
    /// Discard a primary replica when its dirty list grows beyond this many
    /// bytes (Figure 4, transition (4): "the overhead of maintaining dirty
    /// cache entries outweighs its benefit"). 0 disables the budget.
    uint64_t dirty_list_byte_budget = 0;
  };

  /// `instances` is the cluster; fragment i starts on instance i % M. This
  /// in-process form wraps each CacheInstance in a LocalInstanceEndpoint —
  /// the historical behavior, unchanged.
  Coordinator(const Clock* clock, std::vector<CacheInstance*> instances,
              size_t num_fragments)
      : Coordinator(clock, std::move(instances), num_fragments, Options()) {}
  Coordinator(const Clock* clock, std::vector<CacheInstance*> instances,
              size_t num_fragments, Options options);

  /// Endpoint form: the cluster as InstanceEndpoints (in-process, remote
  /// over TCP, or a mix). InstanceId i is endpoints[i]; endpoints must
  /// outlive the coordinator.
  Coordinator(const Clock* clock, std::vector<InstanceEndpoint*> endpoints,
              size_t num_fragments, Options options);

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Installs a hook invoked after every publish with the fresh
  /// configuration — how a networked control plane pushes config advances
  /// to connected clients. Called with the coordinator's lock held: the
  /// hook must be cheap and must never call back into this coordinator.
  /// Set before the coordinator starts taking events.
  void SetConfigListener(std::function<void(const ConfigurationPtr&)> listener);

  // ---- Client-facing ---------------------------------------------------------

  /// Latest published configuration (immutable snapshot).
  [[nodiscard]] ConfigurationPtr GetConfiguration() const override;
  [[nodiscard]] ConfigId latest_id() const override;

  // ---- Failure / recovery events (from the failure detector) ---------------

  /// The instance has been detected as failed; reassign its fragments.
  void OnInstanceFailed(InstanceId failed);

  /// Batched failure handling: all instances in `failed` are removed from
  /// the configuration in one transition (the paper's evaluation fails 20
  /// of 100 instances simultaneously). Guarantees no secondary replica is
  /// placed on a simultaneously failing instance.
  void OnInstancesFailed(const std::vector<InstanceId>& failed);

  /// The instance is reachable again. The caller must have restored the
  /// instance process first (RecoverPersistent / RecoverVolatile per policy).
  void OnInstanceRecovered(InstanceId recovered);

  /// Re-grants every serving replica's fragment lease for another
  /// `fragment_lease_lifetime` (Section 2.1: instances "must renew" their
  /// leases to keep processing requests; the coordinator drives the
  /// renewal). While the coordinator is down, leases lapse and instances
  /// stop serving — the fail-safe that keeps a partitioned cluster
  /// consistent.
  void RenewLeases();

  // ---- Recovery progress notifications --------------------------------------

  /// A recovery worker finished draining the fragment's dirty list
  /// (Algorithm 3); may complete recovery (transition (3)).
  void OnDirtyListProcessed(FragmentId fragment) override;

  /// Working set transfer for the fragment hit a termination condition
  /// (Section 3.2.2); may complete recovery (transition (3)).
  void OnWorkingSetTransferTerminated(FragmentId fragment) override;

  /// A client or recovery worker found the fragment's dirty list missing or
  /// partial (evicted) while the fragment was in recovery mode. The primary
  /// can no longer be recovered consistently: discard it (transition (4)).
  void OnDirtyListUnavailable(FragmentId fragment) override;

  /// Checks the fragment's dirty-list size against the byte budget and
  /// discards the primary replica if it is over (transition (4)). Returns
  /// true if a discard happened.
  bool EnforceDirtyListBudget(FragmentId fragment);

  // ---- Introspection ---------------------------------------------------------

  [[nodiscard]] FragmentMode ModeOf(FragmentId fragment) const;
  [[nodiscard]] std::vector<FragmentId> FragmentsInMode(
      FragmentMode mode) const;
  [[nodiscard]] std::vector<FragmentId> FragmentsWithPrimary(
      InstanceId instance) const;
  [[nodiscard]] const RecoveryPolicy& policy() const {
    return options_.policy;
  }
  /// Number of fragment discards performed via transition (4) plus
  /// unrecoverable-at-recovery discards (Table 3 accounting).
  [[nodiscard]] uint64_t discarded_fragment_count() const;

  /// True iff the fragment's dirty list has already been drained this
  /// recovery episode (the fragment may still be in recovery mode waiting
  /// for the working set transfer). Recovery workers skip such fragments.
  [[nodiscard]] bool DirtyProcessed(FragmentId fragment) const override;

  /// Snapshot of the replicable state (master -> shadow replication).
  [[nodiscard]] CoordinatorState ExportState() const;

  /// Adopts `state` wholesale and re-publishes: a promoted shadow calls
  /// this to take over, re-granting fragment leases so instances accept it.
  /// When state.master_epoch >= 2 the configuration-id floor documented on
  /// CoordinatorState::master_epoch is applied, fencing any ids a stale
  /// ex-master might still publish.
  void ImportState(const CoordinatorState& state);

  /// Mastership generation this coordinator publishes under (imported with
  /// its state; 0 until a replicated deployment sets one).
  [[nodiscard]] uint64_t master_epoch() const;

 private:
  struct FragmentState {
    FragmentAssignment assignment;
    /// The fragment's config id at the moment its primary failed; restored on
    /// transition (2) so still-valid primary entries become servable.
    ConfigId prefailure_config_id = 0;
    /// The config id under which the current secondary replica was created
    /// (transition (1)). The secondary's fragment lease uses this as its
    /// minimum-valid id: restoring the fragment's id to the pre-failure
    /// value for the primary must not re-validate leftovers a re-used
    /// secondary instance kept from an older episode.
    ConfigId secondary_created_id = 0;
    bool dirty_processed = false;
    bool wst_terminated = false;
  };

  // All Locked methods require mu_. `impacted` limits which instances receive
  // the serialized configuration entry (Section 2.1 notifies impacted
  // instances only); empty means every reachable instance (initial publish).
  void PublishLocked(const std::vector<InstanceId>& impacted);
  void GrantLeasesLocked(FragmentId f);
  // Picks the next available instance != exclude, round-robin.
  InstanceId NextAvailableLocked(InstanceId exclude);
  void DiscardPrimaryLocked(FragmentId f, bool reassign_new_host);
  void MaybeCompleteRecoveryLocked(FragmentId f);
  bool InstanceAvailableLocked(InstanceId id) const;

  /// Shared ctor tail: seeds the fragment table and publishes config 1.
  void Init(size_t num_fragments);

  const Clock* clock_;
  /// Endpoints owned by the CacheInstance* ctor (LocalInstanceEndpoints);
  /// empty when the caller supplied its own endpoints.
  std::vector<std::unique_ptr<InstanceEndpoint>> owned_endpoints_;
  /// The cluster, indexed by InstanceId.
  std::vector<InstanceEndpoint*> instances_;
  Options options_;

  mutable std::mutex mu_;
  std::function<void(const ConfigurationPtr&)> config_listener_;
  ConfigId next_config_id_ = 1;
  std::vector<FragmentState> fragments_;
  /// The latest publish, readable without mu_: publishes and lease renewals
  /// hold mu_ across one endpoint RPC per replica, and clients and heartbeat
  /// replies must not queue behind them. Written under mu_ as well, so
  /// publishes stay ordered.
  mutable std::mutex published_mu_;
  ConfigurationPtr published_;
  std::atomic<ConfigId> latest_id_{0};
  size_t round_robin_cursor_ = 0;
  uint64_t discarded_fragments_ = 0;
  uint64_t master_epoch_ = 0;
  /// Instances the coordinator currently believes are up.
  std::vector<bool> believed_up_;
};

}  // namespace gemini
