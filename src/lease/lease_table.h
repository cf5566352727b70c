// Inhibit (I), Quarantine (Q), and Red leases (Section 2.3).
//
// Gemini builds read-after-write consistency out of three lease kinds, all
// granted by a cache instance on individual keys:
//
//  - An *I lease* is granted to a read that observes a cache miss. It inhibits
//    other concurrent misses on the same key (they back off — this also
//    prevents the thundering-herd of identical data store queries) and it must
//    still be valid when the reader inserts the computed value; otherwise the
//    insert is ignored.
//  - A *Q lease* is acquired by a write before deleting a cache entry
//    (write-around). Acquiring Q voids any existing I lease on the key, which
//    kills the race where a slow reader would insert a stale value after the
//    write completes. Q leases are mutually compatible under write-around
//    because deletes commute. If a Q lease expires without being released
//    (writer crashed between updating the data store and deleting the entry),
//    the instance deletes the associated entry — the conservative action.
//  - A *Redlease* provides mutual exclusion among recovery workers on one
//    dirty list. Redleases live in a separate namespace: the paper notes they
//    can never collide with I/Q leases because they protect dirty-list
//    entries, which clients never iqget/qareg.
//
// Compatibility (Table 2):           existing I      existing Q
//          requested I               back off        back off
//          requested Q               void I, grant   grant
//
// Lifetimes are caller-supplied; the paper uses milliseconds for IQ/Red
// leases and seconds-to-minutes for fragment leases (which live in the
// coordinator, not here).
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/common/types.h"

namespace gemini {

/// Outcome of expiring leases on a key: the instance must delete the cache
/// entry if a Q lease lapsed (writer died mid-session).
struct ExpiryAction {
  bool delete_entry = false;
};

class LeaseTable {
 public:
  struct Options {
    Duration i_lease_lifetime = Millis(100);
    Duration q_lease_lifetime = Millis(100);
    Duration red_lease_lifetime = Millis(500);
  };

  explicit LeaseTable(const Clock* clock) : LeaseTable(clock, Options()) {}
  LeaseTable(const Clock* clock, Options options);

  /// Grants an I lease on `key`, or kBackoff if any I or Q lease is live.
  Result<LeaseToken> AcquireI(std::string_view key);

  /// True iff `token` is a live I lease on `key`. (Used by iqset to decide
  /// whether an insert is still permitted.)
  bool CheckI(std::string_view key, LeaseToken token);

  /// Releases an I lease if it is still the live one; idempotent.
  void ReleaseI(std::string_view key, LeaseToken token);

  /// Grants a Q lease, voiding any live I lease on the key.
  LeaseToken AcquireQ(std::string_view key);

  /// True iff `token` is a live Q lease on `key`.
  bool CheckQ(std::string_view key, LeaseToken token);

  /// Releases a Q lease; idempotent.
  void ReleaseQ(std::string_view key, LeaseToken token);

  /// Voids any live I lease on `key`, so its holder's later insert is
  /// ignored. A write's delete calls this: an I lease can be live at that
  /// point only if it was granted after the writer's Q lease lapsed, and its
  /// holder may have read the store before the write's update.
  void VoidI(std::string_view key);

  /// Grants a Redlease, or kBackoff while another worker holds one.
  Result<LeaseToken> AcquireRed(std::string_view key);
  bool CheckRed(std::string_view key, LeaseToken token);
  void ReleaseRed(std::string_view key, LeaseToken token);

  /// Extends a held Redlease's lifetime; false if it already expired or was
  /// taken over (the worker must abandon the fragment).
  bool RenewRed(std::string_view key, LeaseToken token);

  /// Drops expired leases on `key` and reports whether the instance must
  /// delete the key's entry (expired Q). Called by the instance before any
  /// operation that touches `key`.
  ExpiryAction ExpireKey(std::string_view key);

  /// Drops all leases (instance restarted as a fresh process: leases are
  /// volatile state even when the cache payload is persistent).
  void Clear();

  /// Keys with an outstanding Q lease (live or expired-unreleased). A
  /// persistent cache recovering from a crash deletes these entries: the
  /// writer may have updated the data store without completing its
  /// delete-and-release, so the entries are potentially stale. This is the
  /// crash-spanning analogue of the Q-expiry rule in Section 2.3.
  std::vector<std::string> KeysWithQLeases();

  /// Number of keys with any live lease (diagnostics / tests).
  size_t LiveKeyCount();

  const Options& options() const { return options_; }

 private:
  struct QLease {
    LeaseToken token;
    Timestamp expiry;
  };
  struct KeyLeases {
    LeaseToken i_token = kNoLease;
    Timestamp i_expiry = 0;
    std::vector<QLease> qs;
    // Set when a Q lease expired un-released; consumed by ExpireKey.
    bool pending_delete = false;
  };
  struct RedLease {
    LeaseToken token;
    Timestamp expiry;
  };

  // Drops expired leases in-place; records pending_delete on Q expiry.
  void ExpireLocked(KeyLeases& kl, Timestamp now);
  // Erases the map slot if no lease remains.
  void MaybeEraseLocked(const std::string& key, KeyLeases& kl);

  const Clock* clock_;
  Options options_;
  std::mutex mu_;
  LeaseToken next_token_ = 1;
  std::unordered_map<std::string, KeyLeases> keys_;
  std::unordered_map<std::string, RedLease> red_;
};

}  // namespace gemini
