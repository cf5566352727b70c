// Exact read-after-write check for the benchmark's sessions.
//
// Every key has exactly one writing session, so the writer knows which store
// versions its write produced (VersionOf before and after the Write call).
// Payloads are self-describing: "<key>/<write#>/" followed by filler derived
// from (seed, key, write#), padded to the workload's value size.
//
// A read of key k is checked twice:
//   - at once, against k's floor: the store versions of the latest write of
//     k acknowledged before the read began. A version below all of them is
//     stale. A write the client retried after its store update produced
//     several versions with the same payload; a read of an earlier one of
//     them returned the acknowledged data, so it is counted as superseded,
//     not stale;
//   - after the run, against the store's record of the version it returned:
//     the payload must name write# w, and w's write must have produced that
//     version (or, for write# 0, the initial load). A mismatch means the
//     cache served bytes that were never the store's record of that version.
// Either violation fails the run.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/types.h"

namespace geminibench {

class RawChecker {
 public:
  RawChecker(uint64_t keys, size_t value_bytes, uint64_t seed);

  static std::string KeyName(uint64_t k);
  /// Payload of write number `w` of key `k` (w = 0: the initial load).
  [[nodiscard]] std::string Payload(uint64_t k, uint64_t w) const;

  // ---- Writer side (the key's single writing session) ---------------------

  /// Number of the next write of `k`.
  [[nodiscard]] uint64_t NextWrite(uint64_t k) const;
  /// The write numbered `w` moved k's store version from `before` to
  /// `after` (after > before when the store saw it at all). `acked`: the
  /// client acknowledged it, which raises k's floor to `after`.
  void OnWrite(uint64_t k, uint64_t w, gemini::Version before,
               gemini::Version after, bool acked);

  // ---- Reader side ---------------------------------------------------------

  /// The store versions (lo, hi] of k's latest acknowledged write.
  struct Acked {
    gemini::Version lo = 0;
    gemini::Version hi = 0;
  };
  /// Snapshot of k's floor, taken before the read is issued.
  [[nodiscard]] Acked Floor(uint64_t k) const;
  /// Checks one completed read; returns false on a violation.
  bool OnRead(uint64_t k, Acked floor, gemini::Version version,
              std::string_view payload);

  /// Post-run check of every read's (version, write#) pairing. Call once
  /// all sessions have stopped; returns the number of mismatches found.
  uint64_t Finish();

  [[nodiscard]] uint64_t reads_checked() const { return reads_.load(); }
  [[nodiscard]] uint64_t stale_reads() const { return stale_.load(); }
  [[nodiscard]] uint64_t superseded_reads() const {
    return superseded_.load();
  }
  [[nodiscard]] uint64_t payload_mismatches() const {
    return mismatches_.load();
  }
  /// First violation seen, for the report ("" when none).
  [[nodiscard]] std::string first_violation() const;

  /// Feeds a checker fabricated stale, mismatched and corrupt reads next to
  /// good and superseded ones and verifies exactly the bad ones are flagged.
  /// Returns "" on success, otherwise what went wrong.
  static std::string SelfTest();

 private:
  struct Range {
    gemini::Version lo = 0;  // exclusive
    gemini::Version hi = 0;  // inclusive
    uint64_t write = 0;
  };
  struct Observed {
    uint64_t key = 0;
    gemini::Version version = 0;
    uint64_t write = 0;
  };
  struct Stripe {
    std::mutex mu;
    std::vector<Observed> observed;  // guarded by mu
  };

  void Violation(const std::string& what);

  const size_t value_bytes_;
  const uint64_t seed_;
  // Acked (lo, hi) packed as lo << 32 | hi: one atomic, so a reader never
  // sees half an update. Versions of one key stay far below 2^32.
  std::unique_ptr<std::atomic<uint64_t>[]> floor_;
  // Writer-owned per key; read only by Finish().
  std::vector<std::vector<Range>> ranges_;
  std::vector<uint64_t> writes_;
  static constexpr size_t kStripes = 16;
  Stripe stripes_[kStripes];
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> stale_{0};
  std::atomic<uint64_t> superseded_{0};
  std::atomic<uint64_t> mismatches_{0};
  mutable std::mutex violation_mu_;
  std::string first_violation_;  // guarded by violation_mu_
};

}  // namespace geminibench
