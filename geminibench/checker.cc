#include "geminibench/checker.h"

#include <charconv>

#include "src/common/hash.h"

namespace geminibench {

using gemini::Version;

RawChecker::RawChecker(uint64_t keys, size_t value_bytes, uint64_t seed)
    : value_bytes_(value_bytes),
      seed_(seed),
      floor_(new std::atomic<uint64_t>[keys]),
      ranges_(keys),
      writes_(keys, 0) {
  for (uint64_t k = 0; k < keys; ++k) floor_[k].store(0);
}

std::string RawChecker::KeyName(uint64_t k) {
  std::string name = "k";
  name += std::to_string(k);
  return name;
}

std::string RawChecker::Payload(uint64_t k, uint64_t w) const {
  std::string out = KeyName(k) + "/" + std::to_string(w) + "/";
  uint64_t x = gemini::Mix64(seed_ ^ gemini::Mix64(k * 0x9E3779B97F4A7C15ULL + w));
  while (out.size() < value_bytes_) {
    x = gemini::Mix64(x + 0x9E3779B97F4A7C15ULL);
    for (int b = 0; b < 8 && out.size() < value_bytes_; ++b) {
      out.push_back(static_cast<char>('a' + ((x >> (8 * b)) & 0xFF) % 26));
    }
  }
  return out;
}

uint64_t RawChecker::NextWrite(uint64_t k) const { return writes_[k] + 1; }

void RawChecker::OnWrite(uint64_t k, uint64_t w, Version before, Version after,
                         bool acked) {
  writes_[k] = w;
  if (after > before) ranges_[k].push_back({before, after, w});
  // Only k's writer stores its floor, and versions only grow.
  if (acked && after > before) {
    floor_[k].store((before << 32) | after, std::memory_order_release);
  }
}

RawChecker::Acked RawChecker::Floor(uint64_t k) const {
  const uint64_t packed = floor_[k].load(std::memory_order_acquire);
  return {packed >> 32, packed & 0xFFFFFFFFu};
}

bool RawChecker::OnRead(uint64_t k, Acked floor, Version version,
                        std::string_view payload) {
  reads_.fetch_add(1, std::memory_order_relaxed);
  bool ok = true;
  if (version <= floor.lo && floor.hi > 0) {
    stale_.fetch_add(1, std::memory_order_relaxed);
    Violation("stale read of " + KeyName(k) + ": version " +
              std::to_string(version) + " after a write acknowledged at " +
              "versions (" + std::to_string(floor.lo) + ", " +
              std::to_string(floor.hi) + "]; payload " +
              std::string(payload.substr(0, payload.find('/', 1) + 8)));
    ok = false;
  } else if (version < floor.hi) {
    superseded_.fetch_add(1, std::memory_order_relaxed);
  }
  // Parse "<key>/<write#>/" and regenerate the payload it claims to be.
  const std::string prefix = KeyName(k) + "/";
  uint64_t w = 0;
  bool parsed = payload.substr(0, prefix.size()) == prefix;
  if (parsed) {
    const char* begin = payload.data() + prefix.size();
    const char* end = payload.data() + payload.size();
    const auto [next, ec] = std::from_chars(begin, end, w);
    parsed = ec == std::errc() && next != end && *next == '/';
  }
  if (!parsed || payload != Payload(k, w)) {
    mismatches_.fetch_add(1, std::memory_order_relaxed);
    Violation("corrupt payload for " + KeyName(k) + " at version " +
              std::to_string(version));
    return false;
  }
  Stripe& stripe = stripes_[k % kStripes];
  std::lock_guard<std::mutex> lock(stripe.mu);
  stripe.observed.push_back({k, version, w});
  return ok;
}

uint64_t RawChecker::Finish() {
  uint64_t found = 0;
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    for (const Observed& o : stripe.observed) {
      bool match = false;
      if (o.write == 0) {
        match = o.version == 1;  // the initial load is version 1
      } else {
        for (const Range& r : ranges_[o.key]) {
          if (r.write == o.write) {
            match = r.lo < o.version && o.version <= r.hi;
            break;
          }
        }
      }
      if (!match) {
        ++found;
        Violation("payload of write #" + std::to_string(o.write) + " of " +
                  KeyName(o.key) + " returned as version " +
                  std::to_string(o.version) +
                  ", which that write did not produce");
      }
    }
    stripe.observed.clear();
  }
  mismatches_.fetch_add(found, std::memory_order_relaxed);
  return found;
}

void RawChecker::Violation(const std::string& what) {
  std::lock_guard<std::mutex> lock(violation_mu_);
  if (first_violation_.empty()) first_violation_ = what;
}

std::string RawChecker::first_violation() const {
  std::lock_guard<std::mutex> lock(violation_mu_);
  return first_violation_;
}

std::string RawChecker::SelfTest() {
  RawChecker c(4, 100, 7);
  if (!c.OnRead(1, c.Floor(1), 1, c.Payload(1, 0))) {
    return "a fresh read of the initial load was flagged";
  }
  // Write #1 of key 1 moved the store from version 1 to 2 and was acked.
  c.OnWrite(1, c.NextWrite(1), 1, 2, /*acked=*/true);
  if (c.OnRead(1, c.Floor(1), 1, c.Payload(1, 0))) {
    return "a read below the acknowledged floor was not flagged";
  }
  std::string corrupt = c.Payload(1, 1);
  corrupt.back() = corrupt.back() == 'a' ? 'b' : 'a';
  if (c.OnRead(1, c.Floor(1), 2, corrupt)) {
    return "a corrupt payload was not flagged";
  }
  if (c.OnRead(1, c.Floor(1), 2, c.Payload(2, 1))) {
    return "another key's payload was not flagged";
  }
  if (!c.OnRead(1, c.Floor(1), 2, c.Payload(1, 1))) {
    return "a correct read of the acknowledged write was flagged";
  }
  // Write #1 of key 2 was retried after its store update: versions 2 and 3
  // both carry its payload, and version 2 is still its data.
  c.OnWrite(2, c.NextWrite(2), 1, 3, /*acked=*/true);
  if (!c.OnRead(2, c.Floor(2), 2, c.Payload(2, 1)) ||
      c.superseded_reads() != 1) {
    return "a superseded version of the acknowledged write was misjudged";
  }
  if (c.OnRead(2, c.Floor(2), 1, c.Payload(2, 0))) {
    return "a read below a retried acknowledged write was not flagged";
  }
  // Passes the floor, but version 2 was produced by write #1, not the load.
  (void)c.OnRead(1, c.Floor(1), 2, c.Payload(1, 0));
  if (c.Finish() != 1) {
    return "a payload returned under the wrong version was not flagged";
  }
  if (c.stale_reads() != 2 || c.payload_mismatches() != 3) {
    return "violation counts are off: stale=" +
           std::to_string(c.stale_reads()) +
           " mismatches=" + std::to_string(c.payload_mismatches());
  }
  return "";
}

}  // namespace geminibench
