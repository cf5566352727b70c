#include "src/lease/lease_table.h"

#include <algorithm>

namespace gemini {

LeaseTable::LeaseTable(const Clock* clock, Options options)
    : clock_(clock), options_(options) {}

void LeaseTable::ExpireLocked(KeyLeases& kl, Timestamp now) {
  if (kl.i_token != kNoLease && kl.i_expiry <= now) {
    kl.i_token = kNoLease;
  }
  auto expired = [now](const QLease& q) { return q.expiry <= now; };
  if (std::any_of(kl.qs.begin(), kl.qs.end(), expired)) {
    // A writer died between updating the data store and deleting the entry;
    // the entry may be stale, so the instance must delete it (Section 2.3).
    kl.pending_delete = true;
    kl.qs.erase(std::remove_if(kl.qs.begin(), kl.qs.end(), expired),
                kl.qs.end());
  }
}

void LeaseTable::MaybeEraseLocked(const std::string& key, KeyLeases& kl) {
  if (kl.i_token == kNoLease && kl.qs.empty() && !kl.pending_delete) {
    keys_.erase(key);
  }
}

Result<LeaseToken> LeaseTable::AcquireI(std::string_view key) {
  const Timestamp now = clock_->Now();
  std::lock_guard<std::mutex> lock(mu_);
  auto& kl = keys_[std::string(key)];
  ExpireLocked(kl, now);
  if (kl.i_token != kNoLease || !kl.qs.empty()) {
    return Status(Code::kBackoff, "I/Q lease held");
  }
  kl.i_token = next_token_++;
  kl.i_expiry = now + options_.i_lease_lifetime;
  return kl.i_token;
}

bool LeaseTable::CheckI(std::string_view key, LeaseToken token) {
  if (token == kNoLease) return false;
  const Timestamp now = clock_->Now();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = keys_.find(std::string(key));
  if (it == keys_.end()) return false;
  ExpireLocked(it->second, now);
  return it->second.i_token == token;
}

void LeaseTable::ReleaseI(std::string_view key, LeaseToken token) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = keys_.find(std::string(key));
  if (it == keys_.end()) return;
  if (it->second.i_token == token) {
    it->second.i_token = kNoLease;
    MaybeEraseLocked(it->first, it->second);
  }
}

LeaseToken LeaseTable::AcquireQ(std::string_view key) {
  const Timestamp now = clock_->Now();
  std::lock_guard<std::mutex> lock(mu_);
  auto& kl = keys_[std::string(key)];
  ExpireLocked(kl, now);
  // Q voids an existing I lease (Table 2): the inhibited reader's eventual
  // insert will find its token gone and be ignored.
  kl.i_token = kNoLease;
  const LeaseToken token = next_token_++;
  kl.qs.push_back({token, now + options_.q_lease_lifetime});
  return token;
}

bool LeaseTable::CheckQ(std::string_view key, LeaseToken token) {
  if (token == kNoLease) return false;
  const Timestamp now = clock_->Now();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = keys_.find(std::string(key));
  if (it == keys_.end()) return false;
  ExpireLocked(it->second, now);
  const auto& qs = it->second.qs;
  return std::any_of(qs.begin(), qs.end(),
                     [token](const QLease& q) { return q.token == token; });
}

void LeaseTable::ReleaseQ(std::string_view key, LeaseToken token) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = keys_.find(std::string(key));
  if (it == keys_.end()) return;
  auto& qs = it->second.qs;
  qs.erase(std::remove_if(qs.begin(), qs.end(),
                          [token](const QLease& q) { return q.token == token; }),
           qs.end());
  MaybeEraseLocked(it->first, it->second);
}

void LeaseTable::VoidI(std::string_view key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = keys_.find(std::string(key));
  if (it == keys_.end()) return;
  it->second.i_token = kNoLease;
  MaybeEraseLocked(it->first, it->second);
}

Result<LeaseToken> LeaseTable::AcquireRed(std::string_view key) {
  const Timestamp now = clock_->Now();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = red_.find(std::string(key));
  if (it != red_.end() && it->second.expiry > now) {
    return Status(Code::kBackoff, "Redlease held");
  }
  const LeaseToken token = next_token_++;
  red_[std::string(key)] = {token, now + options_.red_lease_lifetime};
  return token;
}

bool LeaseTable::CheckRed(std::string_view key, LeaseToken token) {
  if (token == kNoLease) return false;
  const Timestamp now = clock_->Now();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = red_.find(std::string(key));
  return it != red_.end() && it->second.token == token &&
         it->second.expiry > now;
}

bool LeaseTable::RenewRed(std::string_view key, LeaseToken token) {
  const Timestamp now = clock_->Now();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = red_.find(std::string(key));
  if (it == red_.end() || it->second.token != token ||
      it->second.expiry <= now) {
    return false;
  }
  it->second.expiry = now + options_.red_lease_lifetime;
  return true;
}

void LeaseTable::ReleaseRed(std::string_view key, LeaseToken token) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = red_.find(std::string(key));
  if (it != red_.end() && it->second.token == token) {
    red_.erase(it);
  }
}

ExpiryAction LeaseTable::ExpireKey(std::string_view key) {
  const Timestamp now = clock_->Now();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = keys_.find(std::string(key));
  if (it == keys_.end()) return {};
  ExpireLocked(it->second, now);
  ExpiryAction action;
  if (it->second.pending_delete) {
    action.delete_entry = true;
    it->second.pending_delete = false;
  }
  MaybeEraseLocked(it->first, it->second);
  return action;
}

std::vector<std::string> LeaseTable::KeysWithQLeases() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [key, kl] : keys_) {
    if (!kl.qs.empty() || kl.pending_delete) out.push_back(key);
  }
  return out;
}

void LeaseTable::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  keys_.clear();
  red_.clear();
}

size_t LeaseTable::LiveKeyCount() {
  const Timestamp now = clock_->Now();
  std::lock_guard<std::mutex> lock(mu_);
  size_t count = 0;
  for (auto& [key, kl] : keys_) {
    ExpireLocked(kl, now);
    if (kl.i_token != kNoLease || !kl.qs.empty()) ++count;
  }
  return count;
}

}  // namespace gemini
