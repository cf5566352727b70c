#include "src/client/gemini_client.h"

#include <algorithm>
#include <cassert>

#include "src/common/logging.h"

namespace gemini {

namespace {

CacheValue ValueFromRecord(const StoreRecord& rec) {
  return rec.data.empty()
             ? CacheValue::OfSize(rec.size_bytes, rec.version)
             : CacheValue::OfData(rec.data, rec.version);
}

}  // namespace

GeminiClient::GeminiClient(const Clock* clock, CoordinatorService* coordinator,
                           std::vector<CacheBackend*> instances,
                           DataStore* store, Options options)
    : clock_(clock),
      coordinator_(coordinator),
      instances_(std::move(instances)),
      store_(store),
      options_(options) {
  assert(coordinator_ != nullptr);
  assert(store_ != nullptr);
}

ConfigurationPtr GeminiClient::config() const {
  std::lock_guard<std::mutex> lock(mu_);
  return config_;
}

GeminiClient::Stats GeminiClient::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void GeminiClient::ForgetState() {
  std::lock_guard<std::mutex> lock(mu_);
  config_.reset();
  dirty_lists_.clear();
  pending_clean_.clear();
}

void GeminiClient::RefreshConfig(Session& session) {
  session.BillCoordinatorOp();
  ConfigurationPtr fresh = coordinator_->GetConfiguration();
  if (fresh == nullptr) {
    // Coordinator (or the whole coordinator group) unreachable: keep the
    // cached configuration, if any - Section 3.3's client story degrades to
    // store reads / suspended writes only for clients with no cache at all.
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (config_ == nullptr || fresh->id() >= config_->id()) {
    config_ = std::move(fresh);
    DropStaleDirtyLists(*config_);
  }
}

ConfigId GeminiClient::Bootstrap(Session& session, InstanceId via_instance) {
  // Section 3.3: a recovering client fetches the configuration from an
  // instance's cache entry; only if the entry was evicted does it fall back
  // to the coordinator.
  if (via_instance < instances_.size()) {
    session.BillCacheOp(via_instance);
    OpContext internal{kInternalConfigId, kInvalidFragment};
    auto payload = instances_[via_instance]->Get(internal, ConfigKey());
    if (payload.ok()) {
      auto parsed = Configuration::Deserialize(payload->data);
      if (parsed.has_value()) {
        std::lock_guard<std::mutex> lock(mu_);
        if (config_ == nullptr || parsed->id() >= config_->id()) {
          config_ = std::make_shared<Configuration>(std::move(*parsed));
          DropStaleDirtyLists(*config_);
        }
        return config_->id();
      }
    }
  }
  RefreshConfig(session);
  auto cfg = config();
  return cfg == nullptr ? 0 : cfg->id();
}

void GeminiClient::MarkKeyClean(FragmentId fragment, uint32_t epoch,
                                std::string_view key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = dirty_lists_.find(fragment);
  if (it != dirty_lists_.end() && it->second.epoch == epoch) {
    it->second.list.Remove(key);
    return;
  }
  auto& pending = pending_clean_[fragment];
  if (pending.epoch != epoch) {
    pending.epoch = epoch;
    pending.keys.clear();
  }
  pending.keys.emplace_back(key);
}

void GeminiClient::DropStaleDirtyLists(const Configuration& config) {
  // Requires mu_ held. Once a fragment leaves recovery mode, its dirty list
  // is obsolete: "clients stop looking up keys in the dirty list of this
  // fragment and discard this dirty list" (Section 3.2.3).
  auto stale = [&config](FragmentId f) {
    return f >= config.num_fragments() ||
           config.fragment(f).mode != FragmentMode::kRecovery;
  };
  for (auto it = dirty_lists_.begin(); it != dirty_lists_.end();) {
    it = stale(it->first) ? dirty_lists_.erase(it) : std::next(it);
  }
  for (auto it = pending_clean_.begin(); it != pending_clean_.end();) {
    it = stale(it->first) ? pending_clean_.erase(it) : std::next(it);
  }
}

ConfigurationPtr GeminiClient::EnsureConfig(Session& session) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (config_ != nullptr &&
        (!options_.follow_config_pushes ||
         coordinator_->latest_id() <= config_->id())) {
      return config_;
    }
  }
  RefreshConfig(session);
  return config();
}

bool GeminiClient::WstActive(FragmentId fragment,
                             const FragmentAssignment& a) const {
  if (!options_.working_set_transfer) return false;
  if (a.secondary == kInvalidInstance) return false;
  if (recovery_state_ != nullptr && recovery_state_->WstTerminated(fragment)) {
    return false;
  }
  return true;
}

// ---- Read -------------------------------------------------------------------

std::unordered_map<InstanceId, std::vector<size_t>>
GeminiClient::GroupByServingReplica(const Configuration& cfg,
                                    const std::vector<std::string>& keys)
    const {
  std::unordered_map<InstanceId, std::vector<size_t>> by_target;
  for (size_t i = 0; i < keys.size(); ++i) {
    const FragmentAssignment& a = cfg.fragment(cfg.FragmentOf(keys[i]));
    InstanceId target = kInvalidInstance;
    switch (a.mode) {
      case FragmentMode::kNormal:
        target = a.primary;
        break;
      case FragmentMode::kTransient:
        target = a.secondary;
        break;
      case FragmentMode::kRecovery:
        break;
    }
    if (target == kInvalidInstance || target >= instances_.size()) continue;
    by_target[target].push_back(i);
  }
  return by_target;
}

size_t GeminiClient::WarmUp(Session& session,
                            const std::vector<std::string>& keys) {
  ConfigurationPtr cfg = EnsureConfig(session);
  if (cfg == nullptr) return 0;

  // Every burst of IqGets is both the probe and the lease grant: a hit is
  // already cached, and a miss comes back holding its I token, so it goes
  // straight to the store and posts its fill. A burst is capped so that its
  // last token is filled well within the I lease lifetime even when the
  // store is slow; a lapsed token drops its fill and leaves the key cold.
  constexpr size_t kBurstKeys = 64;
  size_t already_cached = 0;
  std::vector<bool> settled(keys.size(), false);
  for (auto& [target, idxs] : GroupByServingReplica(*cfg, keys)) {
    for (size_t base = 0; base < idxs.size(); base += kBurstKeys) {
      const size_t end = std::min(idxs.size(), base + kBurstKeys);
      std::vector<GetRequest> reqs;
      reqs.reserve(end - base);
      for (size_t j = base; j < end; ++j) {
        session.BillCacheOp(target);
        const std::string& key = keys[idxs[j]];
        reqs.push_back({OpContext{cfg->id(), cfg->FragmentOf(key)}, key});
      }
      auto results = instances_[target]->MultiIqGet(reqs);
      for (size_t j = 0; j < reqs.size(); ++j) {
        if (!results[j].ok()) continue;
        settled[idxs[base + j]] = true;
        if (results[j]->value.has_value()) {
          ++already_cached;
          continue;
        }
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.reads;
        }
        (void)FillFromStore(session, reqs[j].key, reqs[j].ctx.fragment, target,
                            cfg->id(), results[j]->i_token);
      }
    }
  }

  // Keys on recovery-mode fragments (their reads must consult the dirty
  // list, Algorithm 1) and every slot the bursts failed — a lease collision,
  // a configuration change, an unreachable replica — take the full read
  // path, which backs off, refreshes the configuration and falls back as
  // usual.
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!settled[i]) (void)Read(session, keys[i]);
  }
  return already_cached;
}

size_t GeminiClient::InvalidateKeys(Session& session,
                                    const std::vector<std::string>& keys) {
  ConfigurationPtr cfg = EnsureConfig(session);
  if (cfg == nullptr) return 0;

  // Every replica's group becomes one pipelined MultiDelete frame.
  // Recovery-mode fragments are skipped — their invalidations must arm the
  // dirty list via the leased Write() path, which a token-less bulk delete
  // cannot do.
  size_t dropped = 0;
  for (auto& [target, idxs] : GroupByServingReplica(*cfg, keys)) {
    std::vector<DeleteRequest> reqs;
    reqs.reserve(idxs.size());
    for (const size_t i : idxs) {
      session.BillCacheOp(target);
      reqs.push_back({OpContext{cfg->id(), cfg->FragmentOf(keys[i])},
                      keys[i]});
    }
    auto results = instances_[target]->MultiDelete(reqs);
    for (const Status& s : results) {
      if (s.ok()) ++dropped;
    }
  }
  return dropped;
}

Result<GeminiClient::ReadResult> GeminiClient::Read(Session& session,
                                                    std::string_view key) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.reads;
  }
  for (int attempt = 0; attempt < options_.max_config_retries; ++attempt) {
    ConfigurationPtr cfg = EnsureConfig(session);
    if (cfg == nullptr) return Status(Code::kUnavailable, "no configuration");
    const FragmentId f = cfg->FragmentOf(key);
    const FragmentAssignment& a = cfg->fragment(f);

    Result<ReadResult> r = Status(Code::kInternal);
    switch (a.mode) {
      case FragmentMode::kNormal:
        r = a.primary == kInvalidInstance
                ? Result<ReadResult>(Status(Code::kUnavailable))
                : ReadViaReplica(session, key, f, a.primary, cfg->id());
        break;
      case FragmentMode::kTransient:
        r = a.secondary == kInvalidInstance
                ? Result<ReadResult>(Status(Code::kUnavailable))
                : ReadViaReplica(session, key, f, a.secondary, cfg->id());
        break;
      case FragmentMode::kRecovery:
        r = ReadRecovery(session, key, f, a, cfg->id());
        break;
    }
    if (r.ok() || r.code() == Code::kNotFound) return r;

    switch (r.code()) {
      case Code::kStaleConfig:
      case Code::kWrongInstance:
      case Code::kUnavailable: {
        const ConfigId before = cfg->id();
        RefreshConfig(session);
        ConfigurationPtr fresh = config();
        if (fresh != nullptr && fresh->id() != before) continue;
        // No newer configuration exists (failover window, Section 2.2, or
        // the coordinator itself is unreachable and the serving replica's
        // fragment lease lapsed): process the read using the data store.
        session.BillStoreQuery();
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.store_reads;
        }
        auto rec = store_->Query(key);
        if (!rec.ok()) return rec.status();
        ReadResult out;
        out.value = ValueFromRecord(*rec);
        return out;
      }
      default:
        return r.status();
    }
  }
  return Status(Code::kUnavailable, "configuration retries exhausted");
}

Result<GeminiClient::ReadResult> GeminiClient::ReadViaReplica(
    Session& session, std::string_view key, FragmentId fragment,
    InstanceId target, ConfigId config_id) {
  CacheBackend& inst = *instances_.at(target);
  const OpContext ctx{config_id, fragment};
  for (int i = 0; i <= options_.max_backoff_retries; ++i) {
    session.BillCacheOp(target);
    auto rg = inst.IqGet(ctx, key);
    if (!rg.ok()) {
      if (rg.code() == Code::kBackoff) {
        // Another session holds an I or Q lease on this key; back off and
        // look the cache up again (Section 2.3).
        session.BillBackoff(options_.backoff);
        continue;
      }
      return rg.status();
    }
    if (rg->value.has_value()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.cache_hits;
      ReadResult out;
      out.value = *rg->value;
      out.cache_hit = true;
      out.instance = target;
      out.routed = target;
      return out;
    }
    return FillFromStore(session, key, fragment, target, config_id,
                         rg->i_token);
  }
  // Lease collisions persisted past the retry budget: serve the read from
  // the data store without populating the cache.
  session.BillStoreQuery();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.store_reads;
  }
  auto rec = store_->Query(key);
  if (!rec.ok()) return rec.status();
  ReadResult out;
  out.value = ValueFromRecord(*rec);
  return out;
}

Result<GeminiClient::ReadResult> GeminiClient::FillFromStore(
    Session& session, std::string_view key, FragmentId fragment,
    InstanceId target, ConfigId config_id, LeaseToken i_token,
    bool secondary_probed) {
  session.BillStoreQuery();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.store_reads;
  }
  auto rec = store_->Query(key);
  CacheBackend& inst = *instances_.at(target);
  const OpContext ctx{config_id, fragment};
  if (!rec.ok()) {
    // No backing record: release the I lease so other sessions proceed.
    session.BillCacheOp(target);
    inst.PostFill(ctx, key, i_token, std::nullopt);
    return rec.status();
  }
  CacheValue value = ValueFromRecord(*rec);
  session.BillCacheOp(target);
  // Posted, not awaited: if a concurrent write voided our I lease the
  // server drops the insert, but the value we computed is still consistent
  // to return (Lemma 2, Case II), so the verdict changes nothing here.
  inst.PostFill(ctx, key, i_token, value);
  ReadResult out;
  out.value = std::move(value);
  out.instance = target;
  out.routed = target;
  out.secondary_probed = secondary_probed;
  return out;
}

GeminiClient::CachedDirtyList* GeminiClient::EnsureDirtyList(
    Session& session, FragmentId fragment, const FragmentAssignment& a,
    ConfigId config_id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = dirty_lists_.find(fragment);
    if (it != dirty_lists_.end()) {
      if (it->second.epoch == a.epoch) return &it->second;
      // A newer recovery episode: the cached list is obsolete.
      dirty_lists_.erase(it);
    }
  }
  if (a.secondary == kInvalidInstance) return nullptr;
  session.BillCacheOp(a.secondary);
  const OpContext ctx{config_id, kInvalidFragment};
  auto payload = instances_.at(a.secondary)->Get(ctx, DirtyListKey(fragment));
  if (!payload.ok()) {
    if (payload.code() == Code::kNotFound) {
      // Either a recovery worker already drained and deleted the list (a
      // normal-mode configuration is imminent) or the list was evicted. The
      // two are indistinguishable here; report it and let the coordinator
      // decide — it discards the primary only if the fragment is still in
      // recovery mode.
      session.BillCoordinatorOp();
      coordinator_->OnDirtyListUnavailable(fragment);
    }
    return nullptr;
  }
  auto parsed = DirtyList::Parse(payload->data);
  if (!parsed.has_value()) {
    // Partial list (marker lost to eviction + append re-creation).
    session.BillCoordinatorOp();
    coordinator_->OnDirtyListUnavailable(fragment);
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = dirty_lists_.try_emplace(fragment);
  if (inserted || it->second.epoch != a.epoch) {
    it->second.list = std::move(*parsed);
    it->second.epoch = a.epoch;
    // Keys this client already handled (this epoch) before the fetch.
    auto pending = pending_clean_.find(fragment);
    if (pending != pending_clean_.end()) {
      if (pending->second.epoch == a.epoch) {
        for (const auto& k : pending->second.keys) {
          it->second.list.Remove(k);
        }
      }
      pending_clean_.erase(pending);
    }
  }
  return &it->second;
}

Result<GeminiClient::ReadResult> GeminiClient::ReadRecovery(
    Session& session, std::string_view key, FragmentId fragment,
    const FragmentAssignment& a, ConfigId config_id) {
  if (a.primary == kInvalidInstance) return Status(Code::kUnavailable);
  CacheBackend& pr = *instances_.at(a.primary);
  const OpContext ctx{config_id, fragment};

  CachedDirtyList* dl = EnsureDirtyList(session, fragment, a, config_id);
  if (dl == nullptr) {
    // No usable dirty list: we cannot tell valid primary entries from dirty
    // ones. Force a configuration refresh (the coordinator has been told);
    // until it lands, serve from the store.
    return Status(Code::kStaleConfig, "dirty list unavailable");
  }

  for (int i = 0; i <= options_.max_backoff_retries; ++i) {
    LeaseToken token = kNoLease;
    if (dl->list.Contains(key)) {
      // Algorithm 1 lines 6-9: the key is dirty — delete it in the primary
      // and take an I lease there.
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.dirty_hits;
      }
      session.BillCacheOp(a.primary);
      auto r = pr.ISet(ctx, key);
      if (!r.ok()) {
        if (r.code() == Code::kBackoff) {
          session.BillBackoff(options_.backoff);
          continue;
        }
        return r.status();
      }
      dl->list.Remove(key);
      token = *r;
    } else {
      // Algorithm 1 lines 1-5: normal lookup in the primary.
      session.BillCacheOp(a.primary);
      auto rg = pr.IqGet(ctx, key);
      if (!rg.ok()) {
        if (rg.code() == Code::kBackoff) {
          session.BillBackoff(options_.backoff);
          continue;
        }
        return rg.status();
      }
      if (rg->value.has_value()) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.cache_hits;
        ReadResult out;
        out.value = *rg->value;
        out.cache_hit = true;
        out.instance = a.primary;
        out.routed = a.primary;
        return out;
      }
      token = rg->i_token;
    }

    // Cache miss in the primary. Working set transfer (Algorithm 1 lines
    // 10-16): look the key up in the secondary and copy it over.
    if (WstActive(fragment, a)) {
      session.BillCacheOp(a.secondary);
      auto sv = instances_.at(a.secondary)->Get(ctx, key);
      if (sv.ok()) {
        session.BillCacheOp(a.primary);
        pr.PostFill(ctx, key, token, *sv);
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.cache_hits;
        ++stats_.wst_copies;
        ReadResult out;
        out.value = *sv;
        out.cache_hit = true;
        out.from_secondary = true;
        out.instance = a.secondary;
        out.routed = a.primary;
        out.secondary_probed = true;
        return out;
      }
      // A non-NotFound error on the secondary (e.g. it just failed) is
      // treated as a miss; the store path below is always safe.
      return FillFromStore(session, key, fragment, a.primary, config_id,
                           token, /*secondary_probed=*/true);
    }

    // Cache miss in both replicas: compute from the data store.
    return FillFromStore(session, key, fragment, a.primary, config_id, token);
  }

  session.BillStoreQuery();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.store_reads;
  }
  auto rec = store_->Query(key);
  if (!rec.ok()) return rec.status();
  ReadResult out;
  out.value = ValueFromRecord(*rec);
  return out;
}

// ---- Write ------------------------------------------------------------------

Status GeminiClient::CommitWrite(Session& session, CacheBackend& inst,
                                 InstanceId instance, const OpContext& ctx,
                                 std::string_view key, LeaseToken q_token,
                                 std::optional<std::string>& data,
                                 bool allow_write_back) {
  if (options_.write_policy == WritePolicy::kWriteBack && allow_write_back) {
    // Write-back: reserve the version (cheap metadata round trip), install
    // the buffered value under the Q lease, acknowledge. The flusher
    // applies the payload to the store later.
    session.BillStoreRoundTrip();  // version reservation, not a full update
    const Version version = store_->ReserveVersion(key);
    CacheValue value = data.has_value()
                           ? CacheValue::OfData(std::move(*data), version)
                           : CacheValue::OfSize(0, version);
    data.reset();
    session.BillCacheOp(instance);
    Status s = inst.WriteBackInstall(ctx, key, std::move(value), q_token);
    if (s.ok() || s.code() == Code::kLeaseInvalid) {
      // kLeaseInvalid: Q expired mid-session; the entry is deleted by the
      // expiry rule and the reservation commits vacuously later.
      return Status::Ok();
    }
    // Could not buffer (e.g. value larger than the cache): fall through to
    // a synchronous write so the reservation is committed immediately.
    store_->CommitReserved(key, version, std::nullopt);
    session.BillStoreUpdate();
    session.BillCacheOp(instance);
    return inst.Dar(ctx, key, q_token);
  }
  session.BillStoreUpdate();
  if (options_.write_policy == WritePolicy::kWriteThrough ||
      (options_.write_policy == WritePolicy::kWriteBack &&
       !allow_write_back)) {
    // Write-through: install the post-update record under the same Q lease
    // (replace-and-release) instead of deleting the entry.
    StoreRecord rec = store_->UpdateAndGet(key, std::move(data));
    data.reset();
    session.BillCacheOp(instance);
    Status s = inst.Rar(ctx, key, ValueFromRecord(rec), q_token);
    // kLeaseInvalid: the Q lease expired mid-session; the expiry rule
    // deletes the entry, which is consistent (the write reached the store).
    return s.code() == Code::kLeaseInvalid ? Status::Ok() : s;
  }
  store_->Update(key, std::move(data));
  data.reset();
  session.BillCacheOp(instance);
  return inst.Dar(ctx, key, q_token);
}

Status GeminiClient::Write(Session& session, std::string_view key,
                           std::optional<std::string> data) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.writes;
  }
  for (int attempt = 0; attempt < options_.max_config_retries; ++attempt) {
    ConfigurationPtr cfg = EnsureConfig(session);
    if (cfg == nullptr) return Status(Code::kUnavailable, "no configuration");
    const FragmentId f = cfg->FragmentOf(key);
    const FragmentAssignment& a = cfg->fragment(f);
    const ConfigId id = cfg->id();

    Status s(Code::kInternal);
    switch (a.mode) {
      case FragmentMode::kNormal: {
        if (a.primary == kInvalidInstance) {
          s = Status(Code::kUnavailable);
          break;
        }
        // Write-around in normal mode: Q lease, store update, delete-and-
        // release (Section 2.3).
        CacheBackend& inst = *instances_.at(a.primary);
        const OpContext ctx{id, f};
        session.BillCacheOp(a.primary);
        auto q = inst.Qareg(ctx, key);
        if (!q.ok()) {
          s = q.status();
          break;
        }
        s = CommitWrite(session, inst, a.primary, ctx, key, *q, data,
                        /*allow_write_back=*/true);
        break;
      }
      case FragmentMode::kTransient: {
        if (a.secondary == kInvalidInstance) {
          s = Status(Code::kUnavailable);
          break;
        }
        // Section 3.1: invalidate in the secondary and record the key on the
        // fragment's dirty list. The append precedes the store update so a
        // confirmed write is always covered by the list.
        CacheBackend& inst = *instances_.at(a.secondary);
        const OpContext ctx{id, f};
        session.BillCacheOp(a.secondary);
        auto q = inst.Qareg(ctx, key);
        if (!q.ok()) {
          s = q.status();
          break;
        }
        if (options_.maintain_dirty_lists) {
          session.BillCacheOp(a.secondary);
          const OpContext list_ctx{id, kInvalidFragment};
          Status append = inst.Append(list_ctx, DirtyListKey(f),
                                      DirtyList::EncodeRecord(key));
          if (!append.ok()) {
            s = append;
            break;
          }
        }
        s = CommitWrite(session, inst, a.secondary, ctx, key, *q, data,
                        /*allow_write_back=*/false);
        break;
      }
      case FragmentMode::kRecovery: {
        if (a.primary == kInvalidInstance) {
          s = Status(Code::kUnavailable);
          break;
        }
        // Algorithm 2.
        CacheBackend& pr = *instances_.at(a.primary);
        const OpContext ctx{id, f};
        session.BillCacheOp(a.primary);
        auto q = pr.Qareg(ctx, key);
        if (!q.ok()) {
          s = q.status();
          break;
        }
        const bool touch_secondary =
            a.secondary != kInvalidInstance &&
            (options_.delete_secondary_on_recovery_write ||
             WstActive(f, a));
        if (touch_secondary) {
          session.BillCacheOp(a.secondary);
          // Ignore failures: if the secondary just died the coordinator is
          // about to terminate the transfer anyway (Section 3.3).
          (void)instances_.at(a.secondary)->Delete(ctx, key);
        }
        s = CommitWrite(session, pr, a.primary, ctx, key, *q, data,
                        /*allow_write_back=*/false);
        if (s.ok()) MarkKeyClean(f, a.epoch, key);
        break;
      }
    }
    if (s.ok()) return s;

    switch (s.code()) {
      case Code::kStaleConfig:
      case Code::kWrongInstance:
      case Code::kUnavailable: {
        const ConfigId before = id;
        RefreshConfig(session);
        ConfigurationPtr fresh = config();
        if (fresh != nullptr && fresh->id() != before) continue;
        // No newer configuration (failover window, Section 2.2, or the
        // coordinator is unreachable with lapsed fragment leases): suspend
        // the write until one appears.
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.suspended_writes;
        return Status(Code::kSuspended);
      }
      default:
        return s;
    }
  }
  return Status(Code::kUnavailable, "configuration retries exhausted");
}

}  // namespace gemini
