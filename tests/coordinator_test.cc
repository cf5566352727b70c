// Coordinator tests: the fragment lifecycle of Figure 4, configuration
// publication (Section 2.1), and the Rejig discard rule (Section 3.2.4,
// Example 3.1).
#include "src/coordinator/coordinator.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/cache/dirty_list.h"

namespace gemini {
namespace {

class CoordinatorTest : public ::testing::Test {
 protected:
  static constexpr size_t kInstances = 4;
  static constexpr size_t kFragments = 8;

  void Build(Coordinator::Options opts = {}) {
    instances_.clear();
    raw_.clear();
    for (size_t i = 0; i < kInstances; ++i) {
      instances_.push_back(std::make_unique<CacheInstance>(
          static_cast<InstanceId>(i), &clock_));
      raw_.push_back(instances_.back().get());
    }
    coordinator_ =
        std::make_unique<Coordinator>(&clock_, raw_, kFragments, opts);
  }

  CacheInstance& inst(InstanceId i) { return *raw_[i]; }

  VirtualClock clock_;
  std::vector<std::unique_ptr<CacheInstance>> instances_;
  std::vector<CacheInstance*> raw_;
  std::unique_ptr<Coordinator> coordinator_;
};

TEST_F(CoordinatorTest, InitialConfigAssignsRoundRobin) {
  Build();
  auto cfg = coordinator_->GetConfiguration();
  ASSERT_NE(cfg, nullptr);
  EXPECT_EQ(cfg->num_fragments(), kFragments);
  for (FragmentId f = 0; f < kFragments; ++f) {
    EXPECT_EQ(cfg->fragment(f).primary, f % kInstances);
    EXPECT_EQ(cfg->fragment(f).secondary, kInvalidInstance);
    EXPECT_EQ(cfg->fragment(f).mode, FragmentMode::kNormal);
  }
}

TEST_F(CoordinatorTest, InitialPublishInsertsConfigEntry) {
  Build();
  OpContext internal{kInternalConfigId, kInvalidFragment};
  for (size_t i = 0; i < kInstances; ++i) {
    auto entry = inst(static_cast<InstanceId>(i)).Get(internal, ConfigKey());
    ASSERT_TRUE(entry.ok()) << "instance " << i;
    auto parsed = Configuration::Deserialize(entry->data);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->id(), coordinator_->latest_id());
  }
}

TEST_F(CoordinatorTest, FailureCreatesSecondariesAndDirtyLists) {
  Build();
  const ConfigId before = coordinator_->latest_id();
  coordinator_->OnInstanceFailed(0);
  auto cfg = coordinator_->GetConfiguration();
  EXPECT_GT(cfg->id(), before);
  OpContext internal{kInternalConfigId, kInvalidFragment};
  for (FragmentId f = 0; f < kFragments; ++f) {
    const auto& a = cfg->fragment(f);
    if (f % kInstances == 0) {  // fragments of the failed instance
      EXPECT_EQ(a.mode, FragmentMode::kTransient);
      ASSERT_NE(a.secondary, kInvalidInstance);
      EXPECT_NE(a.secondary, 0u);
      EXPECT_EQ(a.config_id, cfg->id());
      // Marker-bearing dirty list initialized in the secondary.
      auto list = inst(a.secondary).Get(internal, DirtyListKey(f));
      ASSERT_TRUE(list.ok());
      EXPECT_TRUE(DirtyList::Parse(list->data).has_value());
    } else {
      EXPECT_EQ(a.mode, FragmentMode::kNormal);
    }
  }
}

TEST_F(CoordinatorTest, SecondariesSpreadAcrossSurvivors) {
  Build();
  coordinator_->OnInstanceFailed(0);
  auto cfg = coordinator_->GetConfiguration();
  std::vector<int> counts(kInstances, 0);
  for (FragmentId f = 0; f < kFragments; ++f) {
    const auto& a = cfg->fragment(f);
    if (a.mode == FragmentMode::kTransient) ++counts[a.secondary];
  }
  EXPECT_EQ(counts[0], 0);
  // 2 fragments spread round-robin over 3 survivors: max 1 apart.
  for (size_t i = 1; i < kInstances; ++i) {
    EXPECT_GE(counts[i], 0);
    EXPECT_LE(counts[i], 1 + 2 / 3 + 1);
  }
}

TEST_F(CoordinatorTest, EmulatedFailureRevokesStragglerLeases) {
  // The paper emulates failures by config removal: the "failed" instance is
  // still reachable but must stop serving its fragments.
  Build();
  coordinator_->OnInstanceFailed(0);
  OpContext ctx{coordinator_->latest_id(), /*fragment=*/0};
  EXPECT_EQ(inst(0).Get(ctx, "k").code(), Code::kWrongInstance);
}

TEST_F(CoordinatorTest, RecoveryWithDirtyListEntersRecoveryMode) {
  Build();
  auto pre = coordinator_->GetConfiguration();
  const ConfigId prefailure = pre->fragment(0).config_id;
  coordinator_->OnInstanceFailed(0);
  coordinator_->OnInstanceRecovered(0);
  auto cfg = coordinator_->GetConfiguration();
  const auto& a = cfg->fragment(0);
  EXPECT_EQ(a.mode, FragmentMode::kRecovery);
  EXPECT_EQ(a.primary, 0u);
  EXPECT_NE(a.secondary, kInvalidInstance);
  // Figure 4 transition (2): config id restored to the pre-failure value so
  // the primary's persistent entries validate.
  EXPECT_EQ(a.config_id, prefailure);
}

TEST_F(CoordinatorTest, RecoveryWithoutDirtyListDiscardsPrimary) {
  Build();
  coordinator_->OnInstanceFailed(0);
  // Simulate eviction of fragment 0's dirty list from its secondary.
  auto mid = coordinator_->GetConfiguration();
  const InstanceId sec = mid->fragment(0).secondary;
  OpContext internal{kInternalConfigId, kInvalidFragment};
  ASSERT_TRUE(inst(sec).Delete(internal, DirtyListKey(0)).ok());

  coordinator_->OnInstanceRecovered(0);
  auto cfg = coordinator_->GetConfiguration();
  // Fragment 0: unrecoverable -> discarded (config id bumped to latest),
  // back on the recovered instance in normal mode.
  EXPECT_EQ(cfg->fragment(0).mode, FragmentMode::kNormal);
  EXPECT_EQ(cfg->fragment(0).primary, 0u);
  EXPECT_EQ(cfg->fragment(0).config_id, cfg->id());
  EXPECT_EQ(coordinator_->discarded_fragment_count(), 1u);
  // Fragment 4 (also on instance 0) kept its dirty list -> recovery mode.
  EXPECT_EQ(cfg->fragment(4).mode, FragmentMode::kRecovery);
}

TEST_F(CoordinatorTest, PartialDirtyListAlsoDiscards) {
  Build();
  coordinator_->OnInstanceFailed(0);
  auto mid = coordinator_->GetConfiguration();
  const InstanceId sec = mid->fragment(0).secondary;
  OpContext internal{kInternalConfigId, kInvalidFragment};
  // Replace the list with a marker-less (partial) payload.
  ASSERT_TRUE(inst(sec)
                  .Set(internal, DirtyListKey(0),
                       CacheValue::OfData(DirtyList::EncodeRecord("k")))
                  .ok());
  coordinator_->OnInstanceRecovered(0);
  EXPECT_EQ(coordinator_->ModeOf(0), FragmentMode::kNormal);
  EXPECT_EQ(coordinator_->discarded_fragment_count(), 1u);
}

TEST_F(CoordinatorTest, DirtyProcessedAndWstTerminatedCompleteRecovery) {
  Coordinator::Options opts;
  opts.policy = RecoveryPolicy::GeminiOW();
  Build(opts);
  coordinator_->OnInstanceFailed(0);
  coordinator_->OnInstanceRecovered(0);
  ASSERT_EQ(coordinator_->ModeOf(0), FragmentMode::kRecovery);

  coordinator_->OnDirtyListProcessed(0);
  // WST still running: not yet normal (Figure 4 transition (3)).
  EXPECT_EQ(coordinator_->ModeOf(0), FragmentMode::kRecovery);
  coordinator_->OnWorkingSetTransferTerminated(0);
  EXPECT_EQ(coordinator_->ModeOf(0), FragmentMode::kNormal);
  auto cfg = coordinator_->GetConfiguration();
  EXPECT_EQ(cfg->fragment(0).secondary, kInvalidInstance);
}

TEST_F(CoordinatorTest, WithoutWstDirtyProcessedSuffices) {
  Coordinator::Options opts;
  opts.policy = RecoveryPolicy::GeminiO();
  Build(opts);
  coordinator_->OnInstanceFailed(0);
  coordinator_->OnInstanceRecovered(0);
  coordinator_->OnDirtyListProcessed(0);
  EXPECT_EQ(coordinator_->ModeOf(0), FragmentMode::kNormal);
}

TEST_F(CoordinatorTest, PrimaryFailingAgainReturnsToTransient) {
  Build();
  coordinator_->OnInstanceFailed(0);
  coordinator_->OnInstanceRecovered(0);
  ASSERT_EQ(coordinator_->ModeOf(0), FragmentMode::kRecovery);
  // Figure 4 transition (5).
  coordinator_->OnInstanceFailed(0);
  EXPECT_EQ(coordinator_->ModeOf(0), FragmentMode::kTransient);
  auto cfg = coordinator_->GetConfiguration();
  EXPECT_NE(cfg->fragment(0).secondary, kInvalidInstance);
}

TEST_F(CoordinatorTest, SecondaryFailureInTransientReassignsFragment) {
  Build();
  coordinator_->OnInstanceFailed(0);
  auto mid = coordinator_->GetConfiguration();
  const InstanceId sec = mid->fragment(0).secondary;
  coordinator_->OnInstanceFailed(sec);
  auto cfg = coordinator_->GetConfiguration();
  const auto& a = cfg->fragment(0);
  // Dirty list lost while the primary is down: discard + move to a live host.
  EXPECT_EQ(a.mode, FragmentMode::kNormal);
  EXPECT_NE(a.primary, 0u);
  EXPECT_NE(a.primary, sec);
  EXPECT_EQ(a.config_id, cfg->id());
  EXPECT_GE(coordinator_->discarded_fragment_count(), 1u);
}

TEST_F(CoordinatorTest, SecondaryFailureInRecoveryDropsSecondary) {
  Build();
  coordinator_->OnInstanceFailed(0);
  coordinator_->OnInstanceRecovered(0);
  auto mid = coordinator_->GetConfiguration();
  const InstanceId sec = mid->fragment(0).secondary;
  ASSERT_EQ(mid->fragment(0).mode, FragmentMode::kRecovery);
  coordinator_->OnInstanceFailed(sec);
  auto cfg = coordinator_->GetConfiguration();
  // Section 3.3: fragment stays in recovery; the secondary is gone and WST
  // is terminated, so completing the dirty list finishes recovery.
  EXPECT_EQ(cfg->fragment(0).mode, FragmentMode::kRecovery);
  EXPECT_EQ(cfg->fragment(0).secondary, kInvalidInstance);
  coordinator_->OnDirtyListProcessed(0);
  EXPECT_EQ(coordinator_->ModeOf(0), FragmentMode::kNormal);
}

TEST_F(CoordinatorTest, OnDirtyListUnavailableDiscardsMidRecovery) {
  Build();
  coordinator_->OnInstanceFailed(0);
  coordinator_->OnInstanceRecovered(0);
  ASSERT_EQ(coordinator_->ModeOf(0), FragmentMode::kRecovery);
  coordinator_->OnDirtyListUnavailable(0);
  auto cfg = coordinator_->GetConfiguration();
  EXPECT_EQ(cfg->fragment(0).mode, FragmentMode::kNormal);
  EXPECT_EQ(cfg->fragment(0).config_id, cfg->id());
  EXPECT_EQ(coordinator_->discarded_fragment_count(), 1u);
  // No-op when the fragment is not in recovery mode.
  coordinator_->OnDirtyListUnavailable(0);
  EXPECT_EQ(coordinator_->discarded_fragment_count(), 1u);
}

TEST_F(CoordinatorTest, StaleCachePolicyRestoresContentWithoutRecovery) {
  Coordinator::Options opts;
  opts.policy = RecoveryPolicy::StaleCache();
  Build(opts);
  auto pre = coordinator_->GetConfiguration();
  const ConfigId prefailure = pre->fragment(0).config_id;
  coordinator_->OnInstanceFailed(0);
  coordinator_->OnInstanceRecovered(0);
  auto cfg = coordinator_->GetConfiguration();
  EXPECT_EQ(cfg->fragment(0).mode, FragmentMode::kNormal);
  EXPECT_EQ(cfg->fragment(0).primary, 0u);
  // Content reused verbatim: config id restored (stale reads possible).
  EXPECT_EQ(cfg->fragment(0).config_id, prefailure);
}

TEST_F(CoordinatorTest, VolatileCachePolicyBumpsConfigId) {
  Coordinator::Options opts;
  opts.policy = RecoveryPolicy::VolatileCache();
  Build(opts);
  coordinator_->OnInstanceFailed(0);
  inst(0).RecoverVolatile();
  coordinator_->OnInstanceRecovered(0);
  auto cfg = coordinator_->GetConfiguration();
  EXPECT_EQ(cfg->fragment(0).mode, FragmentMode::kNormal);
  EXPECT_EQ(cfg->fragment(0).config_id, cfg->id());
}

TEST_F(CoordinatorTest, DirtyListBudgetDiscardsOversizedLists) {
  Coordinator::Options opts;
  opts.dirty_list_byte_budget = 64;
  Build(opts);
  coordinator_->OnInstanceFailed(0);
  auto mid = coordinator_->GetConfiguration();
  const InstanceId sec = mid->fragment(0).secondary;
  // Under budget: nothing happens.
  EXPECT_FALSE(coordinator_->EnforceDirtyListBudget(0));
  // Blow the budget.
  OpContext internal{kInternalConfigId, kInvalidFragment};
  ASSERT_TRUE(
      inst(sec).Append(internal, DirtyListKey(0), std::string(200, 'k')).ok());
  EXPECT_TRUE(coordinator_->EnforceDirtyListBudget(0));
  auto cfg = coordinator_->GetConfiguration();
  // Figure 4 transition (4): secondary promoted to primary, normal mode.
  EXPECT_EQ(cfg->fragment(0).mode, FragmentMode::kNormal);
  EXPECT_EQ(cfg->fragment(0).primary, sec);
  EXPECT_EQ(cfg->fragment(0).config_id, cfg->id());
}

// Example 3.1 from the paper, reproduced end to end.
TEST_F(CoordinatorTest, ExampleThreeDotOne) {
  Build();
  // Two fragments on instance 0: 0 and 4. Give fragment 4's dirty list a
  // different fate than fragment 0's.
  auto pre = coordinator_->GetConfiguration();
  const ConfigId id_at_assignment = pre->fragment(0).config_id;

  coordinator_->OnInstanceFailed(0);
  auto transient_cfg = coordinator_->GetConfiguration();
  // Assignment changed in this configuration: ids updated.
  EXPECT_EQ(transient_cfg->fragment(0).config_id, transient_cfg->id());
  EXPECT_EQ(transient_cfg->fragment(4).config_id, transient_cfg->id());

  // Fragment 4's dirty list is evicted and lost.
  const InstanceId sec4 = transient_cfg->fragment(4).secondary;
  OpContext internal{kInternalConfigId, kInvalidFragment};
  ASSERT_TRUE(inst(sec4).Delete(internal, DirtyListKey(4)).ok());

  coordinator_->OnInstanceRecovered(0);
  auto cfg = coordinator_->GetConfiguration();
  // Fragment 0 transitions to recovery with its pre-failure id restored...
  EXPECT_EQ(cfg->fragment(0).mode, FragmentMode::kRecovery);
  EXPECT_EQ(cfg->fragment(0).config_id, id_at_assignment);
  // ...while fragment 4's id is bumped to the latest, discarding every entry
  // of its primary replica on the recovered instance.
  EXPECT_EQ(cfg->fragment(4).mode, FragmentMode::kNormal);
  EXPECT_EQ(cfg->fragment(4).config_id, cfg->id());
}

TEST_F(CoordinatorTest, PublishedConfigEntryTracksLatest) {
  Build();
  coordinator_->OnInstanceFailed(0);
  coordinator_->OnInstanceRecovered(0);
  OpContext internal{kInternalConfigId, kInvalidFragment};
  auto entry = inst(0).Get(internal, ConfigKey());
  ASSERT_TRUE(entry.ok());
  auto parsed = Configuration::Deserialize(entry->data);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->id(), coordinator_->latest_id());
}

TEST_F(CoordinatorTest, FragmentsInModeAndWithPrimary) {
  Build();
  coordinator_->OnInstanceFailed(0);
  auto transient = coordinator_->FragmentsInMode(FragmentMode::kTransient);
  EXPECT_EQ(transient.size(), kFragments / kInstances);
  auto of0 = coordinator_->FragmentsWithPrimary(0);
  EXPECT_EQ(of0.size(), kFragments / kInstances);
}

/// An endpoint whose GrantLease can be made to block until released — a
/// lease RPC to a slow or wedged instance, held with the coordinator's lock.
class LatchedEndpoint : public InstanceEndpoint {
 public:
  bool available() const override { return true; }

  void GrantLease(FragmentId, ConfigId, Duration, ConfigId) override {
    std::unique_lock<std::mutex> lock(mu_);
    if (!block_) return;
    ++blocked_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return !block_; });
  }
  void RevokeLease(FragmentId, ConfigId) override {}
  Result<CacheValue> Get(std::string_view) override {
    return Status(Code::kNotFound);
  }
  Status Set(std::string_view, CacheValue) override { return Status::Ok(); }
  Status Delete(std::string_view) override { return Status::Ok(); }

  void Block() {
    std::lock_guard<std::mutex> lock(mu_);
    block_ = true;
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    block_ = false;
    cv_.notify_all();
  }
  void AwaitBlocked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return blocked_ > 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool block_ = false;
  int blocked_ = 0;
};

TEST(CoordinatorPublishTest, ReadersDoNotWaitForALeaseRenewalInFlight) {
  VirtualClock clock;
  LatchedEndpoint endpoint;
  Coordinator coordinator(&clock, std::vector<InstanceEndpoint*>{&endpoint},
                          /*num_fragments=*/4, Coordinator::Options());
  const ConfigId published = coordinator.latest_id();
  ASSERT_GT(published, 0u);

  endpoint.Block();
  std::thread renewer([&] { coordinator.RenewLeases(); });
  endpoint.AwaitBlocked();  // RenewLeases now holds the coordinator's lock

  auto readers = std::async(std::launch::async, [&] {
    const ConfigurationPtr cfg = coordinator.GetConfiguration();
    return std::make_pair(coordinator.latest_id(),
                          cfg == nullptr ? ConfigId{0} : cfg->id());
  });
  const bool prompt = readers.wait_for(std::chrono::seconds(2)) ==
                      std::future_status::ready;
  endpoint.Release();
  renewer.join();
  ASSERT_TRUE(prompt) << "configuration readers waited on the lease fan-out";
  const auto [latest, config_id] = readers.get();
  EXPECT_EQ(latest, published);
  EXPECT_EQ(config_id, published);
}

}  // namespace
}  // namespace gemini
