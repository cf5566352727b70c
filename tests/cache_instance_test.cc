// CacheInstance tests: IQ data path, LRU/eviction, Rejig config-id
// validation, fragment leases, and persistence emulation.
#include "src/cache/cache_instance.h"

#include <gtest/gtest.h>

#include "src/common/clock.h"

namespace gemini {
namespace {

class CacheInstanceTest : public ::testing::Test {
 protected:
  CacheInstanceTest() : inst_(0, &clock_) {
    // Grant a fragment lease so fragment-scoped ops are servable.
    inst_.GrantFragmentLease(/*fragment=*/0, /*min_valid_config=*/1,
                             clock_.Now() + Seconds(3600),
                             /*latest_config=*/1);
  }

  OpContext Ctx(ConfigId id = 1, FragmentId f = 0) { return OpContext{id, f}; }

  VirtualClock clock_;
  CacheInstance inst_;
};

TEST_F(CacheInstanceTest, MissThenSetThenHit) {
  EXPECT_EQ(inst_.Get(Ctx(), "k").code(), Code::kNotFound);
  ASSERT_TRUE(inst_.Set(Ctx(), "k", CacheValue::OfData("v", 3)).ok());
  auto v = inst_.Get(Ctx(), "k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->data, "v");
  EXPECT_EQ(v->version, 3u);
}

TEST_F(CacheInstanceTest, DeleteRemoves) {
  ASSERT_TRUE(inst_.Set(Ctx(), "k", CacheValue::OfData("v")).ok());
  ASSERT_TRUE(inst_.Delete(Ctx(), "k").ok());
  EXPECT_EQ(inst_.Get(Ctx(), "k").code(), Code::kNotFound);
}

TEST_F(CacheInstanceTest, IqGetMissGrantsILease) {
  auto r = inst_.IqGet(Ctx(), "k");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->value.has_value());
  EXPECT_NE(r->i_token, kNoLease);
}

TEST_F(CacheInstanceTest, SecondIqGetMissBacksOff) {
  (void)inst_.IqGet(Ctx(), "k");
  auto r2 = inst_.IqGet(Ctx(), "k");
  EXPECT_EQ(r2.code(), Code::kBackoff);
}

TEST_F(CacheInstanceTest, IqSetWithValidLeaseInserts) {
  auto r = inst_.IqGet(Ctx(), "k");
  ASSERT_TRUE(inst_.IqSet(Ctx(), "k", CacheValue::OfData("v"), r->i_token).ok());
  auto v = inst_.Get(Ctx(), "k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->data, "v");
}

TEST_F(CacheInstanceTest, IqSetAfterQaregIsIgnored) {
  // The Q lease voids the I lease; the reader's insert must be dropped
  // (prevents caching a stale value over a concurrent write).
  auto r = inst_.IqGet(Ctx(), "k");
  auto q = inst_.Qareg(Ctx(), "k");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(inst_.IqSet(Ctx(), "k", CacheValue::OfData("stale"), r->i_token)
                .code(),
            Code::kLeaseInvalid);
  ASSERT_TRUE(inst_.Dar(Ctx(), "k", *q).ok());
  EXPECT_EQ(inst_.Get(Ctx(), "k").code(), Code::kNotFound);
}

TEST_F(CacheInstanceTest, FillGrantedAfterQLapseDoesNotLandAfterDar) {
  // 1: writer W takes Q. 2: Q lapses (Qareg's eager sync or a slow writer).
  // 3: reader R misses, is granted I and reads v1 from the store. 4: W
  // updates the store to v2 and its Dar is acknowledged. 5: R's fill of v1
  // arrives. Installing it would serve v1 after v2 was acknowledged.
  auto q = inst_.Qareg(Ctx(), "k");
  ASSERT_TRUE(q.ok());
  clock_.Advance(inst_.options().lease_options.q_lease_lifetime + Millis(50));
  auto r = inst_.IqGet(Ctx(), "k");
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->value.has_value());
  ASSERT_TRUE(inst_.Dar(Ctx(), "k", *q).ok());
  EXPECT_EQ(
      inst_.IqSet(Ctx(), "k", CacheValue::OfData("v1", 1), r->i_token).code(),
      Code::kLeaseInvalid);
  EXPECT_EQ(inst_.Get(Ctx(), "k").code(), Code::kNotFound);
}

TEST_F(CacheInstanceTest, StatsCountRejectedFills) {
  auto voided = inst_.IqGet(Ctx(), "a");
  ASSERT_TRUE(inst_.Qareg(Ctx(), "a").ok());
  EXPECT_EQ(inst_.IqSet(Ctx(), "a", CacheValue::OfData("v"), voided->i_token)
                .code(),
            Code::kLeaseInvalid);
  // A fill from a configuration older than the instance's latest is refused
  // by the request check, before its lease is looked at.
  auto stale = inst_.IqGet(Ctx(), "b");
  inst_.ObserveConfigId(2);
  EXPECT_EQ(inst_.IqSet(Ctx(1), "b", CacheValue::OfData("v"), stale->i_token)
                .code(),
            Code::kStaleConfig);
  auto good = inst_.IqGet(Ctx(2), "c");
  ASSERT_TRUE(
      inst_.IqSet(Ctx(2), "c", CacheValue::OfData("v"), good->i_token).ok());
  EXPECT_EQ(inst_.stats().fills_rejected, 2u);
  inst_.ResetCounters();
  EXPECT_EQ(inst_.stats().fills_rejected, 0u);
}

TEST_F(CacheInstanceTest, IqSetAfterExpiryIsIgnored) {
  auto r = inst_.IqGet(Ctx(), "k");
  clock_.Advance(inst_.options().lease_options.i_lease_lifetime + 1);
  EXPECT_EQ(inst_.IqSet(Ctx(), "k", CacheValue::OfData("v"), r->i_token).code(),
            Code::kLeaseInvalid);
}

TEST_F(CacheInstanceTest, DarDeletesEntryAndReleasesQ) {
  ASSERT_TRUE(inst_.Set(Ctx(), "k", CacheValue::OfData("v")).ok());
  auto q = inst_.Qareg(Ctx(), "k");
  ASSERT_TRUE(inst_.Dar(Ctx(), "k", *q).ok());
  EXPECT_EQ(inst_.Get(Ctx(), "k").code(), Code::kNotFound);
  // Q released: a new I lease is grantable.
  EXPECT_TRUE(inst_.IqGet(Ctx(), "k").ok());
}

TEST_F(CacheInstanceTest, ExpiredQLeaseDeletesEntryOnNextTouch) {
  // Section 2.3: a Q lease that times out deletes its associated entry —
  // the writer may have died between the store update and the delete.
  ASSERT_TRUE(inst_.Set(Ctx(), "k", CacheValue::OfData("old")).ok());
  (void)inst_.Qareg(Ctx(), "k");
  clock_.Advance(inst_.options().lease_options.q_lease_lifetime + 1);
  EXPECT_EQ(inst_.Get(Ctx(), "k").code(), Code::kNotFound);
}

TEST_F(CacheInstanceTest, ISetDeletesAndGrantsI) {
  ASSERT_TRUE(inst_.Set(Ctx(), "k", CacheValue::OfData("old")).ok());
  auto t = inst_.ISet(Ctx(), "k");
  ASSERT_TRUE(t.ok());
  EXPECT_FALSE(inst_.ContainsRaw("k"));
  // Complete the overwrite as a recovery worker would.
  ASSERT_TRUE(inst_.IqSet(Ctx(), "k", CacheValue::OfData("new"), *t).ok());
  EXPECT_EQ(inst_.Get(Ctx(), "k")->data, "new");
}

TEST_F(CacheInstanceTest, ISetBacksOffUnderExistingLease) {
  (void)inst_.IqGet(Ctx(), "k");  // holds I
  EXPECT_EQ(inst_.ISet(Ctx(), "k").code(), Code::kBackoff);
}

TEST_F(CacheInstanceTest, IDeleteRemovesAndReleases) {
  ASSERT_TRUE(inst_.Set(Ctx(), "k", CacheValue::OfData("v")).ok());
  auto t = inst_.ISet(Ctx(), "k");
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(inst_.IDelete(Ctx(), "k", *t).ok());
  EXPECT_FALSE(inst_.ContainsRaw("k"));
  EXPECT_TRUE(inst_.IqGet(Ctx(), "k").ok());  // I released
}

TEST_F(CacheInstanceTest, AppendCreatesThenExtends) {
  OpContext internal{kInternalConfigId, kInvalidFragment};
  ASSERT_TRUE(inst_.Append(internal, "list", "a\n").ok());
  ASSERT_TRUE(inst_.Append(internal, "list", "b\n").ok());
  auto v = inst_.Get(internal, "list");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->data, "a\nb\n");
}

// ---- Rejig config-id validation (Section 3.2.4) ----------------------------

TEST_F(CacheInstanceTest, EntryBelowFragmentMinIsDiscarded) {
  ASSERT_TRUE(inst_.Set(Ctx(/*id=*/5), "k", CacheValue::OfData("v")).ok());
  // Raise the fragment's minimum-valid config id past the entry's stamp.
  inst_.GrantFragmentLease(0, /*min_valid_config=*/9,
                           clock_.Now() + Seconds(3600), /*latest=*/9);
  EXPECT_EQ(inst_.Get(Ctx(/*id=*/9), "k").code(), Code::kNotFound);
  EXPECT_EQ(inst_.stats().config_discards, 1u);
  EXPECT_FALSE(inst_.ContainsRaw("k"));  // lazily deleted on access
}

TEST_F(CacheInstanceTest, EntryAtOrAboveFragmentMinIsValid) {
  inst_.GrantFragmentLease(0, 5, clock_.Now() + Seconds(3600), 5);
  ASSERT_TRUE(inst_.Set(Ctx(5), "at", CacheValue::OfData("a")).ok());
  ASSERT_TRUE(inst_.Set(Ctx(7), "above", CacheValue::OfData("b")).ok());
  EXPECT_TRUE(inst_.Get(Ctx(7), "at").ok());
  EXPECT_TRUE(inst_.Get(Ctx(7), "above").ok());
}

TEST_F(CacheInstanceTest, RestoringFragmentMinRevalidatesEntries) {
  // Recovery (Figure 4 transition (2)): the fragment's id is restored to its
  // pre-failure value, making persisted entries servable again.
  ASSERT_TRUE(inst_.Set(Ctx(1), "k", CacheValue::OfData("v")).ok());
  inst_.GrantFragmentLease(0, 10, clock_.Now() + Seconds(3600), 10);
  // Not touched while invalid (no access), so still physically present.
  inst_.GrantFragmentLease(0, 1, clock_.Now() + Seconds(3600), 11);
  auto v = inst_.Get(Ctx(11), "k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->data, "v");
}

TEST_F(CacheInstanceTest, StaleClientConfigRejected) {
  inst_.GrantFragmentLease(0, 1, clock_.Now() + Seconds(3600),
                           /*latest_config=*/7);
  EXPECT_EQ(inst_.Get(Ctx(/*id=*/3), "k").code(), Code::kStaleConfig);
  // Internal operations bypass the staleness check.
  OpContext internal{kInternalConfigId, kInvalidFragment};
  EXPECT_EQ(inst_.Get(internal, "k").code(), Code::kNotFound);
}

TEST_F(CacheInstanceTest, RawConfigIdExposesStamp) {
  ASSERT_TRUE(inst_.Set(Ctx(1), "k", CacheValue::OfData("v")).ok());
  auto id = inst_.RawConfigIdOf("k");
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(*id, 1u);
  EXPECT_FALSE(inst_.RawConfigIdOf("missing").has_value());
}

// ---- Fragment leases ---------------------------------------------------------

TEST_F(CacheInstanceTest, NoFragmentLeaseMeansWrongInstance) {
  EXPECT_EQ(inst_.Get(Ctx(1, /*fragment=*/42), "k").code(),
            Code::kWrongInstance);
}

TEST_F(CacheInstanceTest, RevokedFragmentLeaseStopsServing) {
  ASSERT_TRUE(inst_.Set(Ctx(), "k", CacheValue::OfData("v")).ok());
  inst_.RevokeFragmentLease(0, /*latest_config=*/2);
  EXPECT_EQ(inst_.Get(Ctx(2), "k").code(), Code::kWrongInstance);
}

TEST_F(CacheInstanceTest, ExpiredFragmentLeaseStopsServing) {
  inst_.GrantFragmentLease(0, 1, clock_.Now() + Seconds(1), 1);
  clock_.Advance(Seconds(2));
  EXPECT_EQ(inst_.Get(Ctx(), "k").code(), Code::kWrongInstance);
}

// ---- Eviction ----------------------------------------------------------------

CacheInstance::Options SmallCache(uint64_t bytes) {
  CacheInstance::Options o;
  o.capacity_bytes = bytes;
  o.per_entry_overhead = 0;
  return o;
}

TEST(CacheEviction, LruEvictsColdest) {
  VirtualClock clock;
  CacheInstance inst(0, &clock, SmallCache(30));
  inst.GrantFragmentLease(0, 1, clock.Now() + Seconds(3600), 1);
  OpContext ctx{1, 0};
  // Each entry: key 1 byte + 9 bytes payload = 10 bytes; capacity 3 entries.
  ASSERT_TRUE(inst.Set(ctx, "a", CacheValue::OfSize(9)).ok());
  ASSERT_TRUE(inst.Set(ctx, "b", CacheValue::OfSize(9)).ok());
  ASSERT_TRUE(inst.Set(ctx, "c", CacheValue::OfSize(9)).ok());
  // Touch "a" so "b" is coldest, then insert "d".
  EXPECT_TRUE(inst.Get(ctx, "a").ok());
  ASSERT_TRUE(inst.Set(ctx, "d", CacheValue::OfSize(9)).ok());
  EXPECT_TRUE(inst.ContainsRaw("a"));
  EXPECT_FALSE(inst.ContainsRaw("b"));
  EXPECT_TRUE(inst.ContainsRaw("c"));
  EXPECT_TRUE(inst.ContainsRaw("d"));
  EXPECT_EQ(inst.stats().evictions, 1u);
}

TEST(CacheEviction, OversizedValueRejected) {
  VirtualClock clock;
  CacheInstance inst(0, &clock, SmallCache(10));
  inst.GrantFragmentLease(0, 1, clock.Now() + Seconds(3600), 1);
  OpContext ctx{1, 0};
  EXPECT_EQ(inst.Set(ctx, "k", CacheValue::OfSize(100)).code(),
            Code::kInvalidArgument);
}

TEST(CacheEviction, DirtyListCanBeEvicted) {
  // The dirty list competes for memory like any entry (Section 3.1).
  VirtualClock clock;
  CacheInstance inst(0, &clock, SmallCache(64));
  inst.GrantFragmentLease(0, 1, clock.Now() + Seconds(3600), 1);
  OpContext ctx{1, 0};
  OpContext internal{kInternalConfigId, kInvalidFragment};
  const std::string list_key = DirtyListKey(0);
  ASSERT_TRUE(
      inst.Set(internal, list_key, CacheValue::OfData("\x01M\n")).ok());
  // Fill with hot application entries until the (cold) list is evicted.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(inst.Set(ctx, "key" + std::to_string(i),
                         CacheValue::OfSize(10))
                    .ok());
  }
  EXPECT_FALSE(inst.ContainsRaw(list_key));
}

TEST(CacheEviction, UsedBytesTracksContent) {
  VirtualClock clock;
  CacheInstance inst(0, &clock, SmallCache(1000));
  inst.GrantFragmentLease(0, 1, clock.Now() + Seconds(3600), 1);
  OpContext ctx{1, 0};
  ASSERT_TRUE(inst.Set(ctx, "ab", CacheValue::OfSize(8)).ok());
  EXPECT_EQ(inst.stats().used_bytes, 10u);
  ASSERT_TRUE(inst.Set(ctx, "ab", CacheValue::OfSize(18)).ok());  // replace
  EXPECT_EQ(inst.stats().used_bytes, 20u);
  ASSERT_TRUE(inst.Delete(ctx, "ab").ok());
  EXPECT_EQ(inst.stats().used_bytes, 0u);
}

// ---- Availability & persistence ----------------------------------------------

TEST_F(CacheInstanceTest, FailedInstanceRejectsEverything) {
  ASSERT_TRUE(inst_.Set(Ctx(), "k", CacheValue::OfData("v")).ok());
  inst_.Fail();
  EXPECT_FALSE(inst_.available());
  EXPECT_EQ(inst_.Get(Ctx(), "k").code(), Code::kUnavailable);
  EXPECT_EQ(inst_.IqGet(Ctx(), "k").code(), Code::kUnavailable);
  EXPECT_EQ(inst_.Qareg(Ctx(), "k").code(), Code::kUnavailable);
  EXPECT_EQ(inst_.Set(Ctx(), "k", CacheValue::OfData("x")).code(),
            Code::kUnavailable);
  EXPECT_EQ(inst_.AcquireRed("d").code(), Code::kUnavailable);
}

TEST_F(CacheInstanceTest, PersistentRecoveryKeepsContent) {
  ASSERT_TRUE(inst_.Set(Ctx(), "k", CacheValue::OfData("v")).ok());
  inst_.Fail();
  inst_.RecoverPersistent();
  // Fragment leases are volatile: re-grant before serving.
  inst_.GrantFragmentLease(0, 1, clock_.Now() + Seconds(3600), 1);
  auto v = inst_.Get(Ctx(), "k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->data, "v");
}

TEST_F(CacheInstanceTest, PersistentRecoveryDeletesQuarantinedEntries) {
  // A writer crashed us between its store update and Dar: the entry is
  // potentially stale and must not survive recovery.
  ASSERT_TRUE(inst_.Set(Ctx(), "k", CacheValue::OfData("old")).ok());
  (void)inst_.Qareg(Ctx(), "k");
  inst_.Fail();
  inst_.RecoverPersistent();
  inst_.GrantFragmentLease(0, 1, clock_.Now() + Seconds(3600), 1);
  EXPECT_EQ(inst_.Get(Ctx(), "k").code(), Code::kNotFound);
}

TEST_F(CacheInstanceTest, VolatileRecoveryWipesContent) {
  ASSERT_TRUE(inst_.Set(Ctx(), "k", CacheValue::OfData("v")).ok());
  inst_.Fail();
  inst_.RecoverVolatile();
  inst_.GrantFragmentLease(0, 1, clock_.Now() + Seconds(3600), 1);
  EXPECT_EQ(inst_.Get(Ctx(), "k").code(), Code::kNotFound);
  EXPECT_EQ(inst_.stats().entry_count, 0u);
}

TEST_F(CacheInstanceTest, RecoveryClearsLeases) {
  auto i = inst_.IqGet(Ctx(), "k");
  ASSERT_TRUE(i.ok());
  inst_.Fail();
  inst_.RecoverPersistent();
  inst_.GrantFragmentLease(0, 1, clock_.Now() + Seconds(3600), 1);
  // The old I token is gone; a new miss can acquire an I lease.
  EXPECT_EQ(inst_.IqSet(Ctx(), "k", CacheValue::OfData("v"), i->i_token).code(),
            Code::kLeaseInvalid);
  EXPECT_TRUE(inst_.IqGet(Ctx(), "k").ok());
}

TEST_F(CacheInstanceTest, StatsCountHitsMissesInsertsDeletes) {
  (void)inst_.Get(Ctx(), "k");                                  // miss
  ASSERT_TRUE(inst_.Set(Ctx(), "k", CacheValue::OfData("v")).ok());
  (void)inst_.Get(Ctx(), "k");                                  // hit
  ASSERT_TRUE(inst_.Delete(Ctx(), "k").ok());
  auto s = inst_.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.deletes, 1u);
  inst_.ResetCounters();
  EXPECT_EQ(inst_.stats().hits, 0u);
}

TEST_F(CacheInstanceTest, LatestConfigIdMemoized) {
  EXPECT_EQ(inst_.latest_config_id(), 1u);
  inst_.GrantFragmentLease(3, 5, clock_.Now() + Seconds(3600), 5);
  EXPECT_EQ(inst_.latest_config_id(), 5u);
  inst_.RevokeFragmentLease(3, 9);
  EXPECT_EQ(inst_.latest_config_id(), 9u);
  // Never regresses.
  inst_.GrantFragmentLease(4, 2, clock_.Now() + Seconds(3600), 2);
  EXPECT_EQ(inst_.latest_config_id(), 9u);
}

}  // namespace
}  // namespace gemini
