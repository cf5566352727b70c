// Unit tests for IQ leases and Redleases (Section 2.3, Table 2).
#include "src/lease/lease_table.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/common/clock.h"

namespace gemini {
namespace {

class LeaseTableTest : public ::testing::Test {
 protected:
  LeaseTableTest() : table_(&clock_) {}
  VirtualClock clock_;
  LeaseTable table_;
};

TEST_F(LeaseTableTest, GrantsILease) {
  auto t = table_.AcquireI("k");
  ASSERT_TRUE(t.ok());
  EXPECT_NE(*t, kNoLease);
  EXPECT_TRUE(table_.CheckI("k", *t));
}

TEST_F(LeaseTableTest, IIncompatibleWithI) {
  // Table 2: requested I vs existing I -> back off (thundering herd guard).
  auto t1 = table_.AcquireI("k");
  ASSERT_TRUE(t1.ok());
  auto t2 = table_.AcquireI("k");
  EXPECT_EQ(t2.code(), Code::kBackoff);
}

TEST_F(LeaseTableTest, IIncompatibleWithExistingQ) {
  // Table 2: requested I vs existing Q -> back off.
  (void)table_.AcquireQ("k");
  auto t = table_.AcquireI("k");
  EXPECT_EQ(t.code(), Code::kBackoff);
}

TEST_F(LeaseTableTest, QVoidsExistingI) {
  // Table 2: requested Q vs existing I -> void I & grant Q. The reader's
  // later insert must fail (its token is gone).
  auto i = table_.AcquireI("k");
  ASSERT_TRUE(i.ok());
  const LeaseToken q = table_.AcquireQ("k");
  EXPECT_NE(q, kNoLease);
  EXPECT_FALSE(table_.CheckI("k", *i));
  EXPECT_TRUE(table_.CheckQ("k", q));
}

TEST_F(LeaseTableTest, DeleteVoidsIGrantedAfterQLapse) {
  // The Q-lapse race at the lease layer. 1: a writer takes Q. 2: Q lapses
  // before the writer's delete (a slow disk or writer). 3: a reader misses,
  // is granted I and reads the pre-update store record. 4: the writer
  // updates the store and deletes (Dar: VoidI, then ReleaseQ). 5: the
  // reader's insert must find its I lease dead.
  const LeaseToken q = table_.AcquireQ("k");
  clock_.Advance(table_.options().q_lease_lifetime + Millis(50));
  auto i = table_.AcquireI("k");
  ASSERT_TRUE(i.ok());
  table_.VoidI("k");
  table_.ReleaseQ("k", q);
  EXPECT_FALSE(table_.CheckI("k", *i));
  // The fill is lost, not blocked: the next miss gets a fresh I lease.
  EXPECT_TRUE(table_.AcquireI("k").ok());
}

TEST_F(LeaseTableTest, QCompatibleWithQ) {
  // Write-around deletes commute, so concurrent Q leases are granted.
  const LeaseToken q1 = table_.AcquireQ("k");
  const LeaseToken q2 = table_.AcquireQ("k");
  EXPECT_NE(q1, q2);
  EXPECT_TRUE(table_.CheckQ("k", q1));
  EXPECT_TRUE(table_.CheckQ("k", q2));
}

TEST_F(LeaseTableTest, DifferentKeysIndependent) {
  auto t1 = table_.AcquireI("a");
  auto t2 = table_.AcquireI("b");
  EXPECT_TRUE(t1.ok());
  EXPECT_TRUE(t2.ok());
}

TEST_F(LeaseTableTest, ReleaseIAllowsNewI) {
  auto t = table_.AcquireI("k");
  table_.ReleaseI("k", *t);
  EXPECT_FALSE(table_.CheckI("k", *t));
  EXPECT_TRUE(table_.AcquireI("k").ok());
}

TEST_F(LeaseTableTest, ReleaseIsIdempotent) {
  auto t = table_.AcquireI("k");
  table_.ReleaseI("k", *t);
  table_.ReleaseI("k", *t);  // no effect
  const LeaseToken q = table_.AcquireQ("k");
  table_.ReleaseQ("k", q);
  table_.ReleaseQ("k", q);
  EXPECT_EQ(table_.LiveKeyCount(), 0u);
}

TEST_F(LeaseTableTest, ILeaseExpires) {
  auto t = table_.AcquireI("k");
  clock_.Advance(table_.options().i_lease_lifetime + 1);
  EXPECT_FALSE(table_.CheckI("k", *t));
  // A new I lease can now be granted (old holder's insert will be ignored).
  EXPECT_TRUE(table_.AcquireI("k").ok());
}

TEST_F(LeaseTableTest, ExpiredQTriggersEntryDelete) {
  // Section 2.3: "When a Q lease times out, the instance deletes its
  // associated cache entry."
  (void)table_.AcquireQ("k");
  clock_.Advance(table_.options().q_lease_lifetime + 1);
  ExpiryAction a = table_.ExpireKey("k");
  EXPECT_TRUE(a.delete_entry);
  // Consumed: a second expiry check does not re-delete.
  EXPECT_FALSE(table_.ExpireKey("k").delete_entry);
}

TEST_F(LeaseTableTest, ReleasedQDoesNotTriggerDelete) {
  const LeaseToken q = table_.AcquireQ("k");
  table_.ReleaseQ("k", q);
  clock_.Advance(table_.options().q_lease_lifetime + 1);
  EXPECT_FALSE(table_.ExpireKey("k").delete_entry);
}

TEST_F(LeaseTableTest, KeysWithQLeasesListsOutstanding) {
  (void)table_.AcquireQ("a");
  const LeaseToken qb = table_.AcquireQ("b");
  table_.ReleaseQ("b", qb);
  auto keys = table_.KeysWithQLeases();
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0], "a");
}

TEST_F(LeaseTableTest, RedleaseMutualExclusion) {
  auto r1 = table_.AcquireRed("dirty");
  ASSERT_TRUE(r1.ok());
  auto r2 = table_.AcquireRed("dirty");
  EXPECT_EQ(r2.code(), Code::kBackoff);
}

TEST_F(LeaseTableTest, RedleaseIndependentOfIQ) {
  // The paper: Redleases can never collide with I or Q leases.
  auto i = table_.AcquireI("x");
  ASSERT_TRUE(i.ok());
  auto r = table_.AcquireRed("x");
  EXPECT_TRUE(r.ok());
  const LeaseToken q = table_.AcquireQ("x");
  EXPECT_NE(q, kNoLease);
  EXPECT_TRUE(table_.CheckRed("x", *r));
}

TEST_F(LeaseTableTest, RedleaseExpiryAllowsTakeover) {
  auto r1 = table_.AcquireRed("dirty");
  clock_.Advance(table_.options().red_lease_lifetime + 1);
  EXPECT_FALSE(table_.CheckRed("dirty", *r1));
  auto r2 = table_.AcquireRed("dirty");
  EXPECT_TRUE(r2.ok());
}

TEST_F(LeaseTableTest, RedleaseRenewExtends) {
  auto r = table_.AcquireRed("dirty");
  clock_.Advance(table_.options().red_lease_lifetime - 1);
  EXPECT_TRUE(table_.RenewRed("dirty", *r));
  clock_.Advance(table_.options().red_lease_lifetime - 1);
  EXPECT_TRUE(table_.CheckRed("dirty", *r));
}

TEST_F(LeaseTableTest, RenewFailsAfterExpiry) {
  auto r = table_.AcquireRed("dirty");
  clock_.Advance(table_.options().red_lease_lifetime + 1);
  EXPECT_FALSE(table_.RenewRed("dirty", *r));
}

TEST_F(LeaseTableTest, RenewFailsAfterTakeover) {
  auto r1 = table_.AcquireRed("dirty");
  clock_.Advance(table_.options().red_lease_lifetime + 1);
  auto r2 = table_.AcquireRed("dirty");
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(table_.RenewRed("dirty", *r1));
  EXPECT_TRUE(table_.RenewRed("dirty", *r2));
}

TEST_F(LeaseTableTest, ReleaseRedFreesKey) {
  auto r = table_.AcquireRed("dirty");
  table_.ReleaseRed("dirty", *r);
  EXPECT_TRUE(table_.AcquireRed("dirty").ok());
}

TEST_F(LeaseTableTest, ClearDropsEverything) {
  (void)table_.AcquireI("a");
  (void)table_.AcquireQ("b");
  (void)table_.AcquireRed("c");
  table_.Clear();
  EXPECT_EQ(table_.LiveKeyCount(), 0u);
  EXPECT_TRUE(table_.AcquireI("a").ok());
  EXPECT_TRUE(table_.AcquireRed("c").ok());
}

TEST_F(LeaseTableTest, LiveKeyCountTracksKeys) {
  (void)table_.AcquireI("a");
  (void)table_.AcquireQ("b");
  EXPECT_EQ(table_.LiveKeyCount(), 2u);
}

TEST_F(LeaseTableTest, ConcurrentIAcquisitionGrantsExactlyOne) {
  // Thundering-herd guard under real threads: many concurrent misses on the
  // same key; exactly one session wins the I lease per round.
  SystemClock sys;
  LeaseTable table(&sys);
  constexpr int kThreads = 8;
  std::atomic<int> granted{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto r = table.AcquireI("hot");
      if (r.ok()) granted.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(granted.load(), 1);
}

TEST_F(LeaseTableTest, ConcurrentRedleaseGrantsExactlyOne) {
  SystemClock sys;
  LeaseTable table(&sys);
  constexpr int kThreads = 8;
  std::atomic<int> granted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      if (table.AcquireRed("dirty").ok()) granted.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(granted.load(), 1);
}

}  // namespace
}  // namespace gemini
