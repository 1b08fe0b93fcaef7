// Concurrent correctness of every engine over the skip-list priority queue:
// every key inserted with a unique tag must be removed at most once, and
// inserted-but-not-removed keys must all still be present at the end.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <vector>

#include "engine_test_util.hpp"
#include "mem/ebr.hpp"
#include "util/rng.hpp"

namespace hcf::test {
namespace {

using Pq = ds::SkipListPq<std::uint64_t>;

constexpr int kThreads = 4;
constexpr int kOpsPerThread = 8000;

HcfConfig pq_config() {
  return {adapters::pq_paper_config(), adapters::kPqNumArrays};
}

template <typename Engine>
class EnginePqTest : public ::testing::Test {};

using EngineTypes =
    ::testing::Types<Engines<Pq>::Lock, Engines<Pq>::Tle, Engines<Pq>::Scm,
                     Engines<Pq>::Fc, Engines<Pq>::TleFc, Engines<Pq>::Hcf,
                     Engines<Pq>::Hcf1C>;
TYPED_TEST_SUITE(EnginePqTest, EngineTypes);

TYPED_TEST(EnginePqTest, EveryInsertedKeyRemovedAtMostOnce) {
  Pq pq;
  auto engine = EngineMaker<TypeParam>::make(pq, pq_config());

  // Unique keys: thread id in the high bits, sequence in the low bits,
  // scrambled into the priority order via a shared low field.
  std::vector<std::vector<std::uint64_t>> inserted(kThreads);
  std::vector<std::vector<std::uint64_t>> removed(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      util::Xoshiro256 rng(321 + t);
      adapters::PqInsertOp<std::uint64_t> insert;
      adapters::PqRemoveMinOp<std::uint64_t> remove_min;
      std::uint64_t seq = 0;
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (rng.next_bounded(2) == 0) {
          // priority (random) | thread | seq  -> globally unique
          const std::uint64_t key = (rng.next_bounded(1 << 16) << 32) |
                                    (static_cast<std::uint64_t>(t) << 24) |
                                    seq++;
          insert.set(key);
          engine->execute(insert);
          inserted[t].push_back(key);
        } else {
          engine->execute(remove_min);
          if (remove_min.result().has_value()) {
            removed[t].push_back(*remove_min.result());
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  std::multiset<std::uint64_t> all_inserted;
  for (const auto& v : inserted) all_inserted.insert(v.begin(), v.end());
  std::multiset<std::uint64_t> all_removed;
  for (const auto& v : removed) all_removed.insert(v.begin(), v.end());

  // No phantom or duplicate removals.
  for (std::uint64_t k : all_removed) {
    ASSERT_EQ(all_inserted.count(k), 1u) << TypeParam::name() << " key " << k;
    ASSERT_EQ(all_removed.count(k), 1u) << TypeParam::name() << " key " << k;
  }
  // Remaining queue contents == inserted \ removed.
  std::multiset<std::uint64_t> expected_left = all_inserted;
  for (std::uint64_t k : all_removed) expected_left.erase(k);
  std::multiset<std::uint64_t> actual_left;
  while (auto k = pq.remove_min()) actual_left.insert(*k);
  EXPECT_EQ(actual_left, expected_left) << TypeParam::name();
  EXPECT_TRUE(pq.check_invariants());
  mem::EbrDomain::instance().drain();
}

TYPED_TEST(EnginePqTest, DrainReturnsSortedKeys) {
  Pq pq;
  auto engine = EngineMaker<TypeParam>::make(pq, pq_config());
  adapters::PqInsertOp<std::uint64_t> insert;
  adapters::PqRemoveMinOp<std::uint64_t> remove_min;
  util::Xoshiro256 rng(5);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 200; ++i) {
    const auto k = rng.next();
    keys.push_back(k);
    insert.set(k);
    engine->execute(insert);
  }
  std::sort(keys.begin(), keys.end());
  // Single-threaded drain must return keys in ascending order.
  for (std::uint64_t expected : keys) {
    engine->execute(remove_min);
    ASSERT_TRUE(remove_min.result().has_value());
    ASSERT_EQ(*remove_min.result(), expected) << TypeParam::name();
  }
  engine->execute(remove_min);
  EXPECT_FALSE(remove_min.result().has_value());
  mem::EbrDomain::instance().drain();
}

// Exactly-once stress of the paper's PQ configuration on HcfEngine: four
// threads run an exact 50/50 insert/remove_min mix against a prefilled
// queue, so remove_min combines while insert commits privately. The
// prefill outlasts every remove, so each remove_min must return a key. At
// the end the queue must hold prefill + inserted - removed keys, by count
// and by key sum: a lost, duplicated or twice-applied op breaks one of the
// two. The drain also checks ascending order.
TEST(HcfPqStress, FiftyFiftyExactlyOnceKeySumAudit) {
  constexpr int kStressThreads = 4;
  constexpr int kStressOps = 20000;  // per thread, half of them removes
  constexpr std::uint64_t kPrefill = kStressThreads * kStressOps / 2 + 512;
  constexpr std::uint64_t kKeyRange = 1 << 20;

  Pq pq;
  util::Xoshiro256 prefill_rng(4242);
  std::uint64_t prefill_sum = 0;
  for (std::uint64_t i = 0; i < kPrefill; ++i) {
    const std::uint64_t key = prefill_rng.next_bounded(kKeyRange);
    pq.insert(key);
    prefill_sum += key;
  }
  core::HcfEngine<Pq> engine(pq, adapters::pq_paper_config(),
                             adapters::kPqNumArrays);

  struct Tally {
    std::uint64_t inserted = 0;
    std::uint64_t inserted_sum = 0;
    std::uint64_t removed = 0;
    std::uint64_t removed_sum = 0;
    std::uint64_t empty_removes = 0;
  };
  std::vector<Tally> tallies(kStressThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kStressThreads; ++t) {
    threads.emplace_back([&, t] {
      util::Xoshiro256 rng(9000 + t);
      adapters::PqInsertOp<std::uint64_t> insert;
      adapters::PqRemoveMinOp<std::uint64_t> remove_min;
      Tally& tally = tallies[t];
      for (int i = 0; i < kStressOps; ++i) {
        if (i % 2 == 0) {
          const std::uint64_t key = rng.next_bounded(kKeyRange);
          insert.set(key);
          engine.execute(insert);
          ++tally.inserted;
          tally.inserted_sum += key;
        } else {
          engine.execute(remove_min);
          if (remove_min.result().has_value()) {
            ++tally.removed;
            tally.removed_sum += *remove_min.result();
          } else {
            ++tally.empty_removes;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  Tally total;
  for (const Tally& tally : tallies) {
    total.inserted += tally.inserted;
    total.inserted_sum += tally.inserted_sum;
    total.removed += tally.removed;
    total.removed_sum += tally.removed_sum;
    total.empty_removes += tally.empty_removes;
  }
  EXPECT_EQ(total.empty_removes, 0u);

  std::uint64_t left = 0;
  std::uint64_t left_sum = 0;
  std::uint64_t prev = 0;
  bool ascending = true;
  while (auto k = pq.remove_min()) {
    ascending &= (left == 0 || *k >= prev);
    prev = *k;
    ++left;
    left_sum += *k;
  }
  EXPECT_TRUE(ascending);
  EXPECT_EQ(left, kPrefill + total.inserted - total.removed);
  EXPECT_EQ(left_sum, prefill_sum + total.inserted_sum - total.removed_sum);
  const auto snap = core::EngineStatsSnapshot::capture(engine.stats());
  EXPECT_EQ(snap.total(),
            static_cast<std::uint64_t>(kStressThreads) * kStressOps);
  mem::EbrDomain::instance().drain();
}

}  // namespace
}  // namespace hcf::test
