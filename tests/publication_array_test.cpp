#include "core/publication_array.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/operation.hpp"
#include "sim_htm/htm.hpp"
#include "util/thread_id.hpp"

namespace hcf::core {
namespace {

struct NullDs {};

class NoopOp : public Operation<NullDs> {
 public:
  void run_seq(NullDs&) override {}
};

TEST(PublicationArray, AddPeekClear) {
  PublicationArray<NullDs> pa;
  NoopOp op;
  const std::size_t self = util::this_thread_id();
  EXPECT_EQ(pa.peek(self), nullptr);
  pa.add(&op);
  EXPECT_EQ(pa.peek(self), &op);
  pa.selection_lock().lock();
  pa.clear_slot(self);
  pa.selection_lock().unlock();
  EXPECT_EQ(pa.peek(self), nullptr);
}

TEST(PublicationArray, RemoveStrongClearsOwnSlot) {
  PublicationArray<NullDs> pa;
  NoopOp op;
  pa.add(&op);
  pa.remove_strong();
  EXPECT_EQ(pa.peek(util::this_thread_id()), nullptr);
}

TEST(PublicationArray, ForEachSeesAllAnnounced) {
  PublicationArray<NullDs> pa;
  constexpr int kThreads = 6;
  std::vector<std::unique_ptr<NoopOp>> ops;
  for (int i = 0; i < kThreads; ++i) ops.push_back(std::make_unique<NoopOp>());

  std::atomic<int> announced{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      pa.add(ops[i].get());
      announced.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
      pa.remove_strong();
    });
  }
  while (announced.load() != kThreads) std::this_thread::yield();

  pa.selection_lock().lock();
  int seen = 0;
  pa.for_each_announced([&](Operation<NullDs>* op, std::size_t) {
    EXPECT_NE(op, nullptr);
    ++seen;
  });
  pa.selection_lock().unlock();
  EXPECT_EQ(seen, kThreads);

  release = true;
  for (auto& t : threads) t.join();

  pa.selection_lock().lock();
  seen = 0;
  pa.for_each_announced([&](Operation<NullDs>*, std::size_t) { ++seen; });
  pa.selection_lock().unlock();
  EXPECT_EQ(seen, 0);
}

TEST(PublicationArray, TransactionalRemoveCommits) {
  PublicationArray<NullDs> pa;
  NoopOp op;
  pa.add(&op);
  const bool ok = htm::attempt([&] { pa.remove_tx(&op); });
  EXPECT_TRUE(ok);
  EXPECT_EQ(pa.peek(util::this_thread_id()), nullptr);
}

TEST(PublicationArray, TransactionalRemoveRolledBackOnAbort) {
  PublicationArray<NullDs> pa;
  NoopOp op;
  pa.add(&op);
  htm::attempt([&] {
    pa.remove_tx(&op);
    htm::abort_tx();
  });
  EXPECT_EQ(pa.peek(util::this_thread_id()), &op);
  pa.remove_strong();
}

TEST(PublicationArray, SelectionLockSubscriptionAborts) {
  PublicationArray<NullDs> pa;
  pa.selection_lock().lock();
  EXPECT_FALSE(htm::attempt([&] { pa.selection_lock().subscribe(); }));
  pa.selection_lock().unlock();
  EXPECT_TRUE(htm::attempt([&] { pa.selection_lock().subscribe(); }));
}

// ---- occupancy-indexed scanning (DESIGN.md §9.1) --------------------------

TEST(PublicationArrayOccupancy, EmptyScanSkipsEveryWord) {
  PublicationArray<NullDs> pa;
  pa.selection_lock().lock();
  std::size_t visited = 0;
  const std::size_t skipped =
      pa.for_each_announced([&](Operation<NullDs>*, std::size_t) { ++visited; });
  pa.selection_lock().unlock();
  EXPECT_EQ(visited, 0u);
  EXPECT_EQ(skipped, PublicationArray<NullDs>::kOccupancyWords);
}

// A full-capacity array scan must visit exactly the announced slots — no
// phantom visits from stale metadata, no missed announcements — and must
// skip every occupancy word with no announced slot in it.
TEST(PublicationArrayOccupancy, ScanVisitsExactlyAnnouncedSlots) {
  PublicationArray<NullDs> pa;
  constexpr int kThreads = 5;
  std::vector<std::unique_ptr<NoopOp>> ops;
  for (int i = 0; i < kThreads; ++i) ops.push_back(std::make_unique<NoopOp>());

  std::array<std::size_t, kThreads> announced_slot{};
  std::atomic<int> announced{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      announced_slot[static_cast<std::size_t>(i)] = util::this_thread_id();
      pa.add(ops[i].get());
      announced.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
      pa.remove_strong();
    });
  }
  while (announced.load() != kThreads) std::this_thread::yield();

  std::set<std::size_t> expected(announced_slot.begin(), announced_slot.end());
  std::set<std::size_t> expected_words;
  for (std::size_t slot : expected) expected_words.insert(slot >> 6);

  pa.selection_lock().lock();
  std::set<std::size_t> visited;
  const std::size_t skipped = pa.for_each_announced(
      [&](Operation<NullDs>* op, std::size_t slot) {
        EXPECT_NE(op, nullptr);
        EXPECT_TRUE(visited.insert(slot).second) << "slot visited twice";
      });
  pa.selection_lock().unlock();

  EXPECT_EQ(visited, expected);
  EXPECT_EQ(skipped, PublicationArray<NullDs>::kOccupancyWords -
                         expected_words.size());

  release = true;
  for (auto& t : threads) t.join();
}

// remove_tx leaves the occupancy bit stale by design; the scan re-verifies
// the slot and must neither visit the removed op nor skip the word.
TEST(PublicationArrayOccupancy, StaleBitFromTxRemoveIsReverifiedAway) {
  PublicationArray<NullDs> pa;
  NoopOp op;
  const std::size_t self = util::this_thread_id();
  pa.add(&op);
  ASSERT_TRUE(htm::attempt([&] { pa.remove_tx(&op); }));
  ASSERT_EQ(pa.peek(self), nullptr);
  // The hint is stale: bit still set for an empty slot.
  EXPECT_NE(pa.occupancy_word(self >> 6) & (std::uint64_t{1} << (self & 63)),
            0u);

  pa.selection_lock().lock();
  std::size_t visited = 0;
  std::size_t skipped =
      pa.for_each_announced([&](Operation<NullDs>*, std::size_t) { ++visited; });
  pa.selection_lock().unlock();
  EXPECT_EQ(visited, 0u);  // stale bit never yields a phantom op
  EXPECT_EQ(skipped, PublicationArray<NullDs>::kOccupancyWords - 1);

  // Re-announcing reuses the slot; the op must be seen exactly once.
  pa.add(&op);
  pa.selection_lock().lock();
  visited = 0;
  pa.for_each_announced([&](Operation<NullDs>* seen, std::size_t slot) {
    EXPECT_EQ(seen, &op);
    EXPECT_EQ(slot, self);
    ++visited;
  });
  pa.selection_lock().unlock();
  EXPECT_EQ(visited, 1u);
  pa.remove_strong();
}

TEST(PublicationArrayOccupancy, ClearSlotClearsBit) {
  PublicationArray<NullDs> pa;
  NoopOp op;
  const std::size_t self = util::this_thread_id();
  pa.add(&op);
  ASSERT_NE(pa.occupancy_word(self >> 6), 0u);
  pa.selection_lock().lock();
  pa.clear_slot(self);
  pa.selection_lock().unlock();
  EXPECT_EQ(pa.occupancy_word(self >> 6) & (std::uint64_t{1} << (self & 63)),
            0u);
}

// No live transaction holds a publication slot in its read set, so
// announcing and unpublishing doom nobody: neither may take the strong
// path (orec CAS plus version- and strong-clock bumps).
TEST(PublicationArray, AddAndClearSlotMakeNoStrongStores) {
  PublicationArray<NullDs> pa;
  NoopOp op;
  const std::size_t self = util::this_thread_id();
  pa.selection_lock().lock();
  const auto before = htm::StatsSnapshot::capture();
  pa.add(&op);
  EXPECT_EQ(pa.peek(self), &op);
  pa.clear_slot(self);
  EXPECT_EQ(pa.peek(self), nullptr);
  const auto delta = htm::StatsSnapshot::capture().delta_since(before);
  pa.selection_lock().unlock();
  EXPECT_EQ(delta.strong_stores, 0u);
}

TEST(PublicationArrayOccupancy, CollectAnnouncedSelectsAndUnpublishes) {
  PublicationArray<NullDs> pa;
  NoopOp op;
  op.prepare();
  op.mark_announced();
  pa.add(&op);

  std::vector<Operation<NullDs>*> out;
  out.reserve(util::kMaxThreads);
  pa.selection_lock().lock();
  // scan-locked: selection lock acquired on the line above.
  pa.collect_announced(
      out, [](Operation<NullDs>* o) { return o->status() == OpStatus::Announced; });
  pa.selection_lock().unlock();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], &op);
  EXPECT_EQ(pa.peek(util::this_thread_id()), nullptr);

  out.clear();
  pa.selection_lock().lock();
  // scan-locked: selection lock acquired on the line above.
  const std::size_t skipped = pa.collect_announced(
      out, [](Operation<NullDs>*) { return true; });
  pa.selection_lock().unlock();
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(skipped, PublicationArray<NullDs>::kOccupancyWords);
}

TEST(PublicationArrayEpoch, PublishAdvancesMonotonically) {
  PublicationArray<NullDs> pa;
  EXPECT_EQ(pa.combined_epoch(), 0u);
  pa.publish_combined(3);
  EXPECT_EQ(pa.combined_epoch(), 3u);
  pa.publish_combined(2);
  EXPECT_EQ(pa.combined_epoch(), 5u);
}

TEST(OperationDescriptor, StatusLifecycle) {
  NoopOp op;
  op.prepare();
  EXPECT_EQ(op.status(), OpStatus::UnAnnounced);
  op.mark_announced();
  EXPECT_EQ(op.status(), OpStatus::Announced);
  op.mark_being_helped();
  EXPECT_EQ(op.status(), OpStatus::BeingHelped);
  op.mark_done(Phase::Combining);
  EXPECT_EQ(op.status(), OpStatus::Done);
  EXPECT_EQ(op.completed_phase(), Phase::Combining);
  op.wait_done();  // must not block once Done
}

TEST(OperationDescriptor, DefaultRunMultiRunsAll) {
  struct CountDs {
    int count = 0;
  };
  struct CountOp : Operation<CountDs> {
    void run_seq(CountDs& ds) override { ++ds.count; }
  };
  CountDs ds;
  CountOp a, b, c;
  Operation<CountDs>* ops[] = {&a, &b, &c};
  const std::size_t k = a.run_multi(ds, std::span<Operation<CountDs>*>(ops));
  EXPECT_EQ(k, 3u);
  EXPECT_EQ(ds.count, 3);
}

TEST(OperationDescriptor, HelpNobodyRefuses) {
  HelpNobody<NullDs, NoopOp> op;
  NoopOp other;
  EXPECT_FALSE(op.should_help(other));
  NoopOp helper;
  EXPECT_TRUE(helper.should_help(op));  // default helps everyone
}

}  // namespace
}  // namespace hcf::core
