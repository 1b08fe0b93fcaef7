// The wait hierarchy (util/parking.hpp, DESIGN.md §12): the park/wake
// primitive's contract, the tiered waiter's policy behaviour, the parkable
// epoch's Dekker pairing, and — the part that actually matters — no lost
// wakeups across the four converted wait families under WaitPolicy::SpinPark.
// The stress tests here are the TSan targets for the parking protocol: run
// them under -DHCF_SANITIZE=thread to check the ordering story, not just
// the outcomes.
#include "util/parking.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "mem/ebr.hpp"
#include "sync/tx_lock.hpp"

namespace hcf::util {
namespace {

TEST(ParkWake, WakeAfterValueChangeReleasesParkedThread) {
  std::atomic<std::uint32_t> word{0};
  std::atomic<bool> released{false};
  std::thread waiter([&] {
    while (word.load(std::memory_order_acquire) == 0) park(word, 0u);
    EXPECT_TRUE(released.load());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  released.store(true);
  word.store(1, std::memory_order_release);
  // One wake suffices even if the waiter is not asleep yet: its next park
  // sees word != expected and returns immediately (the kernel-side
  // equality check; the fallback's reload check).
  wake_all(word);
  waiter.join();
}

TEST(ParkWake, ParkOnChangedWordReturnsImmediately) {
  std::atomic<std::uint32_t> word{7};
  // No other thread exists, so the only way this returns is the
  // equality check — a lost-wakeup-prone implementation would hang.
  EXPECT_EQ(park(word, 3u), ParkResult::Woken);
}

TEST(ParkWake, PlainWordFlavourRoundTrips) {
  // The TxCell wait_address() path: a plain uint32_t re-read through
  // std::atomic_ref.
  std::uint32_t word = 0;
  std::thread waiter([&] {
    while (std::atomic_ref<std::uint32_t>(word).load(
               std::memory_order_acquire) == 0) {
      park(&word, 0u);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  std::atomic_ref<std::uint32_t>(word).store(1, std::memory_order_release);
  wake_all(&word);
  waiter.join();
}

TEST(ParkWake, SpuriousWakeIsReportedAndSurvivable) {
  std::atomic<std::uint32_t> word{0};
  std::atomic<bool> saw_spurious{false};
  std::atomic<bool> done{false};
  std::thread waiter([&] {
    while (word.load(std::memory_order_acquire) == 0) {
      if (park(word, 0u) == ParkResult::Spurious) {
        saw_spurious.store(true);
      }
    }
    done.store(true);
  });
  // Hammer wakes without changing the word until the waiter reports one:
  // parks must return Spurious (value unchanged) and loop back to waiting
  // rather than treating the wake as completion.
  while (!saw_spurious.load()) {
    wake_all(word);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  EXPECT_FALSE(done.load());
  word.store(1, std::memory_order_release);
  wake_all(word);
  waiter.join();
  EXPECT_TRUE(done.load());
}

TEST(ParkWake, StatsCountParksAndWakes) {
  const std::uint64_t parks_before = park_stats().parks.total();
  const std::uint64_t wakes_before = park_stats().wakes.total();
  std::atomic<std::uint32_t> word{0};
  std::thread waiter([&] {
    while (word.load(std::memory_order_acquire) == 0) park(word, 0u);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  word.store(1, std::memory_order_release);
  wake_all(word);
  waiter.join();
  EXPECT_GE(park_stats().parks.total(), parks_before + 1);
  EXPECT_GE(park_stats().wakes.total(), wakes_before + 1);
}

TEST(TieredWait, SpinYieldNeverRequestsPark) {
  TieredWait waiter(WaitSite::kLockWord, WaitPolicy::SpinYield);
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(waiter.wait());
}

TEST(TieredWait, SpinParkEscalatesAfterSpinAndYieldTiers) {
  TieredWait waiter(WaitSite::kLockWord, WaitPolicy::SpinPark);
  int steps_before_park = 0;
  while (!waiter.wait()) {
    ++steps_before_park;
    ASSERT_LT(steps_before_park, 1000) << "SpinPark never escalated";
  }
  // The spin and yield tiers must both run before the first park request.
  const WaitTuning t = wait_tuning(WaitSite::kLockWord);
  EXPECT_GE(static_cast<std::uint32_t>(steps_before_park),
            t.yields_before_park);
  // reset() drops back to the spin tier.
  waiter.reset();
  EXPECT_FALSE(waiter.wait());
}

TEST(ParkableEpoch, AdvanceWakesParkedWaiter) {
  ParkableEpoch epoch;
  EXPECT_EQ(epoch.load(), 0u);
  std::thread waiter([&] {
    while (epoch.load() == 0) epoch.park_if(0, [] { return true; });
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  epoch.advance(3);
  waiter.join();
  EXPECT_EQ(epoch.load(), 3u);
}

TEST(ParkableEpoch, ParkOnMovedValueReturnsImmediately) {
  ParkableEpoch epoch;
  epoch.advance(5);
  epoch.park_if(0, [] { return true; });  // single-threaded: must not sleep
  EXPECT_EQ(epoch.load(), 5u);
}

// A wake that lands after a waiter's last check but before its futex
// wait must not be lost. The waiter's condition callback runs exactly in
// that window: it holds the waiter there until the wake was sent, then
// reports the waiter still blocked, so the waiter goes on to sleep. The
// wake moved the word, so the sleep returns at once.
TEST(ParkableEpoch, WakeBetweenCheckAndSleepIsNotLost) {
  ParkableEpoch epoch;
  std::atomic<bool> in_check{false};
  std::atomic<bool> wake_sent{false};
  std::atomic<bool> returned{false};
  std::thread waiter([&] {
    epoch.park_if(0, [&] {
      in_check = true;
      while (!wake_sent.load()) std::this_thread::yield();
      return true;
    });
    returned = true;
  });
  while (!in_check.load()) std::this_thread::yield();
  epoch.wake_waiters();
  wake_sent = true;
  for (int i = 0; i < 2000 && !returned.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool lost = !returned.load();
  if (lost) epoch.advance(1);  // rescue the sleeper so the thread joins
  waiter.join();
  EXPECT_FALSE(lost) << "wake_waiters() was lost on a waiter about to sleep";
}

// A waiter whose condition cleared (its lock was released before it
// registered) must not sleep, even though the epoch never moved.
TEST(ParkableEpoch, ParkSkipsSleepOnceTheConditionCleared) {
  ParkableEpoch epoch;
  const std::uint64_t parks_before = park_stats().parks.total();
  epoch.park_if(0, [] { return false; });  // single-threaded: must not sleep
  EXPECT_EQ(park_stats().parks.total(), parks_before);
}

TEST(ParkableEpoch, WakeWaitersWithNobodyParkedIsANoOp) {
  ParkableEpoch epoch;
  const std::uint64_t wakes_before = park_stats().wakes.total();
  epoch.wake_waiters();
  // The waiters counter is zero, so no wake syscall may fire.
  EXPECT_EQ(park_stats().wakes.total(), wakes_before);
}

}  // namespace
}  // namespace hcf::util

namespace hcf::sync {
namespace {

// Lost-wakeup stress for the lock-word waiters-bit protocol: every round a
// cohort piles onto the lock under SpinPark; a single dropped wake parks a
// thread forever and the test hangs. Run under TSan for the ordering half.
template <typename L>
class ParkingLockTest : public ::testing::Test {};

using LockTypes = ::testing::Types<TxLock, FairTxLock>;
TYPED_TEST_SUITE(ParkingLockTest, LockTypes);

TYPED_TEST(ParkingLockTest, SpinParkMutualExclusionStress) {
  TypeParam lock;
  std::uint64_t counter = 0;  // deliberately non-atomic
  constexpr int kThreads = 4;
  constexpr int kRounds = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        lock.lock(util::WaitPolicy::SpinPark);
        counter = counter + 1;
        lock.unlock();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kThreads) * kRounds);
}

TYPED_TEST(ParkingLockTest, WaitUntilFreeParksAndWakes) {
  TypeParam lock;
  lock.lock();
  std::atomic<bool> released{false};
  std::thread t([&] {
    lock.wait_until_free(util::WaitPolicy::SpinPark);
    EXPECT_TRUE(released.load());
  });
  // Long enough for the waiter to exhaust its spin/yield tiers and park.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  released = true;
  lock.unlock();
  t.join();
}

TYPED_TEST(ParkingLockTest, WaitersBitNeverLeaksIntoSubscribe) {
  // The waiters bit is only set while the lock is held and cleared with
  // the release, so a subscription after a parked wait must commit.
  TypeParam lock;
  lock.lock();
  std::thread t([&] { lock.wait_until_free(util::WaitPolicy::SpinPark); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  lock.unlock();
  t.join();
  EXPECT_FALSE(lock.is_locked());
  EXPECT_TRUE(htm::attempt([&] { lock.subscribe(); }));
}

}  // namespace
}  // namespace hcf::sync

namespace hcf::core {
namespace {

struct HotSpot {
  htm::TxField<std::uint64_t> value{0};
};

class IncOp : public Operation<HotSpot> {
 public:
  using Operation<HotSpot>::Operation;
  void run_seq(HotSpot& ds) override { ds.value = ds.value + 1; }
};

TEST(OperationParking, WaitDoneParksUntilMarkDone) {
  IncOp op;
  op.prepare();
  op.mark_announced();
  op.mark_being_helped();
  std::atomic<bool> completed{false};
  std::thread owner([&] {
    op.wait_done(util::WaitPolicy::SpinPark);
    EXPECT_TRUE(completed.load());
    EXPECT_EQ(op.status(), OpStatus::Done);
    EXPECT_EQ(op.completed_phase(), Phase::Combining);
  });
  // Give the owner time to park on its status word.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  completed.store(true);
  op.mark_done(Phase::Combining);
  owner.join();
  // The parked bit must not survive into the visible status.
  EXPECT_EQ(op.status(), OpStatus::Done);
}

TEST(OperationParking, MarkDoneWithoutParkedOwnerSkipsWake) {
  const std::uint64_t wakes_before = util::park_stats().wakes.total();
  IncOp op;
  op.prepare();
  op.mark_announced();
  op.mark_being_helped();
  op.mark_done(Phase::UnderLock);
  EXPECT_EQ(op.status(), OpStatus::Done);
  EXPECT_EQ(util::park_stats().wakes.total(), wakes_before);
}

// Pure-SpinPark engine run: all four wait families (lock word, selection
// competition, op status, ticket queue via FairTxLock engines elsewhere)
// exercise the park path at once. A lost wake anywhere hangs the test.
TEST(EnginePolicyFlip, AllSpinParkExactlyOnce) {
  HotSpot ds;
  PhasePolicy policy = PhasePolicy::paper_default();
  policy.wait = util::WaitPolicy::SpinPark;
  HcfEngine<HotSpot> engine(ds, policy);
  constexpr int kThreads = 4;
  constexpr int kOps = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      IncOp op;
      for (int i = 0; i < kOps; ++i) engine.execute(op);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ds.value.get(), static_cast<std::uint64_t>(kThreads) * kOps);
  mem::EbrDomain::instance().drain();
}

// Flat-combining engine under SpinPark: epoch parking in the global-lock
// waiter loop plus the session-ending wake_all_epoch_waiters.
TEST(EnginePolicyFlip, FlatCombiningSpinParkExactlyOnce) {
  HotSpot ds;
  PhasePolicy policy = PhasePolicy::fc_like();
  policy.wait = util::WaitPolicy::SpinPark;
  FcEngine<HotSpot> engine(ds, uniform_classes(policy));
  constexpr int kThreads = 4;
  constexpr int kOps = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      IncOp op;
      for (int i = 0; i < kOps; ++i) engine.execute(op);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ds.value.get(), static_cast<std::uint64_t>(kThreads) * kOps);
  mem::EbrDomain::instance().drain();
}

}  // namespace
}  // namespace hcf::core
