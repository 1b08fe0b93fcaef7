// An exception thrown by an op body must not leave a lock held: the
// exception reaches the caller of execute(), and the next execute() on the
// same engine must complete. Each test throws from a lone thread's op
// while the engine holds a lock (a SingleHolder combiner's selection lock,
// SCM's auxiliary lock, FC's global lock), then runs a second op under a
// watchdog: a leaked lock makes that op wait forever. Nor may it leave
// the op announced: its owner may free the descriptor once execute()
// has thrown.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "engine_test_util.hpp"
#include "mem/ebr.hpp"
#include "util/thread_id.hpp"

namespace hcf::test {
namespace {

// Ends the test binary with a failure if its scope is still running after
// `limit`: a hang cannot be caught in-process, and it must fail the test
// rather than stall the suite.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds limit)
      : thread_([this, limit] {
          std::unique_lock<std::mutex> lock(mutex_);
          if (!cv_.wait_for(lock, limit, [this] { return done_; })) {
            std::fprintf(stderr,
                         "watchdog: execute() still running after %llds; "
                         "a lock was left held\n",
                         static_cast<long long>(limit.count()));
            std::_Exit(1);
          }
        }) {}

  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts after the members it uses
};

constexpr std::chrono::seconds kLimit{10};

// Throws from `failing`, then runs `next` (which must complete) under the
// watchdog. Returns the phase `next` completed in.
template <typename Engine>
core::Phase throw_then_execute(Engine& engine, ScriptedOp& failing,
                               ScriptedOp& next) {
  EXPECT_THROW(engine.execute(failing), std::runtime_error);
  Watchdog watchdog(kLimit);
  return engine.execute(next);
}

TEST(LockRelease, LoneSingleHolderCombinerReleasesSelectionLock) {
  Counter counter;
  core::HcfSingleCombinerEngine<Counter> engine(
      counter, core::PhasePolicy::combine_first());
  ScriptedOp failing;
  failing.throw_at = 1;  // first run: the combining attempt
  ScriptedOp next;
  EXPECT_EQ(throw_then_execute(engine, failing, next),
            core::Phase::Combining);
  EXPECT_FALSE(engine.publication_array(0).selection_lock().is_locked());
  EXPECT_FALSE(engine.lock().is_locked());
  EXPECT_EQ(counter.value.get(), 1u);
  mem::EbrDomain::instance().drain();
}

TEST(LockRelease, ScmReleasesAuxLock) {
  Counter counter;
  core::ScmEngine<Counter> engine(counter);  // free 5, aux 5
  ScriptedOp failing;
  failing.aborts = 5;    // spend the free budget...
  failing.throw_at = 6;  // ...then throw from the first aux-lock retry
  ScriptedOp next;
  next.aborts = 5;  // reaches the aux lock again
  EXPECT_EQ(throw_then_execute(engine, failing, next),
            core::Phase::Combining);
  EXPECT_FALSE(engine.publication_array(0).selection_lock().is_locked());
  EXPECT_FALSE(engine.lock().is_locked());
  EXPECT_EQ(counter.value.get(), 1u);
  mem::EbrDomain::instance().drain();
}

TEST(LockRelease, FcReleasesGlobalLock) {
  Counter counter;
  core::FcEngine<Counter> engine(counter);
  ScriptedOp failing;
  failing.throw_at = 1;  // thrown by the combiner, under the global lock
  ScriptedOp next;
  EXPECT_EQ(throw_then_execute(engine, failing, next),
            core::Phase::UnderLock);
  EXPECT_FALSE(engine.lock().is_locked());
  EXPECT_EQ(counter.value.get(), 1u);
  mem::EbrDomain::instance().drain();
}

TEST(LockRelease, ThrowFromVisibleAttemptUnpublishesOp) {
  Counter counter;
  core::HcfEngine<Counter> engine(counter);  // (2, 3, 5)
  auto& pa = engine.publication_array(0);
  ScriptedOp failing;
  failing.aborts = 2;    // both private runs abort...
  failing.throw_at = 3;  // ...and the first visible run throws
  EXPECT_THROW(engine.execute(failing), std::runtime_error);
  EXPECT_EQ(pa.peek(util::this_thread_id()), nullptr);
  EXPECT_FALSE(failing.in_visible_attempt());

  // Another thread's op then combines on the same array. Its scan must
  // not reach `failing`, whose owner may destroy it now, and it applies
  // only its own op.
  ScriptedOp next;
  next.aborts = 5;  // 2 private + 3 visible runs abort
  core::Phase phase{};
  std::thread other([&] {
    Watchdog watchdog(kLimit);
    phase = engine.execute(next);
  });
  other.join();
  EXPECT_EQ(phase, core::Phase::Combining);
  EXPECT_EQ(failing.runs, 3);
  EXPECT_EQ(counter.value.get(), 1u);
  EXPECT_EQ(pa.peek(util::this_thread_id()), nullptr);
  mem::EbrDomain::instance().drain();
}

}  // namespace
}  // namespace hcf::test
