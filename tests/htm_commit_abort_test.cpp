// How a failed attempt is torn down. A conflict found at commit returns a
// code instead of throwing, so these tests pin that the returning path
// cleans up exactly like the throwing one: orecs released, write-back flag
// down, speculative allocations freed, deferred retires dropped, and one
// abort counted. A user exception from the body still propagates.
#include "sim_htm/htm.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>

#include "mem/alloc.hpp"
#include "mem/ebr.hpp"
#include "sim_htm/stats.hpp"
#include "sync/tx_lock.hpp"
#include "util/thread_id.hpp"

namespace hcf::htm {
namespace {

struct Made {
  static inline std::atomic<int> live{0};
  Made() { live.fetch_add(1); }
  ~Made() { live.fetch_sub(1); }
};

struct Retired {
  static inline std::atomic<int> live{0};
  Retired() { live.fetch_add(1); }
  ~Retired() { live.fetch_sub(1); }
};

// Runs `fn` on a fresh thread and waits for it.
template <typename F>
void on_other_thread(F fn) {
  std::thread t(fn);
  t.join();  // lint:allow(tx-blocking-call) — the helper never waits on us
}

std::uint64_t conflict_aborts(const StatsSnapshot& d) {
  return d.aborts[static_cast<int>(AbortCode::Conflict)];
}

TEST(HtmCommitAbort, CommitConflictReturnsAndCleansUp) {
  alignas(64) static std::uint64_t x = 0;
  alignas(64) static std::uint64_t y = 0;
  Made::live = 0;
  Retired::live = 0;
  auto* node = mem::alloc<Retired>();
  const auto before = StatsSnapshot::capture();

  bool body_finished = false;
  const bool ok = attempt([&] {
    (void)read(&x);
    (void)make<Made>();
    retire(node);
    write(&y, std::uint64_t{1});
    // Another thread commits to x. The body reads nothing after this, so
    // only the commit's read-set validation can notice.
    on_other_thread([] { EXPECT_TRUE(attempt([] { write(&x, read(&x) + 1); })); });
    body_finished = true;
  });
  ASSERT_FALSE(ok);
  EXPECT_TRUE(body_finished) << "the abort must be raised at commit";
  EXPECT_EQ(last_abort_code(), AbortCode::Conflict);
  EXPECT_FALSE(in_txn());

  const auto d = StatsSnapshot::capture().delta_since(before);
  EXPECT_EQ(conflict_aborts(d), 1u);
  EXPECT_EQ(d.total_aborts(), 1u);
  EXPECT_EQ(d.commits, 1u);  // the other thread's write to x

  // Nothing was written back, and the write-back flag fell.
  EXPECT_EQ(y, 0u);
  ASSERT_EQ(detail::writeback_flag(util::this_thread_id()).load(), 0u);
  // The make<> allocation is freed; the retire never reached EBR.
  EXPECT_EQ(Made::live.load(), 0);
  mem::EbrDomain::instance().drain();
  EXPECT_EQ(Retired::live.load(), 1);

  // No orec is left locked: a writer on another thread (which could not
  // pass our lock tag off as its own) commits to y at the first try.
  EXPECT_FALSE(detail::is_locked(detail::orec_for(&y).load()));
  on_other_thread([] { EXPECT_TRUE(attempt([] { write(&y, read(&y) + 1); })); });
  EXPECT_EQ(y, 1u);
  // A lock acquirer's write-back drain returns.
  sync::TxLock lock;
  lock.lock();
  lock.unlock();

  retire(node);
  mem::EbrDomain::instance().drain();
  EXPECT_EQ(Retired::live.load(), 0);
}

TEST(HtmCommitAbort, BodyExceptionPropagatesAfterCleanup) {
  alignas(64) static std::uint64_t y = 0;
  Made::live = 0;
  Retired::live = 0;
  auto* node = mem::alloc<Retired>();
  const auto before = StatsSnapshot::capture();

  EXPECT_THROW(attempt([&] {
                 write(&y, std::uint64_t{1});
                 (void)make<Made>();
                 retire(node);
                 throw std::runtime_error("boom");
               }),
               std::runtime_error);
  EXPECT_FALSE(in_txn());
  const auto d = StatsSnapshot::capture().delta_since(before);
  EXPECT_EQ(d.aborts[static_cast<int>(AbortCode::Explicit)], 1u);
  EXPECT_EQ(d.total_aborts(), 1u);
  EXPECT_EQ(y, 0u);
  EXPECT_EQ(Made::live.load(), 0);
  mem::EbrDomain::instance().drain();
  EXPECT_EQ(Retired::live.load(), 1);

  // The thread's next transaction runs normally.
  EXPECT_TRUE(attempt([] { write(&y, read(&y) + 1); }));
  EXPECT_EQ(y, 1u);

  retire(node);
  mem::EbrDomain::instance().drain();
  EXPECT_EQ(Retired::live.load(), 0);
}

}  // namespace
}  // namespace hcf::htm
