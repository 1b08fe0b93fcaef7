// SCM's auxiliary-lock phase on the phase machine: after the free budget,
// a conflicted op retries alone on HTM holding its publication array's
// selection lock, then falls back to the data-structure lock. A
// single-threaded run never exhausts the free budget on its own, so the op
// here aborts its first N transactional runs explicitly.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "engine_test_util.hpp"
#include "mem/ebr.hpp"

namespace hcf::test {
namespace {

// SCM's default budgets: 5 free attempts, then 5 under the aux lock.
constexpr int kFree = 5;
constexpr int kAux = 5;

core::Phase expected_phase(int aborts) {
  if (aborts < kFree) return core::Phase::Private;
  if (aborts < kFree + kAux) return core::Phase::Combining;
  return core::Phase::UnderLock;
}

TEST(ScmAuxPhase, ConflictedRetriesHoldTheAuxLockThenFallBack) {
  // 7: two aborted aux retries, then a commit under the aux lock (SCM's
  // aux phase, reported as Combining). 10 and 25: the aux budget runs
  // out and the op completes under the data-structure lock.
  for (const int aborts : {4, 7, 10, 25}) {
    SCOPED_TRACE(aborts);
    Counter counter;
    core::ScmEngine<Counter> engine(counter, kFree, kAux);
    auto& selection = engine.publication_array(0).selection_lock();
    ScriptedOp op;
    op.aborts = aborts;
    std::vector<bool> held;  // per run, observed at its start
    op.on_run = [&] { held.push_back(selection.is_locked()); };

    const core::Phase phase = engine.execute(op);
    EXPECT_EQ(phase, expected_phase(aborts));
    // Every attempt after the free budget, the under-lock run included,
    // holds the selection lock; the free attempts do not.
    const int runs = std::min(aborts, kFree + kAux) + 1;
    ASSERT_EQ(held.size(), static_cast<std::size_t>(runs));
    for (int i = 0; i < runs; ++i) EXPECT_EQ(held[i], i >= kFree) << i;
    EXPECT_FALSE(selection.is_locked());
    EXPECT_FALSE(engine.lock().is_locked());
    EXPECT_EQ(counter.value.get(), 1u);
    const auto snap = core::EngineStatsSnapshot::capture(engine.stats());
    EXPECT_EQ(snap.phase_total(phase), 1u);
    EXPECT_EQ(snap.total(), 1u);
    mem::EbrDomain::instance().drain();
  }
}

}  // namespace
}  // namespace hcf::test
