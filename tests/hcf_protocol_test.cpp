// HCF protocol-level properties: exactly-once execution under contention
// (a hot word, and unique-key hash-table inserts on a flat and a sharded
// engine), phase accounting, helping, policy degenerations (TLE-like /
// FC-like), the single-combiner variant, and which protocol stores take
// the strong path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "adapters/ht_ops.hpp"
#include "core/engine.hpp"
#include "ds/hash_table.hpp"
#include "mem/ebr.hpp"
#include "sync/tx_lock.hpp"
#include "util/rng.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_id.hpp"

namespace hcf::core {
namespace {

// A data structure with one hot word — every operation conflicts, forcing
// traffic through announce/combine/lock phases.
struct HotSpot {
  htm::TxField<std::uint64_t> value{0};
};

// Each op increments the hot word and counts its own *effective*
// executions. The counter is a TxField: increments made by speculative
// attempts that abort are rolled back with the rest of the transaction, so
// the counter reflects exactly the executions that took effect — which is
// what "exactly once" means for speculative execution.
class CountedIncOp : public Operation<HotSpot> {
 public:
  using Operation<HotSpot>::Operation;

  void run_seq(HotSpot& ds) override {
    ds.value = ds.value + 1;
    executions_ = executions_ + 1;
  }

  std::uint64_t executions() const noexcept { return executions_.get(); }
  void reset_executions() noexcept { executions_.init(0); }

 private:
  htm::TxField<std::uint64_t> executions_{0};
};

TEST(HcfProtocol, ExactlyOnceUnderHeavyContention) {
  HotSpot ds;
  HcfEngine<HotSpot> engine(ds, PhasePolicy::paper_default());
  constexpr int kThreads = 4;
  constexpr int kOps = 8000;
  std::atomic<std::uint64_t> total_claimed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      CountedIncOp op;
      for (int i = 0; i < kOps; ++i) {
        op.reset_executions();
        engine.execute(op);
        // Exactly-once: the op must have run exactly one time.
        ASSERT_EQ(op.executions(), 1u);
        total_claimed.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ds.value.get(), static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_EQ(engine.stats().total(), total_claimed.load());
  mem::EbrDomain::instance().drain();
}

TEST(HcfProtocol, ExactlyOnceSingleCombinerVariant) {
  HotSpot ds;
  HcfSingleCombinerEngine<HotSpot> engine(ds, PhasePolicy::paper_default());
  constexpr int kThreads = 4;
  constexpr int kOps = 8000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      CountedIncOp op;
      for (int i = 0; i < kOps; ++i) {
        op.reset_executions();
        engine.execute(op);
        ASSERT_EQ(op.executions(), 1u);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ds.value.get(), static_cast<std::uint64_t>(kThreads) * kOps);
  mem::EbrDomain::instance().drain();
}

// A pause point: the armed thread parks there once, until the test
// releases it. Hooks in the gated locks below call maybe_pause(). reset()
// runs on the test's main thread before any worker starts, so a stale
// `reached` from an earlier test can never satisfy wait_reached().
class PausePoint {
 public:
  void reset() {
    armed_for_ = kNobody;
    reached_ = false;
    released_ = false;
  }
  void arm_for_this_thread() { armed_for_ = util::this_thread_id(); }
  void maybe_pause() {
    if (armed_for_.load() != util::this_thread_id()) return;
    armed_for_ = kNobody;
    reached_ = true;
    while (!released_.load()) std::this_thread::yield();
  }
  void wait_reached() const {
    while (!reached_.load()) std::this_thread::yield();
  }
  void release() { released_ = true; }

 private:
  static constexpr std::size_t kNobody = ~std::size_t{0};
  std::atomic<std::size_t> armed_for_{kNobody};
  std::atomic<bool> reached_{false};
  std::atomic<bool> released_{false};
};

struct Pauses {
  // Return of the selection lock's wait_until_free (SingleHolder owners
  // call it right before a visible attempt).
  static inline PausePoint sel_free;
  // Entry of the selection lock's transactional subscribe(), before the
  // lock word is read: inside the owner's visible attempt.
  static inline PausePoint sel_subscribe;
  // Return of the data-structure lock's wait_until_free (a combiner calls
  // it right before each combining transaction).
  static inline PausePoint ds_free;

  static void reset() {
    sel_free.reset();
    sel_subscribe.reset();
    ds_free.reset();
  }
};

class CAPABILITY("elidable_lock") GatedSelectionLock : public sync::TxLock {
 public:
  void wait_until_free(
      util::WaitPolicy p = util::WaitPolicy::SpinYield) const noexcept {
    sync::TxLock::wait_until_free(p);
    Pauses::sel_free.maybe_pause();
  }
  void subscribe() const ASSERT_SHARED_CAPABILITY(this) {
    Pauses::sel_subscribe.maybe_pause();
    sync::TxLock::subscribe();
  }
};

class CAPABILITY("elidable_lock") GatedDsLock : public sync::TxLock {
 public:
  void wait_until_free(
      util::WaitPolicy p = util::WaitPolicy::SpinYield) const noexcept {
    sync::TxLock::wait_until_free(p);
    Pauses::ds_free.maybe_pause();
  }
};

// Class 0 (the owner): one visible attempt, then combining. Class 1 (the
// combiner): announce and combine at once. Both share array 0.
std::vector<ClassConfig> owner_and_combiner_classes() {
  return {ClassConfig{0, PhasePolicy{0, 1, 5, true}},
          ClassConfig{0, PhasePolicy::combine_first()}};
}

// Regression: a SingleHolder combiner never strong-stores an op's status
// and mark_done is plain, so an owner whose visible attempt read its
// status before subscribing to the selection lock could extend its
// snapshot past a whole combining session that applied the op, then apply
// it a second time. Replayed deterministically: the combiner selects the
// owner's op and pauses before applying it; the owner then enters its
// visible attempt and pauses at its selection-lock subscription until the
// combiner's session is over.
TEST(HcfProtocol, SingleHolderOwnerNeverReappliesAnOpItsCombinerApplied) {
  HotSpot ds;
  HcfSingleCombinerEngine<HotSpot, GatedDsLock, GatedSelectionLock> engine(
      ds, owner_and_combiner_classes(), 1);
  CountedIncOp owner_op(0);
  CountedIncOp combiner_op(1);
  Pauses::reset();

  std::thread owner([&] {
    Pauses::sel_free.arm_for_this_thread();
    Pauses::sel_subscribe.arm_for_this_thread();
    engine.execute(owner_op);
  });
  // Announced, about to start its visible attempt.
  Pauses::sel_free.wait_reached();
  std::thread combiner([&] {
    Pauses::ds_free.arm_for_this_thread();
    engine.execute(combiner_op);
  });
  // Selection lock held, owner's op selected, nothing applied yet.
  Pauses::ds_free.wait_reached();
  Pauses::sel_free.release();
  Pauses::sel_subscribe.wait_reached();
  // The owner's attempt is open; let the combiner finish its session.
  Pauses::ds_free.release();
  combiner.join();
  EXPECT_EQ(owner_op.executions(), 1u) << "the combiner applies the owner's op";
  Pauses::sel_subscribe.release();
  owner.join();

  EXPECT_EQ(owner_op.executions(), 1u);
  EXPECT_EQ(combiner_op.executions(), 1u);
  EXPECT_EQ(ds.value.get(), 2u);
  const auto snap = EngineStatsSnapshot::capture(engine.stats());
  EXPECT_EQ(snap.helped_ops, 1u);
  EXPECT_EQ(snap.phase_total(Phase::Visible), 0u);
  mem::EbrDomain::instance().drain();
}

// The visible-attempt gate: a combiner never selects an op while its
// owner is inside a visible attempt, because the doomed attempt may still
// write the descriptor's result fields with plain stores. The owner is
// paused inside its attempt while a combiner runs a whole session; the
// combiner must leave the owner's op alone, and the owner then commits it.
TEST(HcfProtocol, CombinerSkipsAnOpWhoseOwnerIsMidAttempt) {
  HotSpot ds;
  HcfEngine<HotSpot, sync::TxLock, GatedSelectionLock> engine(
      ds, owner_and_combiner_classes(), 1);
  CountedIncOp owner_op(0);
  CountedIncOp combiner_op(1);
  Pauses::reset();

  std::thread owner([&] {
    Pauses::sel_subscribe.arm_for_this_thread();
    engine.execute(owner_op);
  });
  Pauses::sel_subscribe.wait_reached();
  engine.execute(combiner_op);
  EXPECT_EQ(owner_op.executions(), 0u);
  EXPECT_EQ(EngineStatsSnapshot::capture(engine.stats()).helped_ops, 0u);
  Pauses::sel_subscribe.release();
  owner.join();

  EXPECT_EQ(owner_op.executions(), 1u);
  EXPECT_EQ(combiner_op.executions(), 1u);
  EXPECT_EQ(ds.value.get(), 2u);
  const auto snap = EngineStatsSnapshot::capture(engine.stats());
  EXPECT_EQ(snap.helped_ops, 0u);
  EXPECT_EQ(snap.phase_total(Phase::Visible), 1u);
  mem::EbrDomain::instance().drain();
}

// A combining session that helps nobody pays exactly the selection lock's
// acquire and release on the strong path. Announcing, the combiner's
// transition of its own op and unpublishing its own slot doom no live
// transaction, so they are plain stores.
TEST(HcfProtocol, LoneCombineFirstSessionMakesTwoStrongStores) {
  HotSpot ds;
  HcfEngine<HotSpot> engine(ds, PhasePolicy::combine_first());
  CountedIncOp op;
  engine.execute(op);  // first use: thread registration, pool warm-up
  const auto before = htm::StatsSnapshot::capture();
  const auto core_before = EngineStatsSnapshot::capture(engine.stats());
  engine.execute(op);
  const auto delta = htm::StatsSnapshot::capture().delta_since(before);
  const auto core =
      EngineStatsSnapshot::capture(engine.stats()).delta_since(core_before);
  EXPECT_EQ(core.combiner_sessions, 1u);
  EXPECT_EQ(core.ops_selected, 1u);
  EXPECT_EQ(delta.strong_stores, 2u);
  EXPECT_EQ(ds.value.get(), 2u);
  mem::EbrDomain::instance().drain();
}

TEST(HcfProtocol, PhaseCountsSumToOps) {
  HotSpot ds;
  HcfEngine<HotSpot> engine(ds, PhasePolicy::paper_default());
  constexpr int kThreads = 4;
  constexpr int kOps = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      CountedIncOp op;
      for (int i = 0; i < kOps; ++i) engine.execute(op);
    });
  }
  for (auto& th : threads) th.join();
  const auto snap = EngineStatsSnapshot::capture(engine.stats());
  std::uint64_t sum = 0;
  for (int p = 0; p < kNumPhases; ++p) {
    sum += snap.phase_total(static_cast<Phase>(p));
  }
  EXPECT_EQ(sum, static_cast<std::uint64_t>(kThreads) * kOps);
  // (Whether later phases engage is timing-dependent with the default
  // policy; HelpingActuallyHappens pins that down with combine_first.)
  mem::EbrDomain::instance().drain();
}

TEST(HcfProtocol, HelpingActuallyHappens) {
  // combine_first: every op announces and goes straight to the combining
  // phases, so selection-lock contention makes helping overwhelmingly
  // likely — but not certain: the threads can fall into a lock-step
  // convoy where every scan happens while nobody else is announced
  // (observed ~20% of runs on the development container, at the seed
  // commit too). The property under test is "helping CAN happen and the
  // stats account for it", so retry the workload a few times and assert
  // on the run that escaped the convoy.
  HotSpot ds;
  HcfEngine<HotSpot> engine(ds, PhasePolicy::combine_first());
  constexpr int kThreads = 4;
  constexpr int kOps = 8000;
  constexpr int kAttempts = 5;
  EngineStatsSnapshot snap;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        CountedIncOp op;
        for (int i = 0; i < kOps; ++i) engine.execute(op);
      });
    }
    for (auto& th : threads) th.join();
    snap = EngineStatsSnapshot::capture(engine.stats());
    if (snap.helped_ops > 0) break;
  }
  EXPECT_GT(snap.helped_ops, 0u);
  EXPECT_GT(snap.combiner_sessions, 0u);
  EXPECT_GE(snap.ops_selected, snap.combiner_sessions);  // >= own op each
  EXPECT_GT(snap.combining_degree(), 1.0);
  mem::EbrDomain::instance().drain();
}

TEST(HcfProtocol, TleLikePolicyNeverAnnounces) {
  HotSpot ds;
  HcfEngine<HotSpot> engine(ds, PhasePolicy::tle_like());
  constexpr int kThreads = 4;
  constexpr int kOps = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      CountedIncOp op;
      for (int i = 0; i < kOps; ++i) {
        op.reset_executions();
        engine.execute(op);
        ASSERT_EQ(op.executions(), 1u);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ds.value.get(), static_cast<std::uint64_t>(kThreads) * kOps);
  const auto snap = EngineStatsSnapshot::capture(engine.stats());
  // TLE degeneration: no visible-phase completions, no helping.
  EXPECT_EQ(snap.phase_total(Phase::Visible), 0u);
  EXPECT_EQ(snap.helped_ops, 0u);
  EXPECT_EQ(snap.phase_total(Phase::Private) +
                snap.phase_total(Phase::Combining) +
                snap.phase_total(Phase::UnderLock),
            static_cast<std::uint64_t>(kThreads) * kOps);
  mem::EbrDomain::instance().drain();
}

TEST(HcfProtocol, FcLikePolicySkipsAllSpeculation) {
  HotSpot ds;
  HcfEngine<HotSpot> engine(ds, PhasePolicy::fc_like());
  htm::stats().reset();
  constexpr int kThreads = 4;
  constexpr int kOps = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      CountedIncOp op;
      for (int i = 0; i < kOps; ++i) {
        op.reset_executions();
        engine.execute(op);
        ASSERT_EQ(op.executions(), 1u);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ds.value.get(), static_cast<std::uint64_t>(kThreads) * kOps);
  const auto snap = EngineStatsSnapshot::capture(engine.stats());
  // FC degeneration: everything completes under the lock, with combining.
  EXPECT_EQ(snap.phase_total(Phase::Private), 0u);
  EXPECT_EQ(snap.phase_total(Phase::Visible), 0u);
  EXPECT_EQ(snap.phase_total(Phase::Combining), 0u);
  EXPECT_EQ(snap.phase_total(Phase::UnderLock),
            static_cast<std::uint64_t>(kThreads) * kOps);
  // No transactions were even started by the engine.
  EXPECT_EQ(htm::StatsSnapshot::capture().starts, 0u);
  mem::EbrDomain::instance().drain();
}

TEST(HcfProtocol, MultipleArraysIsolateClasses) {
  // Two classes on two arrays; class-1 combiners must never select class-0
  // ops. Observable: every op-0 execution is by its own thread (helped_ops
  // stays zero when only class 0 announces... instead we check per-class
  // phase totals reconcile exactly).
  HotSpot ds;
  std::vector<ClassConfig> classes = {
      ClassConfig{0, PhasePolicy::paper_default()},
      ClassConfig{1, PhasePolicy::paper_default()},
  };
  HcfEngine<HotSpot> engine(ds, classes, 2);
  constexpr int kThreads = 4;
  constexpr int kOps = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      CountedIncOp op(t % 2);  // half the threads use class 1
      for (int i = 0; i < kOps; ++i) {
        op.reset_executions();
        engine.execute(op);
        ASSERT_EQ(op.executions(), 1u);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ds.value.get(), static_cast<std::uint64_t>(kThreads) * kOps);
  const auto snap = EngineStatsSnapshot::capture(engine.stats());
  EXPECT_EQ(snap.class_total(0), static_cast<std::uint64_t>(kThreads / 2) * kOps * 2 / 2);
  EXPECT_EQ(snap.class_total(1), static_cast<std::uint64_t>(kThreads / 2) * kOps);
  mem::EbrDomain::instance().drain();
}

TEST(HcfProtocol, ZeroTrialsEverywhereStillCompletes) {
  // Degenerate policy: no HTM anywhere, no announcing — pure lock.
  HotSpot ds;
  HcfEngine<HotSpot> engine(ds, PhasePolicy{0, 0, 0, false});
  CountedIncOp op;
  for (int i = 0; i < 100; ++i) engine.execute(op);
  EXPECT_EQ(ds.value.get(), 100u);
  const auto snap = EngineStatsSnapshot::capture(engine.stats());
  EXPECT_EQ(snap.phase_total(Phase::UnderLock), 100u);
}

TEST(HcfProtocol, RunMultiPartialBatchesRetireInPrefixOrder) {
  // An op whose run_multi executes at most 2 ops per call: the engine must
  // loop until all selected ops are done, never losing or repeating one.
  struct SlowBatchOp : public CountedIncOp {
    using CountedIncOp::CountedIncOp;
    std::size_t run_multi(HotSpot& ds,
                          std::span<Operation<HotSpot>*> ops) override {
      const std::size_t k = std::min<std::size_t>(2, ops.size());
      for (std::size_t i = 0; i < k; ++i) ops[i]->run_seq(ds);
      return k;
    }
  };
  HotSpot ds;
  HcfEngine<HotSpot> engine(ds, PhasePolicy::fc_like());
  constexpr int kThreads = 4;
  constexpr int kOps = 3000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      SlowBatchOp op;
      for (int i = 0; i < kOps; ++i) {
        op.reset_executions();
        engine.execute(op);
        ASSERT_EQ(op.executions(), 1u);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ds.value.get(), static_cast<std::uint64_t>(kThreads) * kOps);
  mem::EbrDomain::instance().drain();
}

TEST(HcfProtocol, CapacityAbortsFallThroughToCombining) {
  // Shrink capacity so speculative attempts always fail; operations must
  // still complete exactly once via the lock phases.
  struct WideDs {
    htm::TxField<std::uint64_t> words[64];
  };
  class WideOp : public Operation<WideDs> {
   public:
    void run_seq(WideDs& ds) override {
      for (auto& w : ds.words) w = w + 1;
    }
  };
  htm::ScopedCapacity caps(16, 4);
  WideDs ds;
  HcfEngine<WideDs> engine(ds, PhasePolicy::paper_default());
  constexpr int kThreads = 3;
  constexpr int kOps = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      WideOp op;
      for (int i = 0; i < kOps; ++i) engine.execute(op);
    });
  }
  for (auto& th : threads) th.join();
  for (auto& w : ds.words) {
    EXPECT_EQ(w.get(), static_cast<std::uint64_t>(kThreads) * kOps);
  }
  mem::EbrDomain::instance().drain();
}

TEST(HcfProtocol, FairLocksProvideProgressForEveryThread) {
  // With fair (ticket) data-structure and selection locks, every thread
  // must complete its quota in bounded time even under total conflict —
  // the paper's starvation-freedom claim (§2.3) in executable form.
  HotSpot ds;
  HcfEngine<HotSpot, sync::FairTxLock, sync::FairTxLock> engine(
      ds, PhasePolicy::paper_default());
  constexpr int kThreads = 6;  // oversubscribed on 2 cores
  constexpr int kOps = 2000;
  std::atomic<int> finished{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      CountedIncOp op;
      for (int i = 0; i < kOps; ++i) engine.execute(op);
      finished.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(finished.load(), kThreads);
  EXPECT_EQ(ds.value.get(), static_cast<std::uint64_t>(kThreads) * kOps);
  mem::EbrDomain::instance().drain();
}

// Unique-key inserts through the paper's hash-table configuration: a
// double apply would flip the second insert's result to false (the key
// already exists), a lost op would leave its key missing, and a double
// retirement would inflate the completion stats past the op count. The
// critical-section work keeps owners waiting long enough that combiners
// select real batches.
using HtTable = ds::HashTable<std::uint64_t, std::uint64_t>;
using HtInsert = adapters::HtInsertOp<std::uint64_t, std::uint64_t>;

template <typename Engine>
void run_unique_inserts(Engine& engine, std::size_t threads,
                        std::size_t ops_per_thread) {
  std::atomic<std::uint64_t> false_results{0};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      HtInsert ins;
      ins.set_work(60);
      for (std::size_t r = 0; r < ops_per_thread; ++r) {
        const std::uint64_t key = t * ops_per_thread + r + 1;
        ins.set(key, key * 2 + 1);
        engine.execute(ins);
        if (!ins.result()) false_results.fetch_add(1);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(false_results.load(), 0u)
      << "an insert of a unique key returned false: applied twice";
}

TEST(HcfProtocol, UniqueInsertsApplyExactlyOnceOnFlatEngine) {
  HtTable table(256);
  HcfEngine<HtTable> engine(table, adapters::ht_paper_config(),
                            adapters::kHtNumArrays);
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kOps = 1200;
  run_unique_inserts(engine, kThreads, kOps);
  EXPECT_EQ(table.size_slow(), kThreads * kOps);
  EXPECT_TRUE(table.check_invariants());
  // Exactly one completion per executed op.
  EXPECT_EQ(engine.stats().total(), kThreads * kOps);
  mem::EbrDomain::instance().drain();
}

TEST(HcfProtocol, UniqueInsertsApplyExactlyOnceAcrossShards) {
  for (const std::size_t shards : {std::size_t{2}, std::size_t{8}}) {
    std::vector<std::unique_ptr<HtTable>> tables;
    std::vector<HtTable*> ptrs;
    for (std::size_t i = 0; i < shards; ++i) {
      tables.push_back(std::make_unique<HtTable>(256));
      ptrs.push_back(tables.back().get());
    }
    ShardedEngine<HcfEngine<HtTable>> engine(std::span<HtTable* const>(ptrs),
                                             adapters::ht_paper_config(),
                                             adapters::kHtNumArrays);
    constexpr std::size_t kThreads = 8;
    const std::size_t ops = shards == 2 ? 1200 : 800;
    run_unique_inserts(engine, kThreads, ops);
    EXPECT_EQ(engine.size(), kThreads * ops) << shards << " shards";
    EXPECT_EQ(engine.stats_snapshot().total(), kThreads * ops)
        << shards << " shards";
    mem::EbrDomain::instance().drain();
  }
}

}  // namespace
}  // namespace hcf::core
