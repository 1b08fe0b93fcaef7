// The phase machine — the paper's four-phase execution protocol (§2.1),
// implemented once and instantiated by every engine:
//
//   1. TryPrivate       — speculative attempts before announcing.
//   2. TryVisible       — announce in the class's publication array, then
//                         more speculative attempts; the transaction checks
//                         (a) the data-structure lock, (b) the operation is
//                         still Announced, (c) the array's selection lock is
//                         free, and removes the announcement in the same
//                         transaction that applies the op.
//   3. TryCombining     — become a combiner: under the selection lock,
//                         select announced operations (should_help); then
//                         apply them in one or more hardware transactions
//                         through run_multi.
//   4. CombineUnderLock — acquire the data-structure lock and finish the
//                         remaining selected operations non-speculatively.
//
// What an engine *is* in this tree is a choice of CombinerMode plus a
// per-class PhasePolicy — the paper's §2.4 degeneration theorem stated
// structurally. The EnginePolicy table (DESIGN.md §10):
//
//   mode             policy (per class)            engine        paper
//   Multi            paper_default() {2,3,5,on}    HcfEngine     HCF §2.1
//   SingleHolder     paper_default()               Hcf-1C        §2.4
//   SingleHolder     {5,0,5,off}                   ScmEngine     SCM §3
//   None             tle_like(b)    {b,0,0,off}    TleEngine     TLE §3
//   None             {0,0,0,off}                   LockEngine    Lock §3
//   UnderGlobalLock  fc_like()      {0,0,0,on}     FcEngine      FC §3
//   UnderGlobalLock  {b,0,0,on}                    TleFcEngine   TLE+FC §3.3
//
// Operation classes (Operation::class_id) map to publication arrays with
// independent per-phase attempt budgets, which is how the paper expresses
// per-operation policies (e.g. hash-table Insert combines, Find/Remove run
// TLE-like). Correctness is configuration-independent; only performance
// changes (§2.1).
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/combine_core.hpp"
#include "core/engine_stats.hpp"
#include "mem/pool.hpp"
#include "core/operation.hpp"
#include "core/publication_array.hpp"
#include "core/types.hpp"
#include "mem/ebr.hpp"
#include "sim_htm/htm.hpp"
#include "sync/tx_lock.hpp"
#include "telemetry/telemetry.hpp"
#include "util/backoff.hpp"
#include "util/parking.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_id.hpp"

namespace hcf::core {

inline constexpr int kDefaultHtmBudget = 10;

// Per-operation-class policy: HTM attempt budgets per phase (paper's
// TryPrivateTrials / TryVisibleTrials / TryCombiningTrials) and whether the
// class announces at all. announce=false yields pure TLE behaviour for the
// class: failed speculation goes straight to running its own op under the
// lock.
struct PhasePolicy {
  int try_private = 2;
  int try_visible = 3;
  int try_combining = 5;
  bool announce = true;
  // How this class's threads wait — on the data-structure lock, the
  // selection-lock competition, and their own op status (DESIGN.md §12).
  // SpinYield is the paper-faithful default; SpinPark escalates to futex
  // parking and pays off under oversubscription (Figure 7).
  util::WaitPolicy wait = util::WaitPolicy::SpinYield;

  static constexpr PhasePolicy paper_default() noexcept {
    return {2, 3, 5, true};
  }
  // TLE expressed as an HCF configuration (§2.4).
  static constexpr PhasePolicy tle_like(int budget = kDefaultHtmBudget) noexcept {
    return {budget, 0, 0, false};
  }
  // FC expressed as an HCF configuration (§2.4).
  static constexpr PhasePolicy fc_like() noexcept { return {0, 0, 0, true}; }
  // The paper's contended-operation policy (e.g. priority-queue RemoveMin):
  // skip the private phase, announce immediately, combine on HTM.
  static constexpr PhasePolicy combine_first(int combining = 10) noexcept {
    return {0, 0, combining, true};
  }
};

struct ClassConfig {
  std::size_t array = 0;  // publication array index
  PhasePolicy policy{};
};

// A uniform class table: every operation class runs `policy` against
// publication array 0. The degenerate engines (TLE, FC, TLE+FC, Lock) are
// single-policy by definition, but their class tables stay full-width so
// any class_id executes.
inline std::vector<ClassConfig> uniform_classes(const PhasePolicy& policy) {
  return std::vector<ClassConfig>(static_cast<std::size_t>(kMaxOpClasses),
                                  ClassConfig{0, policy});
}

// How (and whether) an engine combines:
//
//   None            — no publication protocol at all; a failed private
//                     phase runs the thread's own op under the lock.
//   Multi           — the paper's default: combiners hold the selection
//                     lock only while selecting (marking victims
//                     BeingHelped), then combine on HTM concurrently with
//                     owners' visible attempts.
//   SingleHolder    — §2.4 specialization: the combiner keeps the
//                     selection lock for the whole combining phase, so
//                     BeingHelped is unnecessary (Announced -> Done). A
//                     never-announcing class holds it too while it retries
//                     its own op on HTM: no speculator subscribes to it,
//                     so conflicting retries serialize while everyone
//                     else keeps speculating — SCM's auxiliary lock.
//   UnderGlobalLock — flat combining: the data-structure lock doubles as
//                     the selection lock, and all combining runs under it.
enum class CombinerMode : std::uint8_t {
  None,
  Multi,
  SingleHolder,
  UnderGlobalLock,
};

template <CombinerMode Mode>
struct EnginePolicy {
  static constexpr CombinerMode kMode = Mode;
  // Only Multi needs the BeingHelped transition: SingleHolder dooms owners
  // by holding the selection lock instead, and the other modes never help.
  static constexpr bool kMarkBeingHelped = (Mode == CombinerMode::Multi);
};

// The statically-parameterized phase machine every engine instantiates.
// `EP` is an EnginePolicy; `Lock` elides the data structure; SelectionLock
// serializes combiner selection per publication array.
template <typename DS, typename EP, sync::ElidableLock Lock = sync::TxLock,
          sync::ElidableLock SelectionLock = sync::TxLock>
class PhaseMachine {
 public:
  using Op = Operation<DS>;
  using PubArray = PublicationArray<DS, SelectionLock>;
  using Core = CombineCore<DS, Lock, SelectionLock>;
  static constexpr CombinerMode kMode = EP::kMode;

  // `classes[i]` configures operations with class_id == i. `num_arrays`
  // publication arrays are created; every ClassConfig::array must be < it.
  // `scan_rounds` is UnderGlobalLock-only: how many times a combiner
  // rescans the array before releasing the lock (classic FC performs
  // several passes to pick up late arrivals).
  PhaseMachine(DS& ds, std::vector<ClassConfig> classes,
               std::size_t num_arrays = 1, int scan_rounds = 1)
      : ds_(ds), classes_(std::move(classes)), scan_rounds_(scan_rounds) {
    assert(!classes_.empty());
    assert(classes_.size() <= static_cast<std::size_t>(kMaxOpClasses));
    for ([[maybe_unused]] const auto& c : classes_) {
      assert(c.array < num_arrays);
    }
    arrays_.reserve(num_arrays);
    for (std::size_t i = 0; i < num_arrays; ++i) {
      arrays_.push_back(std::make_unique<PubArray>());
    }
  }

  Phase execute(Op& op) {
    mem::Guard ebr;
    op.prepare();
    assert(static_cast<std::size_t>(op.class_id()) < classes_.size());
    const ClassConfig& cfg = classes_[static_cast<std::size_t>(op.class_id())];
    const PhasePolicy& policy = cfg.policy;
    PubArray& pa = *arrays_[cfg.array];

    // Telemetry hooks live here, between phases and outside every
    // htm::attempt body (lint rules tx-telemetry-call and
    // phase-telemetry-pairing). A phase's enter/exit pair is emitted iff
    // the policy actually runs the phase.
    if (policy.try_private > 0) {
      telemetry::phase_enter(static_cast<int>(Phase::Private));
      const bool done_private = try_private(op, policy);
      telemetry::phase_exit(static_cast<int>(Phase::Private), done_private);
      if (done_private) return Phase::Private;
    }

    if constexpr (kMode == CombinerMode::None) {
      run_own_under_lock(op, policy.wait);
      return Phase::UnderLock;
    } else if constexpr (kMode == CombinerMode::UnderGlobalLock) {
      if (!policy.announce) {
        run_own_under_lock(op, policy.wait);
        return Phase::UnderLock;
      }
      return announce_and_combine_global(op, pa, policy.wait);
    } else {
      return visible_then_combine(op, pa, policy);
    }
  }

  EngineStats& stats() noexcept { return stats_; }
  std::uint64_t lock_acquisitions() const noexcept {
    return lock_.acquisition_count();
  }
  void reset_stats() noexcept {
    stats_.reset();
    lock_.reset_stats();
  }

  DS& data() noexcept { return ds_; }
  Lock& lock() noexcept { return lock_; }
  PubArray& publication_array(std::size_t i) noexcept { return *arrays_[i]; }

 private:
  // ---- Phase 1 -------------------------------------------------------
  bool try_private(Op& op, const PhasePolicy& policy) {
    util::ExpBackoff backoff(
        util::backoff_seed(util::BackoffSite::kPhasePrivate));
    for (int attempt = 0; attempt < policy.try_private; ++attempt) {
      lock_.wait_until_free(policy.wait);
      const bool committed = htm::attempt([&] {
        lock_.subscribe();
        op.run_seq(ds_);
      });
      if (committed) {
        complete(op, Phase::Private);
        return true;
      }
      stats_.record_attempt_failure(op.class_id());
      if (htm::last_abort_code() == htm::AbortCode::Capacity) return false;
      if (htm::last_abort_code() == htm::AbortCode::Conflict) backoff.pause();
    }
    return false;
  }

  // ---- Phase 2 -------------------------------------------------------
  bool try_visible(Op& op, PubArray& pa, const PhasePolicy& policy) {
    op.mark_announced();
    pa.add(&op);

    util::ExpBackoff backoff(
        util::backoff_seed(util::BackoffSite::kPhaseVisible));
    for (int attempt = 0; attempt < policy.try_visible; ++attempt) {
      // A combiner may have selected (and completed) us already.
      if (op.status() != OpStatus::Announced) {
        op.wait_done(policy.wait);
        return true;
      }
      lock_.wait_until_free(policy.wait);
      if constexpr (kMode == CombinerMode::SingleHolder) {
        // An active combiner holds the selection lock for its entire
        // combining phase; a transaction started before it releases would
        // only abort on the subscription below.
        pa.selection_lock().wait_until_free(policy.wait);
      }
      op.enter_visible_attempt();
      bool committed;
      try {
        committed = htm::attempt([&] {
          lock_.subscribe();
          // Abort if a combiner is scanning the array or selected us: these
          // reads join the read set, so *later* selection also dooms us.
          // Subscribe to the selection lock *before* reading the status. A
          // SingleHolder combiner never strong-stores an op's status (and
          // mark_done is plain), so a status read taken before this
          // subscription could be extended past a whole combining session
          // that applied the op — the snapshot revalidation would find the
          // status orec unmoved and the freshly read lock word free.
          pa.selection_lock().subscribe();
          if (op.status_tx() != OpStatus::Announced) htm::abort_tx();
          op.run_seq(ds_);
          // Unpublish atomically with the op's effect (the race discussed
          // in §2.2: a combiner must never select an already-applied op).
          pa.remove_tx(&op);
        });
      } catch (...) {
        // The op body threw and the exception leaves execute(): the owner
        // may free the descriptor, so no combiner may find it announced.
        // The raised gate keeps scanners off it until the slot is clear.
        pa.remove_strong();
        op.leave_visible_attempt();
        throw;
      }
      op.leave_visible_attempt();
      if (committed) {
        complete(op, Phase::Visible);
        return true;
      }
      stats_.record_attempt_failure(op.class_id());
      if (htm::last_abort_code() == htm::AbortCode::Conflict) backoff.pause();
    }
    // Not completed; the op stays announced and we escalate to combining.
    return false;
  }

  // ---- Phases 2–4, Multi / SingleHolder ------------------------------
  Phase visible_then_combine(Op& op, PubArray& pa, const PhasePolicy& policy) {
    if (policy.announce) {
      telemetry::phase_enter(static_cast<int>(Phase::Visible));
      const bool done_visible = try_visible(op, pa, policy);
      telemetry::phase_exit(static_cast<int>(Phase::Visible), done_visible);
      if (done_visible) return op.completed_phase();
    }

    std::vector<Op*>& ops_to_help = Core::scratch();
    ops_to_help.clear();
    std::size_t session_ops = 0;
    SelectionHold selection{pa};
    bool done_combining;
    if (policy.announce || policy.try_combining > 0) {
      telemetry::phase_enter(static_cast<int>(Phase::Combining));
      done_combining =
          try_combining(op, pa, policy, ops_to_help, session_ops, selection);
      telemetry::phase_exit(static_cast<int>(Phase::Combining),
                            done_combining);
    } else {
      // Never-announced class with no combining budget: carry only our
      // own op straight to the under-lock fallback.
      ops_to_help.push_back(&op);
      done_combining = false;
    }
    if (!done_combining) {
      telemetry::phase_enter(static_cast<int>(Phase::UnderLock));
      Core::combine_under_lock(lock_, ds_, op, pa, ops_to_help, stats_,
                               policy.wait);
      telemetry::phase_exit(static_cast<int>(Phase::UnderLock), true);
    }
    // A combining session (if one started) is over once every selected op
    // has been applied, speculatively or under the lock.
    if (session_ops != 0) telemetry::combine_end(session_ops);
    // Session-boundary reclamation flush: retires run on the helped
    // owners' behalf (their ops' owner_slot() pools) were batched into
    // this thread's outbound bins; push them to the owners' inboxes in
    // one CAS per destination before leaving the session. A lone session
    // helped nobody: its remote frees are ordinary ones, and the
    // bin-capacity and EBR-collect flushes batch them across sessions
    // instead of shipping about one block per CAS.
    if (session_ops > 1) mem::flush_remote_frees();
    return op.completed_phase();
  }

  // SingleHolder's hold on an array's selection lock across a whole
  // combining session: try_combining sets `held` once it owns the lock,
  // and the destructor releases it on every exit from
  // visible_then_combine — an exception thrown by an op body included.
  // Multi releases inside try_combining and never sets `held`.
  struct SelectionHold {
    PubArray& pa;
    bool held = false;

    // tsa: counterpart of try_combining's deferred release — whether the
    // selection lock is held here depends on the runtime `held` flag that
    // try_combining sets, a protocol shape outside TSA's block-scoped
    // model.
    NO_THREAD_SAFETY_ANALYSIS
    ~SelectionHold() {
      if (!held) return;
      pa.selection_lock().unlock();
      // Liveness (§12): a competition loser may have parked on the epoch
      // just after this session's final publish; the release is its last
      // wake source, so every session-ending unlock must issue one.
      pa.wake_epoch_waiters();
      telemetry::sel_lock_released();
    }
  };

  // ---- Phase 3 -------------------------------------------------------
  // Returns true iff nothing is left for CombineUnderLock. The caller's
  // own op may be complete even when this returns false (the paper notes
  // exactly this asymmetry) — remaining selected ops still must be run.
  // In SingleHolder mode a taken selection lock sets `selection.held`; the
  // caller releases it after the under-lock fallback.
  //
  // tsa: the selection lock's lifetime here is conditional on runtime state
  // (acquired iff policy.announce and not already Done, or by a
  // never-announcing SingleHolder class; released before returning in
  // Multi mode but retained across the return in SingleHolder, signalled
  // through `selection.held`). TSA requires every path of a
  // function to agree on the held set, so this juggling function opts out;
  // the scan discipline it brokers stays compiler-checked inside
  // CombineCore (select_batch REQUIRES the selection lock) and
  // PublicationArray.
  NO_THREAD_SAFETY_ANALYSIS
  bool try_combining(Op& op, PubArray& pa, const PhasePolicy& policy,
                     std::vector<Op*>& ops_to_help, std::size_t& session_ops,
                     SelectionHold& selection) {
    if (policy.announce) {
      if (!Core::acquire_selection_or_done(op, pa, policy.wait)) return true;
      telemetry::sel_lock_acquired();
      if (op.status() != OpStatus::Announced) {
        // Selected between our last check and the lock acquisition; the
        // selecting combiner is guaranteed to finish our op.
        pa.selection_lock().unlock();
        pa.wake_epoch_waiters();  // liveness, see SelectionHold
        telemetry::sel_lock_released();
        op.wait_done(policy.wait);
        return true;
      }
      Core::template select_batch<EP::kMarkBeingHelped>(op, pa, ops_to_help,
                                                        stats_);
      if constexpr (kMode == CombinerMode::Multi) {
        pa.selection_lock().unlock();
        pa.wake_epoch_waiters();  // liveness, see SelectionHold
        telemetry::sel_lock_released();
      } else {
        selection.held = true;
      }
      // Batch shaping happens outside the scan (in Multi mode, after the
      // selection lock is released): group by the adapter's combine key
      // (so run_multi sees eliminable pairs adjacent) and pull the
      // descriptors toward this core.
      Core::group_and_prefetch(op, ops_to_help, stats_);
      // Only announcing classes count as combining sessions — a TLE-like
      // class falling through to the lock is not a combiner (keeps the
      // Fig. 4 combining-degree metric meaningful).
      stats_.combiner_sessions.add();
      stats_.ops_selected.add(ops_to_help.size());
      session_ops = ops_to_help.size();
      telemetry::combine_begin(session_ops);
    } else {
      // Never-announced (TLE-like) class: we "combine" only our own op.
      // SingleHolder retries it holding the selection lock, which no
      // speculator subscribes to: conflicting retries run one at a time
      // (SCM's auxiliary lock) while other threads keep speculating.
      if constexpr (kMode == CombinerMode::SingleHolder) {
        pa.selection_lock().lock(policy.wait);
        telemetry::sel_lock_acquired();
        selection.held = true;
      }
      ops_to_help.push_back(&op);
    }
    return Core::combine_on_htm(lock_, ds_, op, pa, ops_to_help,
                                policy.try_combining, stats_, policy.wait);
  }

  // ---- Phases 2+4, UnderGlobalLock (flat combining) ------------------
  Phase announce_and_combine_global(Op& op, PubArray& pa,
                                    util::WaitPolicy wait) {
    op.mark_announced();
    pa.add(&op);
    telemetry::phase_enter(static_cast<int>(Phase::Visible));
    // Waiter protocol (DESIGN.md §9.3): bounded exponential pause on our
    // own status line; when the combiner's epoch moves a batch just
    // retired, so re-check status before re-polling the lock line. Under
    // SpinPark losers sleep on the epoch word; combine_global's publishes
    // and every combiner's wake_all_epoch_waiters (below) wake them.
    util::TieredWait waiter(util::WaitSite::kSelectionLock, wait);
    std::uint32_t epoch = pa.combined_epoch();
    for (;;) {
      if (op.status() == OpStatus::Done) {
        telemetry::phase_exit(static_cast<int>(Phase::Visible), true);
        return op.completed_phase();
      }
      const std::uint32_t now = pa.combined_epoch();
      if (now != epoch) {
        epoch = now;
        waiter.reset();
        continue;
      }
      if (lock_.try_lock()) {
        telemetry::phase_exit(static_cast<int>(Phase::Visible), false);
        telemetry::phase_enter(static_cast<int>(Phase::UnderLock));
        {
          // Both run on every exit, an exception from an op body included:
          // the guard releases the lock, then `wake` runs.
          EpochWakeOnExit wake{*this};
          sync::LockGuard<Lock> guard(lock_, std::adopt_lock);
          Core::combine_global(lock_, ds_, op, pa, stats_, scan_rounds_);
        }
        telemetry::phase_exit(static_cast<int>(Phase::UnderLock), true);
        // The combiner always executes its own announced operation.
        assert(op.status() == OpStatus::Done);
        return op.completed_phase();
      }
      if (waiter.wait()) {
        pa.park_on_epoch(now, lock_);
        waiter.reset();
      }
    }
  }

  // ---- Phase 4, own op only ------------------------------------------
  void run_own_under_lock(Op& op, util::WaitPolicy wait) {
    telemetry::phase_enter(static_cast<int>(Phase::UnderLock));
    {
      sync::LockGuard<Lock> guard(lock_, wait);
      op.run_seq(ds_);
    }
    if constexpr (kMode == CombinerMode::UnderGlobalLock) {
      // A never-announced class just cycled the global lock; announced
      // waiters parked on their arrays' epochs must re-try it (§12).
      wake_all_epoch_waiters();
    }
    telemetry::phase_exit(static_cast<int>(Phase::UnderLock), true);
    complete(op, Phase::UnderLock);
  }

  void wake_all_epoch_waiters() noexcept {
    for (auto& a : arrays_) a->wake_epoch_waiters();
  }

  // Liveness (§12): the global lock serves every class's array, and a
  // waiter of *any* array may have parked just after a session's last
  // publish on it, watching an epoch nobody will bump again. Each release
  // of the global lock is their signal that it is worth re-trying.
  struct EpochWakeOnExit {
    PhaseMachine& machine;
    ~EpochWakeOnExit() { machine.wake_all_epoch_waiters(); }
  };

  void complete(Op& op, Phase phase) {
    op.mark_done(phase);
    stats_.record_completion(op.class_id(), phase);
  }

  DS& ds_;
  std::vector<ClassConfig> classes_;  // fixed at construction
  std::vector<std::unique_ptr<PubArray>> arrays_;
  Lock lock_;
  EngineStats stats_;
  int scan_rounds_;
};

}  // namespace hcf::core
