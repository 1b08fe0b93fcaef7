// Combining core (paper §2.2): the reusable combiner machinery every
// engine instantiates instead of hand-rolling. One implementation of
//
//   * the selection-lock competition loop with the combined-count epoch
//     waiter protocol (DESIGN.md §9.3),
//   * chooseOpsToHelp — the selection scan under the selection lock, with
//     the optional BeingHelped transition that dooms owners' speculation,
//   * batch shaping (combine-key grouping + descriptor prefetch),
//   * the speculative combining loop (run_multi on HTM, prefix retirement),
//   * the combine-under-lock fallback, and
//   * flat-combining-style combining entirely under the global lock.
//
// Engines choose which pieces to compose through EnginePolicy
// (core/phase_exec.hpp); the protocol around operation status and
// publication slots lives here exactly once, so a fix or a telemetry
// counter lands in every engine at the same time.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "core/engine_stats.hpp"
#include "core/operation.hpp"
#include "core/publication_array.hpp"
#include "core/types.hpp"
#include "mem/pool.hpp"
#include "sim_htm/htm.hpp"
#include "sync/tx_lock.hpp"
#include "telemetry/telemetry.hpp"
#include "util/backoff.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_id.hpp"

namespace hcf::core {

template <typename DS, sync::ElidableLock Lock = sync::TxLock,
          sync::ElidableLock SelectionLock = sync::TxLock>
struct CombineCore {
  using Op = Operation<DS>;
  using PubArray = PublicationArray<DS, SelectionLock>;

  // Per-thread selection arena, reserved to full capacity once: selection
  // must never regrow a vector while the selection lock is held (the
  // allocation was a hidden serialization point in the seed).
  static std::vector<Op*>& scratch() {
    thread_local std::vector<Op*> ops = [] {
      std::vector<Op*> v;
      v.reserve(util::kMaxThreads);
      return v;
    }();
    return ops;
  }

  // Compete for the array's selection lock *while watching our own
  // status*: if a combiner selects us in the meantime we never need the
  // lock — we just wait for Done. Blocking unconditionally on the lock
  // would make every helped owner serialize through it only to discover it
  // was already helped, which caps the combining degree near 1.
  //
  // Waiter protocol (DESIGN.md §9.3): spin with bounded exponential pause,
  // and watch the array's combined-count epoch — when a combining round
  // retires a batch the epoch moves, and a waiter whose op was in that
  // batch wakes on its next status check instead of re-polling the
  // contended lock line.
  //
  // Parking tier (§12): under WaitPolicy::SpinPark a competition loser
  // sleeps on the epoch word itself. Every wake source it needs is
  // covered: publish_combined advances the epoch (status may have become
  // Done), and every selection-lock release path in the phase machine
  // calls pa.wake_epoch_waiters() (the lock may now be free to take).
  //
  // Returns true with the selection lock held, or false once the op is
  // Done (helped by another combiner): once the op has been selected it
  // waits for Done on the op's own status word.
  static bool acquire_selection_or_done(Op& op, PubArray& pa,
                                        util::WaitPolicy wait)
      TRY_ACQUIRE(true, pa.selection_lock()) {
    util::TieredWait waiter(util::WaitSite::kSelectionLock, wait);
    std::uint32_t epoch = pa.combined_epoch();
    for (;;) {
      if (op.status() != OpStatus::Announced) {
        op.wait_done(wait);
        return false;
      }
      const std::uint32_t now = pa.combined_epoch();
      if (now != epoch) {
        epoch = now;
        waiter.reset();
        continue;  // a batch just retired; re-check our status first
      }
      if (pa.selection_lock().try_lock()) return true;
      if (waiter.wait()) {
        pa.park_on_epoch(now, pa.selection_lock());
        waiter.reset();
      }
    }
  }

  // chooseOpsToHelp (paper §2.2): scan the publication array under the
  // selection lock; the caller's op is chosen unconditionally, every other
  // announced op is offered to should_help. Chosen ops are unpublished;
  // when MarkBeingHelped they also transition to BeingHelped, dooming
  // their owners' speculation (the single-holder variant skips the
  // transition — holding the selection lock for the whole combining phase
  // is what dooms the owners there). Our own op takes the transition
  // without the doom: nobody else speculates on it. The gather target is
  // the caller's preallocated per-thread arena, so nothing allocates while
  // the selection lock is held.
  template <bool MarkBeingHelped>
  static void select_batch(Op& op, PubArray& pa, std::vector<Op*>& out,
                           EngineStats& stats) REQUIRES(pa.selection_lock()) {
    if constexpr (MarkBeingHelped) op.mark_selected_by_owner();
    pa.clear_slot(util::this_thread_id());
    out.push_back(&op);
    const std::size_t words_skipped =
        // scan-locked: the caller holds pa.selection_lock() (acquired via
        // acquire_selection_or_done).
        pa.collect_announced(out, [&](Op* candidate) {
          if (candidate == &op) return false;
          if (candidate->status() != OpStatus::Announced) return false;
          // Its owner is mid-attempt and may still write the descriptor;
          // a later scan (or the owner itself) will take it.
          if (candidate->in_visible_attempt()) return false;
          if (!op.should_help(*candidate)) return false;
          if constexpr (MarkBeingHelped) candidate->mark_being_helped();
          return true;
        });
    stats.scan_words_skipped.add(words_skipped);
  }

  // Batch shaping: group by the adapter's combine key (so run_multi sees
  // eliminable pairs adjacent) and pull the descriptors toward this core.
  static void group_and_prefetch(Op& op, std::vector<Op*>& batch,
                                 EngineStats& stats) {
    if (batch.size() > 1 && op.combine_keyed()) {
      const std::size_t groups = group_batch(std::span<Op*>(batch));
      stats.batch_groups.add(groups);
      stats.batch_group_sizes.add(batch.size());
    }
    prefetch_batch(std::span<Op* const>(batch));
  }

  // Speculative combining: apply the selected batch in one or more
  // hardware transactions through run_multi, retiring each committed
  // prefix. Stops after `budget` failed attempts (capacity aborts stop
  // immediately — they repeat deterministically). Returns true iff nothing
  // is left for the under-lock fallback.
  static bool combine_on_htm(Lock& lock, DS& ds, Op& op, PubArray& pa,
                             std::vector<Op*>& ops, int budget,
                             EngineStats& stats,
                             util::WaitPolicy wait = util::WaitPolicy::SpinYield) {
    util::ExpBackoff backoff(
        util::backoff_seed(util::BackoffSite::kPhaseCombining));
    int failures = 0;
    while (failures < budget && !ops.empty()) {
      lock.wait_until_free(wait);
      std::size_t executed = 0;
      const bool committed = htm::attempt([&] {
        lock.subscribe();
        executed = op.run_multi(ds, std::span<Op*>(ops));
      });
      if (committed) {
        assert(executed >= 1 && executed <= ops.size());
        stats.combine_rounds.add();
        retire_prefix(op, pa, ops, executed, Phase::Combining, stats);
      } else {
        ++failures;
        stats.record_attempt_failure(op.class_id());
        if (htm::last_abort_code() == htm::AbortCode::Capacity) break;
        if (htm::last_abort_code() == htm::AbortCode::Conflict) backoff.pause();
      }
    }
    return ops.empty();
  }

  // CombineUnderLock (paper phase 4): acquire the data-structure lock and
  // finish the remaining selected operations non-speculatively.
  static void combine_under_lock(Lock& lock, DS& ds, Op& op, PubArray& pa,
                                 std::vector<Op*>& ops, EngineStats& stats,
                                 util::WaitPolicy wait = util::WaitPolicy::SpinYield) {
    assert(!ops.empty());
    sync::LockGuard<Lock> guard(lock, wait);
    while (!ops.empty()) {
      const std::size_t executed = op.run_multi(ds, std::span<Op*>(ops));
      assert(executed >= 1 && executed <= ops.size());
      stats.combine_rounds.add();
      retire_prefix(op, pa, ops, executed, Phase::UnderLock, stats);
    }
  }

  // Flat-combining-style session: the caller already holds the
  // data-structure lock (which plays the selection lock's role here) and
  // combines every announced operation under it, rescanning `scan_rounds`
  // times to pick up late arrivals.
  static void combine_global(Lock& lock, DS& ds, Op& own, PubArray& pa,
                             EngineStats& stats, int scan_rounds)
      REQUIRES(lock) {
    assert(lock.is_locked() &&
           "combine_global runs under the data-structure lock");
    (void)lock;  // referenced by the REQUIRES attribute and the assert only
    // The data-structure lock held per REQUIRES serializes us against every
    // would-be scanner (nothing scans a global-lock engine's array without
    // this lock), so the selection capability is legitimately ours even
    // though pa.selection_lock() itself stays free.
    pa.assume_scan_serialized();
    stats.combiner_sessions.add();
    std::vector<Op*>& batch = scratch();
    for (int round = 0; round < scan_rounds; ++round) {
      batch.clear();
      // scan-locked: the caller holds the data-structure lock, which is
      // the selection lock for global-lock combining — no other combiner
      // can scan concurrently.
      const std::size_t words_skipped = pa.collect_announced(
          batch, [](Op* op) { return op->status() == OpStatus::Announced; });
      stats.scan_words_skipped.add(words_skipped);
      if (batch.empty()) {
        if (own.status() == OpStatus::Done) return;
        continue;
      }
      group_and_prefetch(own, batch, stats);
      stats.ops_selected.add(batch.size());
      telemetry::combine_begin(batch.size());
      std::span<Op*> pending(batch);
      while (!pending.empty()) {
        stats.combine_rounds.add();
        const std::size_t k = own.run_multi(ds, pending);
        assert(k >= 1 && k <= pending.size());
        for (std::size_t i = 0; i < k; ++i) {
          Op* done = pending[i];
          const int cls = done->class_id();
          done->mark_done(Phase::UnderLock);
          stats.record_completion(cls, Phase::UnderLock);
          if (done != &own) stats.helped_ops.add();
        }
        pending = pending.subspan(k);
        pa.publish_combined(k);
      }
      telemetry::combine_end(batch.size());
      // Nodes retired on helped owners' behalf this round sit batched in
      // our outbound bins; hand them to the owners' pools per session
      // round rather than holding them to bin capacity.
      mem::flush_remote_frees();
    }
    // Late safety net: if our own op is somehow still pending after the
    // last scan — impossible by construction (we announced before trying
    // the lock) — run it directly.
    if (own.status() != OpStatus::Done) {
      pa.remove_strong();
      own.run_seq(ds);
      own.mark_done(Phase::UnderLock);
      stats.record_completion(own.class_id(), Phase::UnderLock);
    }
  }

  // Retire the first k selected ops: mark Done, record completions, count
  // helped ops, and move the combined-count epoch so helped owners'
  // selection-lock competition wakes in O(1) — a waiter observing the
  // epoch re-checks its own status before touching the lock.
  static void retire_prefix(Op& own, PubArray& pa, std::vector<Op*>& ops,
                            std::size_t k, Phase phase, EngineStats& stats) {
    for (std::size_t i = 0; i < k; ++i) {
      Op* done = ops[i];
      const int cls = done->class_id();
      done->mark_done(phase);
      stats.record_completion(cls, phase);
      if (done != &own) stats.helped_ops.add();
    }
    ops.erase(ops.begin(), ops.begin() + static_cast<std::ptrdiff_t>(k));
    pa.publish_combined(k);
  }
};

}  // namespace hcf::core
