// Operation descriptors (paper §2.2).
//
// An operation bundles the arguments and result slot of one data-structure
// call together with the three sequential methods the framework invokes:
//
//   * run_seq     — applies the operation; the only method a user *must*
//                   provide (typically a one-line wrapper over the
//                   sequential data structure). Runs inside a hardware
//                   transaction or under the data-structure lock.
//   * should_help — combiner-side selection predicate: given the combiner's
//                   own operation (*this), decide whether `candidate` should
//                   be selected from the publication array. Defaults to
//                   "help everyone" (the framework's select-all policy);
//                   a "help nobody" subclass hook is `HelpNobody`.
//   * run_multi   — applies a subset of the selected operations, combining
//                   and/or eliminating them using data-structure semantics.
//                   The default simply runs each selected op's run_seq.
//
// Framework state (status, completion phase) lives in the base class; the
// synchronization protocol around it is owned by the engines, never by
// user code.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <span>

#include "core/types.hpp"
#include "sim_htm/txcell.hpp"
#include "util/cacheline.hpp"
#include "util/parking.hpp"
#include "util/thread_id.hpp"

namespace hcf::core {

template <typename DS>
class Operation {
 public:
  explicit Operation(int class_id = 0) noexcept : class_id_(class_id) {}
  virtual ~Operation() = default;

  Operation(const Operation&) = delete;
  Operation& operator=(const Operation&) = delete;

  // ---- user-provided sequential methods ----

  virtual void run_seq(DS& ds) = 0;

  virtual bool should_help(const Operation& candidate) const {
    (void)candidate;
    return true;
  }

  // Applies some non-empty subset of `ops`. Contract: the implementation
  // may permute `ops`, must execute exactly a *prefix* of the (permuted)
  // span, and returns that prefix's length (>= 1). Runs inside a hardware
  // transaction or under the data-structure lock.
  virtual std::size_t run_multi(DS& ds, std::span<Operation*> ops) {
    for (auto* op : ops) op->run_seq(ds);
    return ops.size();
  }

  // Combiner-side batch grouping hint. When combine_keyed() is true, the
  // engines sort a selected batch by ascending combine_key() *before*
  // handing it to run_multi (group_batch below), so combinable and
  // eliminable operations arrive adjacent and the adapter's internal
  // sort/partition runs on already-ordered input — outside the hardware
  // transaction instead of inside it. Purely a performance hint: run_multi
  // must stay correct on ungrouped input (its contract already allows any
  // permutation), and a stale or mismatched key mis-groups but never
  // mis-executes.
  virtual bool combine_keyed() const { return false; }
  virtual std::uint64_t combine_key() const { return 0; }

  // Sharding hook (core/sharded_engine.hpp): a well-mixed 64-bit hash of
  // the operation's target; the sharded meta-engine selects a shard from
  // its high bits. Any two operations that may touch the same state must
  // return the same key — whole-structure operations have no such key and
  // go through the meta-engine's cross-shard path instead. The default
  // routes every operation to shard 0, which is always correct (a single
  // shard sees a total order) just never scalable.
  virtual std::uint64_t shard_key() const noexcept { return 0; }

  // ---- framework state ----

  int class_id() const noexcept { return class_id_; }

  // Resets the descriptor for a fresh execution. Called by the owner once
  // its previous execution is Done; a combiner that completed it made its
  // last access to the descriptor in mark_done.
  void prepare() noexcept {
    // plain: only the owner speculates on its op's status, and it is not
    // in a transaction between executions.
    status_.store_plain(static_cast<std::uint32_t>(OpStatus::UnAnnounced));
    completed_phase_ = Phase::Private;
    owner_slot_ = util::this_thread_id();
  }

  // Reclamation ownership tag (mem/pool.hpp): the pool slot of the thread
  // that announced this operation. A combiner running this op's retires
  // frees nodes whose block headers name their allocation-time owners —
  // often this slot — and the mem:: facade routes each such free to the
  // owner's remote inbox rather than the applier's limbo. The tag marks the
  // op as carrying foreign-pool traffic, so session code batch-flushes
  // outbound bins once per session (mem::flush_remote_frees) instead of
  // per node.
  std::size_t owner_slot() const noexcept { return owner_slot_; }

  OpStatus status() const noexcept {
    return static_cast<OpStatus>(status_.load() & kStatusMask);
  }

  // Transactional status read (owner-side check inside TryVisible).
  OpStatus status_tx() const {
    return static_cast<OpStatus>(status_.read() & kStatusMask);
  }

  // Owner announces before publishing.
  void mark_announced() noexcept {
    // plain: only the owner speculates on its op's status, and this store
    // is sequenced before the owner's first transaction that reads it.
    status_.store_plain(static_cast<std::uint32_t>(OpStatus::Announced));
  }

  // Combiner selection: dooms the owner's in-flight speculative attempt
  // (strong store bumps the status word's orec). Idempotent: a rescan that
  // offers an already-selected op skips the store — the owner was doomed by
  // the first transition, and a redundant strong store would bump the orec
  // again, aborting unrelated readers that subscribed to the word since.
  void mark_being_helped() noexcept {
    if ((status_.load() & kStatusMask) ==
        static_cast<std::uint32_t>(OpStatus::BeingHelped)) {
      return;
    }
    status_.store(static_cast<std::uint32_t>(OpStatus::BeingHelped));
  }

  // A combiner's selection of its *own* op. Nothing to doom, so the
  // transition skips the orec and both clock bumps mark_being_helped pays.
  void mark_selected_by_owner() noexcept {
    // plain: only the owner speculates on its op's status, and the owner
    // is the combiner calling this, outside any transaction.
    status_.store_plain(static_cast<std::uint32_t>(OpStatus::BeingHelped));
  }

  // Completion: record where the op completed, then release the owner.
  // The displaced value tells us whether the owner parked on the status
  // word (wait_done below); only then does the wake syscall fire.
  void mark_done(Phase phase) noexcept {
    completed_phase_ = phase;
    // plain: the owner cannot be speculating on the op any more. It was
    // doomed at selection (mark_being_helped, or the selection-lock
    // acquire it subscribes to before reading its status), or it is us.
    const std::uint32_t old =
        status_.exchange_plain(static_cast<std::uint32_t>(OpStatus::Done));
    if ((old & kParkedBit) != 0) util::wake_all(status_.wait_address());
  }

  // Owner-side wait for a combiner to finish the operation. The owner
  // spins locally on its own descriptor's status line with bounded
  // exponential pause (the line is written exactly once more — at
  // mark_done — so growing pauses trade wake-up latency for near-zero
  // coherence traffic), then yields; under WaitPolicy::SpinPark it
  // finally publishes the parked bit (CAS, so a racing mark_done wins)
  // and sleeps on its own status word until the combiner's wake.
  void wait_done(
      util::WaitPolicy wait = util::WaitPolicy::SpinYield) const noexcept {
    util::TieredWait waiter(util::WaitSite::kOpStatus, wait);
    for (;;) {
      const std::uint32_t raw = status_.load();
      if ((raw & kStatusMask) == static_cast<std::uint32_t>(OpStatus::Done)) {
        return;
      }
      if (!waiter.wait()) continue;
      std::uint32_t expected = raw;
      if ((expected & kParkedBit) == 0) {
        // Publish intent to sleep. A failed CAS means the status moved
        // (almost certainly to Done) — loop and re-check before parking.
        if (!status_.cas(expected, expected | kParkedBit)) continue;
        expected |= kParkedBit;
      }
      util::park(status_.wait_address(), expected);
      waiter.reset();
    }
  }

  // ---- visible-attempt gate (DESIGN.md §7.4) ----
  // The owner's visible attempt runs run_seq, whose writes to this
  // descriptor's own fields (results) are plain stores, not buffered
  // transactional writes. Real HTM would discard them with the doomed
  // attempt; the simulator cannot. A combiner therefore never selects an
  // op while its owner is inside a visible attempt: the owner raises the
  // gate before the attempt and lowers it after, and selection skips raised
  // gates. Lowering releases every write of the attempt to the combiner
  // that later observes the gate down.
  void enter_visible_attempt() noexcept {
    visible_attempt_.store(true, std::memory_order_relaxed);
    // seq_cst: Dekker/store-buffering pair with the fence a combiner's
    // selection-lock acquire issues (htm::wait_writeback_drain) before it
    // scans. Either the combiner sees the gate raised and skips the op, or
    // this attempt's subscription sees the selection lock held (or, once
    // released, the op no longer Announced) and aborts before run_seq.
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }
  void leave_visible_attempt() noexcept {
    visible_attempt_.store(false, std::memory_order_release);
  }
  bool in_visible_attempt() const noexcept {
    return visible_attempt_.load(std::memory_order_acquire);
  }

  // Valid once status() == Done (or after the owner completed it itself).
  Phase completed_phase() const noexcept { return completed_phase_; }

 private:
  // The status word's MSB marks "the owner is parked on this word"; the
  // low bits hold the OpStatus. The bit can only be set while the status
  // is BeingHelped (wait_done is only reached after a combiner selected the
  // op, never parks on Done, and its CAS fails against any concurrent
  // transition). mark_done observes it through its exchange and wakes.
  // status()/status_tx() mask it out.
  static constexpr std::uint32_t kParkedBit = 0x8000'0000u;
  static constexpr std::uint32_t kStatusMask = ~kParkedBit;

  int class_id_;
  mutable htm::TxCell<std::uint32_t> status_{
      static_cast<std::uint32_t>(OpStatus::UnAnnounced)};
  Phase completed_phase_ = Phase::Private;
  std::size_t owner_slot_ = 0;
  // Visible-attempt gate: written by the owner, read by selecting
  // combiners. Raw atomic — never accessed transactionally.
  std::atomic<bool> visible_attempt_{false};  // lint:allow(raw-atomic-in-core)
};

// Sorts a selected batch by combine_key so run_multi receives ready-made
// groups: equal-key (avl) or matching-kind (stack push/pop, pq
// insert/remove-min) operations become adjacent, which is exactly the
// layout the adapters' internal sort/partition would otherwise produce
// inside the transaction. Engines call this after selection, outside both
// the selection lock (where possible) and the hardware transaction.
// Returns the number of distinct key groups (combining telemetry).
template <typename DS>
inline std::size_t group_batch(std::span<Operation<DS>*> ops) {
  std::sort(ops.begin(), ops.end(),
            [](const Operation<DS>* a, const Operation<DS>* b) {
              return a->combine_key() < b->combine_key();
            });
  std::size_t groups = 0;
  std::uint64_t prev_key = 0;
  for (const Operation<DS>* op : ops) {
    const std::uint64_t key = op->combine_key();
    if (groups == 0 || key != prev_key) {
      ++groups;
      prev_key = key;
    }
  }
  return groups;
}

// Prefetches the descriptors of a selected batch before application: the
// combiner is about to read every op's arguments and write every op's
// result slot, and selection just chased kMaxThreads-spread pointers whose
// targets are unlikely to sit in the combiner's cache.
template <typename DS>
inline void prefetch_batch(std::span<Operation<DS>* const> ops) noexcept {
  for (const Operation<DS>* op : ops) util::prefetch_ro(op);
}

// Mixin: a should_help that never helps (the framework's "apply only the
// combiner's own operation" default variant).
template <typename DS, typename Base = Operation<DS>>
class HelpNobody : public Base {
 public:
  using Base::Base;
  bool should_help(const Operation<DS>&) const override { return false; }
};

}  // namespace hcf::core
