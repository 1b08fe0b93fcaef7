// Publication array (paper §2.2, footnote 1): one slot per thread where
// owners announce operation descriptors, plus the array's *selection lock*,
// which serializes combiners' selection scans.
//
// Concurrency protocol (all verified against DESIGN.md's race analysis):
//   * add    — owner publishes its descriptor in its own slot (plain release
//     store), then sets the slot's occupancy bit (release, so a scanner that
//     sees the bit sees the slot).
//   * remove_tx — owner clears its slot *inside* the transaction that
//     applied the op, so the removal commits atomically with the effect.
//     The occupancy bit is intentionally left STALE (a transactional
//     write cannot carry a non-transactional bit clear); scans re-verify
//     every hinted slot, so a stale bit costs one extra load, never a
//     wrong selection. See DESIGN.md §9.1 for the staleness argument.
//   * clear_slot — a combiner, holding the selection lock, removes a slot
//     it has selected (plain release store) and clears its occupancy bit.
//   * for_each_announced — combiner scan; requires the selection lock.
//     Scans need no consistent snapshot: slots can be added concurrently
//     but never removed while the selection lock is held. The scan walks
//     the occupancy summary words and visits only hinted slots, so its
//     cost is proportional to announced work, not configured capacity.
//
// add and clear_slot doom nobody: no live transaction holds a slot in its
// read set (DESIGN.md §7.4). The only transactional read of a slot is the
// owner's assert in remove_tx, and that transaction first subscribed to
// the selection lock, which a selecting combiner strong-stores before
// clear_slot.
//
// The occupancy words and the combined-count epoch are raw atomics rather
// than TxCells: they are combiner-/waiter-side hints, never read inside a
// transaction, and never part of any correctness argument — re-verification
// (occupancy) and status re-checks (epoch) absorb all staleness.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/operation.hpp"
#include "sim_htm/txcell.hpp"
#include "sync/tx_lock.hpp"
#include "util/cacheline.hpp"
#include "util/parking.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_id.hpp"

namespace hcf::core {

template <typename DS, sync::ElidableLock SelectionLock = sync::TxLock>
class PublicationArray {
 public:
  using Op = Operation<DS>;

  // One occupancy summary word per 64 slots.
  static constexpr std::size_t kOccupancyWords =
      (util::kMaxThreads + 63) / 64;

  PublicationArray() = default;
  PublicationArray(const PublicationArray&) = delete;
  PublicationArray& operator=(const PublicationArray&) = delete;

  // Owner-side announce into the calling thread's slot. The slot store
  // precedes the occupancy fetch_or (release): a scanner observing the bit
  // is guaranteed to observe the descriptor. The converse window (slot
  // visible, bit not yet) only delays selection by one scan — the owner's
  // own phases never depend on being scanned.
  void add(Op* op) noexcept {
    const std::size_t slot = util::this_thread_id();
    // plain: only the owner ever reads its slot transactionally, and the
    // owner is not in a transaction while it announces.
    slots_[slot].value.store_plain(op);
    occupancy_[slot >> 6].value.fetch_or(slot_bit(slot),
                                         std::memory_order_release);
  }

  // Owner-side transactional removal (buffered; commits with the op).
  // Leaves the occupancy bit stale on purpose — see the header comment.
  void remove_tx(Op* op) {
    auto& cell = slot_for_current();
    assert(cell.read() == op && "removing an operation we did not announce");
    (void)op;
    cell.tx_write(nullptr);
  }

  // Owner-side non-transactional removal (single-combiner variant, where
  // the owner removes its slot after being helped).
  void remove_strong() noexcept {
    const std::size_t slot = util::this_thread_id();
    slots_[slot].value.store(nullptr);
    clear_bit(slot);
  }

  // Combiner-side removal of any slot; caller must hold the selection lock.
  void clear_slot(std::size_t slot) noexcept REQUIRES(selection_lock_) {
    // plain: the slot's owner is the only transactional reader, and its
    // visible attempt is already doomed — by our selection-lock acquire,
    // which it subscribes to, and (Multi mode) by the strong
    // mark_being_helped on its op that precedes this store. A remove_tx
    // write-back that validated before our acquire was drained by it.
    slots_[slot].value.store_plain(nullptr);
    clear_bit(slot);
  }

  // Re-states the selection capability where scans are serialized by means
  // TSA cannot see: flat-combining engines scan under the data-structure
  // lock (which plays the selection lock's role, DESIGN.md §10), and the
  // internal scan lambda below cannot inherit its enclosing function's
  // capability set. Callers take on the proof obligation the annotation
  // normally discharges — every call site must say why the scan is
  // serialized.
  void assume_scan_serialized() const ASSERT_CAPABILITY(selection_lock_) {}

  // Combiner-side scan; caller must hold the selection lock. Calls
  // f(op, slot_index) for every non-empty hinted slot; empty hinted slots
  // (stale bits from remove_tx) are skipped after re-verification.
  // Returns the number of occupancy words skipped because no slot in them
  // was hinted (the scan-cost signal behind EngineStats::scan_words_skipped).
  template <typename F>
  std::size_t for_each_announced(F&& f) REQUIRES(selection_lock_) {
    std::size_t words_skipped = 0;
    for (std::size_t w = 0; w < kOccupancyWords; ++w) {
      std::uint64_t word =
          occupancy_[w].value.load(std::memory_order_acquire);
      if (word == 0) {
        ++words_skipped;
        continue;
      }
      while (word != 0) {
        const std::size_t slot =
            (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
        word &= word - 1;
        if (Op* op = slots_[slot].value.load()) f(op, slot);
      }
    }
    return words_skipped;
  }

  // Shared combiner selection loop (the one scan helper all four combining
  // engines build on): offers every announced descriptor to `select`; when
  // it returns true the slot is cleared and the op appended to `out`.
  // `select` runs *before* the slot clear, so it may perform the status
  // transition (mark_being_helped) that dooms the owner's speculation.
  // Caller must hold the selection lock (or, for FC-style engines, the
  // data-structure lock that plays its role) and must have pre-reserved
  // `out` — selection must not allocate.
  // Returns the number of occupancy words the scan skipped.
  template <typename Select>
  std::size_t collect_announced(std::vector<Op*>& out, Select&& select)
      REQUIRES(selection_lock_) {
    // scan-locked: precondition annotated above; enforced at call sites.
    return for_each_announced([&](Op* op, std::size_t slot) {
      // TSA analyzes lambdas as separate functions with an empty capability
      // set; re-state the enclosing REQUIRES for the clear_slot call.
      assume_scan_serialized();
      if (select(op)) {
        clear_slot(slot);
        out.push_back(op);
      }
    });
  }

  // Non-owning peek (tests / stats).
  Op* peek(std::size_t slot) const noexcept {
    return slots_[slot].value.load();
  }

  // Raw occupancy summary word (tests / benches).
  std::uint64_t occupancy_word(std::size_t w) const noexcept {
    return occupancy_[w].value.load(std::memory_order_acquire);
  }

  // ---- combined-count epoch (waiter protocol, DESIGN.md §9.3 + §12) ----
  // A combiner publishes how many operations it just retired; threads
  // competing for the selection lock watch the epoch and re-check their own
  // op's status when it moves, waking in O(1) after being helped instead of
  // re-polling the contended lock line. The epoch is a 32-bit parkable
  // eventcount: under WaitPolicy::SpinPark competition losers sleep on it
  // (park_on_epoch) and publish_combined wakes the cohort. Engines must
  // also call wake_epoch_waiters() whenever they release a lock that ends
  // a combining session — a waiter may have parked just after the
  // session's final publish, watching a value that would otherwise never
  // move again. That wake moves the epoch whenever someone is parking, and
  // a parking waiter re-checks the lock it waits for after registering,
  // so the release cannot slip between a waiter's check and its sleep.

  std::uint32_t combined_epoch() const noexcept {
    return combined_epoch_.value.load();
  }

  void publish_combined(std::size_t retired) noexcept {
    combined_epoch_.value.advance(static_cast<std::uint32_t>(retired));
  }

  // Sleep until the epoch moves past `seen` (or spuriously; callers
  // re-check their predicate in a loop). `lock` is the lock the caller
  // failed to take; the sleep is skipped if it is already free again.
  template <sync::ElidableLock L>
  void park_on_epoch(std::uint32_t seen, const L& lock) noexcept {
    combined_epoch_.value.park_if(seen, [&] { return lock.is_locked(); });
  }

  void wake_epoch_waiters() noexcept { combined_epoch_.value.wake_waiters(); }

  SelectionLock& selection_lock() noexcept RETURN_CAPABILITY(selection_lock_) {
    return selection_lock_;
  }
  const SelectionLock& selection_lock() const noexcept
      RETURN_CAPABILITY(selection_lock_) {
    return selection_lock_;
  }

 private:
  htm::TxCell<Op*>& slot_for_current() noexcept {
    return slots_[util::this_thread_id()].value;
  }

  static constexpr std::uint64_t slot_bit(std::size_t slot) noexcept {
    return std::uint64_t{1} << (slot & 63);
  }

  // Relaxed is enough for clears: a scanner that misses the bit skips a
  // slot whose op already completed (or was just selected by us, the
  // lock holder) — both are benign under re-verification.
  void clear_bit(std::size_t slot) noexcept {
    occupancy_[slot >> 6].value.fetch_and(~slot_bit(slot),
                                          std::memory_order_relaxed);
  }

  util::CacheAligned<htm::TxCell<Op*>> slots_[util::kMaxThreads];
  // Occupancy hint words; see header comment for why these are raw atomics.
  util::CacheAligned<std::atomic<std::uint64_t>>  // lint:allow(raw-atomic-in-core)
      occupancy_[kOccupancyWords];
  util::CacheAligned<util::ParkableEpoch> combined_epoch_;
  SelectionLock selection_lock_;
};

}  // namespace hcf::core
