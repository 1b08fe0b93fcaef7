// Sharded HCF — a partitioned meta-engine (DESIGN.md §11).
//
// Every engine in this tree funnels all operations through one
// data-structure lock and one selection lock per operation class. That is
// faithful to the paper, but it caps scalability at whatever one combiner
// (or one lock) can retire. ShardedEngine<Inner> partitions the structure
// into N independent instances of *any* core-based engine — each shard owns
// its own elidable lock, publication arrays, combiners, and per-class
// stats — so shard-local operations on different shards never contend: the
// combiners of shard 0 and shard 3 run concurrently, their transactions
// touch disjoint orecs, and their waiters spin on disjoint cache lines
// ("Sharded Elimination and Combining" / "Parallel Combining", PAPERS.md).
//
// Routing. Each Operation carries a shard_key() (core/operation.hpp): a
// well-mixed 64-bit hash of the operation's target. The router takes the
// *high* bits of that key, so with the hash table's Fibonacci-hash key
// (adapters/ht_ops.hpp uses the same util::mix64 the table's bucket_index
// uses) every shard owns a contiguous range of the hashed-bucket space —
// bucket-range partitioning of one global hash space. Two operations that
// can touch the same state must produce the same shard_key; the shard then
// provides exactly the single-lock serialization the paper's protocol
// assumes, and per-shard linearizability composes to whole-structure
// linearizability because the shards share no state.
//
// Cross-shard operations. Whole-structure queries (size(), snapshots,
// clears) cannot be expressed as a single-shard key. They go through
// with_all_locked(): acquire every shard's data lock in ascending shard
// index — the total order that makes concurrent cross-shard sweeps
// deadlock-free, enforced by the linter's cross-shard-lock-order rule —
// run the functor, release. Holding a shard's lock gives the usual TLE
// guarantee (in-flight subscribed transactions abort, write-backs drain),
// so once the last lock is acquired the sweep observes an atomic snapshot
// of the whole structure; that instant is the operation's linearization
// point.
//
// Invariants:
//   * shard_of(op.shard_key()) is the only shard whose state op touches.
//   * All-shard lock acquisition iterates shard indices ascending, and
//     every acquired lock is released on every exit, a throw included.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/engine_stats.hpp"
#include "core/operation.hpp"
#include "core/phase_exec.hpp"
#include "mem/ebr.hpp"
#include "telemetry/telemetry.hpp"
#include "util/thread_annotations.hpp"

namespace hcf::core {

template <typename InnerEngine>
class ShardedEngine {
 public:
  using Inner = InnerEngine;
  using DS = std::remove_reference_t<decltype(std::declval<Inner&>().data())>;
  using Op = Operation<DS>;

  // `shards` are caller-owned sub-structures, one per shard (the same
  // non-owning contract every engine has with its DS&). The shard count
  // must be a power of two so the router is a shift of the key's high bits.
  ShardedEngine(std::span<DS* const> shards, std::vector<ClassConfig> classes,
                std::size_t num_arrays = 1) {
    assert(!shards.empty() && std::has_single_bit(shards.size()));
    shards_.reserve(shards.size());
    for (DS* ds : shards) {
      assert(ds != nullptr);
      shards_.push_back(std::make_unique<Inner>(*ds, classes, num_arrays));
    }
  }

  static std::string_view name() noexcept { return "Sharded"; }

  // ---- routing --------------------------------------------------------

  // Maps a well-mixed 64-bit shard key to [0, num_shards). Static so
  // callers (bench prefill, tests) can route keys identically without an
  // engine instance. num_shards must be a power of two.
  static std::size_t route(std::uint64_t shard_key,
                           std::size_t num_shards) noexcept {
    const auto bits = static_cast<unsigned>(std::countr_zero(num_shards));
    return bits == 0 ? 0 : static_cast<std::size_t>(shard_key >> (64 - bits));
  }

  std::size_t shard_of(std::uint64_t shard_key) const noexcept {
    return route(shard_key, num_shards());
  }

  // ---- the sharded fast path ------------------------------------------

  Phase execute(Op& op) {
    const std::size_t s = shard_of(op.shard_key());
    telemetry::shard_route(s);
    // Tag every event the inner engine records with the shard it ran on.
    telemetry::ShardScope scope(s);
    return shards_[s]->execute(op);
  }

  // ---- cross-shard path -----------------------------------------------

  // Runs `f()` with every shard's data lock held: an atomic whole-structure
  // snapshot (see header comment for the linearization argument). `f` must
  // not execute operations through this engine (self-deadlock) and should
  // read shard state via data(i)/shard(i). If `f` throws, the locks are
  // released before the exception leaves: a leaked shard lock would hang
  // every later execute() on that shard.
  template <typename F>
  auto with_all_locked(F&& f) -> decltype(f()) {
    // Retired nodes a pre-lock reader may still publish must outlive the
    // sweep; the guard pins the reclamation epoch exactly like execute().
    mem::Guard ebr;
    telemetry::cross_shard_begin(num_shards());
    lock_all_ascending();
    const UnlockAllOnExit unlock{*this};
    return f();
  }

  // Linearizable whole-structure size for structures exposing a sequential
  // size_slow() (e.g. ds::HashTable).
  std::size_t size()
    requires requires(DS& d) {
      { d.size_slow() } -> std::convertible_to<std::size_t>;
    }
  {
    return with_all_locked([&] {
      std::size_t sum = 0;
      for (auto& shard : shards_) sum += shard->data().size_slow();
      return sum;
    });
  }

  // ---- aggregate statistics (driver surface) --------------------------

  // One merged snapshot over all shards. Unlike stats() on the flat
  // engines this is a value, not a live reference — harness::run_timed
  // prefers this hook when present (detail::capture_stats).
  EngineStatsSnapshot stats_snapshot() const noexcept {
    EngineStatsSnapshot total{};
    for (const auto& shard : shards_) {
      total += EngineStatsSnapshot::capture(shard->stats());
    }
    return total;
  }

  std::uint64_t lock_acquisitions() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& shard : shards_) sum += shard->lock_acquisitions();
    return sum;
  }

  void reset_stats() noexcept {
    for (auto& shard : shards_) shard->reset_stats();
  }

  // ---- introspection --------------------------------------------------

  std::size_t num_shards() const noexcept { return shards_.size(); }
  Inner& shard(std::size_t i) noexcept { return *shards_[i]; }
  const Inner& shard(std::size_t i) const noexcept { return *shards_[i]; }
  DS& data(std::size_t i) noexcept { return shards_[i]->data(); }

 private:
  // tsa: a loop over N runtime shard locks acquires/releases a capability
  // set TSA cannot name; the ascending-order discipline is enforced by the
  // linter's cross-shard-lock-order rule instead.
  void lock_all_ascending() NO_THREAD_SAFETY_ANALYSIS {
    // Ascending shard index: the global lock order that keeps concurrent
    // cross-shard sweeps deadlock-free (linter: cross-shard-lock-order).
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      shards_[i]->lock().lock();
    }
  }

  // tsa: releases the loop-acquired capability set of lock_all_ascending.
  void unlock_all() NO_THREAD_SAFETY_ANALYSIS {
    // Release order is unconstrained; descending mirrors acquisition.
    for (std::size_t i = shards_.size(); i-- > 0;) {
      shards_[i]->lock().unlock();
    }
  }

  struct UnlockAllOnExit {
    ShardedEngine& engine;
    ~UnlockAllOnExit() {
      engine.unlock_all();
      telemetry::cross_shard_end(engine.num_shards());
    }
  };

  std::vector<std::unique_ptr<Inner>> shards_;
};

}  // namespace hcf::core
