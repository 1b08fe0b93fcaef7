// Operation descriptors for the hash table (paper §3.3).
//
// Two operation classes, matching the paper's HCF configuration:
//
//   * kReadWriteClass (Find/Remove) — rarely conflict; configured TLE-like
//     (publication array 0, no announcing: failed speculation goes straight
//     under the lock).
//   * kInsertClass (Insert) — all inserts contend on the table-list head;
//     configured with all four phases (publication array 1) and combined
//     through HashTable::insert_n.
//
// The shared run_multi partitions a selected batch into inserts (combined
// into one insert_n call) and other operations (applied sequentially), so
// the same descriptor code serves HCF, FC and TLE+FC combiners.
#pragma once

#include <algorithm>
#include <cassert>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "core/hcf_engine.hpp"
#include "util/backoff.hpp"
#include "core/operation.hpp"
#include "ds/hash_table.hpp"
#include "util/rng.hpp"

namespace hcf::adapters {

inline constexpr int kHtReadWriteClass = 0;
inline constexpr int kHtInsertClass = 1;

// Max operations executed per run_multi call: bounds one transaction's
// write set (the paper: "adjust the number of operations executed by a
// single HW transaction").
inline constexpr std::size_t kHtMaxBatch = 16;

template <htm::detail::TxValue K, htm::detail::TxValue V>
class HtOpBase : public core::Operation<ds::HashTable<K, V>> {
 public:
  using Table = ds::HashTable<K, V>;
  using Op = core::Operation<Table>;

  enum class Kind : std::uint8_t { Find, Insert, Remove };

  HtOpBase(Kind kind, int class_id) : Op(class_id), kind_(kind) {}

  Kind kind() const noexcept { return kind_; }
  K key() const noexcept { return key_; }

  // Fibonacci-hash bucket-range sharding: the same SplitMix64 finalizer
  // the table itself hashes buckets with (HashTable::bucket_index), so
  // when the sharded meta-engine takes the high bits each shard owns a
  // contiguous range of the hashed-bucket space. Find/Insert/Remove on the
  // same key always agree, and per-key state lives on exactly one shard.
  std::uint64_t shard_key() const noexcept override {
    return util::mix64(static_cast<std::uint64_t>(key_));
  }

  // Synthetic critical-section work; see EXPERIMENTS.md. Hash-table
  // combining does not eliminate operations, so batches pay per-op work —
  // the batch still amortizes transactions and lock acquisitions.
  void set_work(std::uint32_t spins) noexcept { work_ = spins; }

  // Emulated mid-operation preemption (WorkloadSpec::cs_preempt): yield
  // after the operation body while the enclosing transaction or lock is
  // still open, so operations genuinely overlap in time even when threads
  // outnumber cores.
  void set_preempt(bool on) noexcept { preempt_ = on; }

 protected:
  void pay_work() const noexcept {
    util::spin_for(work_);
    if (preempt_) std::this_thread::yield();
  }

 public:

  // Combiner batching shared by all hash-table ops.
  std::size_t run_multi(Table& ds, std::span<Op*> ops) override {
    // Put inserts first so they can be chained into one insert_n call.
    auto* begin = ops.data();
    auto* end = begin + ops.size();
    auto* mid = std::partition(begin, end, [](Op* o) {
      return static_cast<HtOpBase*>(o)->kind() == Kind::Insert;
    });
    const std::size_t num_inserts = static_cast<std::size_t>(mid - begin);
    const std::size_t k = std::min(ops.size(), kHtMaxBatch);

    const std::size_t insert_count = std::min(num_inserts, k);
    if (insert_count > 0) {
      std::pair<K, V> kvs[kHtMaxBatch];
      bool results[kHtMaxBatch];
      for (std::size_t i = 0; i < insert_count; ++i) {
        auto* op = static_cast<HtOpBase*>(ops[i]);
        kvs[i] = {op->key_, op->value_};
      }
      ds.insert_n(std::span<const std::pair<K, V>>(kvs, insert_count),
                  std::span<bool>(results, insert_count));
      for (std::size_t i = 0; i < insert_count; ++i) {
        static_cast<HtOpBase*>(ops[i])->bool_result_ = results[i];
        static_cast<HtOpBase*>(ops[i])->pay_work();
      }
    }
    for (std::size_t i = insert_count; i < k; ++i) ops[i]->run_seq(ds);
    return k;
  }

 protected:
  Kind kind_;
  K key_{};
  V value_{};
  bool bool_result_ = false;
  std::uint32_t work_ = 0;
  bool preempt_ = false;
  std::optional<V> find_result_;
};

template <htm::detail::TxValue K, htm::detail::TxValue V>
class HtFindOp final : public HtOpBase<K, V> {
 public:
  using Base = HtOpBase<K, V>;
  HtFindOp() : Base(Base::Kind::Find, kHtReadWriteClass) {}

  void set(K key) noexcept { this->key_ = key; }

  void run_seq(typename Base::Table& ds) override {
    this->find_result_ = ds.find(this->key_);
    this->pay_work();
  }

  const std::optional<V>& result() const noexcept {
    return this->find_result_;
  }
};

template <htm::detail::TxValue K, htm::detail::TxValue V>
class HtInsertOp final : public HtOpBase<K, V> {
 public:
  using Base = HtOpBase<K, V>;
  HtInsertOp() : Base(Base::Kind::Insert, kHtInsertClass) {}

  void set(K key, V value) noexcept {
    this->key_ = key;
    this->value_ = value;
  }

  void run_seq(typename Base::Table& ds) override {
    this->bool_result_ = ds.insert(this->key_, this->value_);
    this->pay_work();
  }

  // True iff the key was newly inserted (false: value updated in place).
  bool result() const noexcept { return this->bool_result_; }
};

template <htm::detail::TxValue K, htm::detail::TxValue V>
class HtRemoveOp final : public HtOpBase<K, V> {
 public:
  using Base = HtOpBase<K, V>;
  HtRemoveOp() : Base(Base::Kind::Remove, kHtReadWriteClass) {}

  void set(K key) noexcept { this->key_ = key; }

  void run_seq(typename Base::Table& ds) override {
    this->bool_result_ = ds.remove(this->key_);
    this->pay_work();
  }

  bool result() const noexcept { return this->bool_result_; }
};

// The paper's HCF configuration for the hash table: Find/Remove TLE-like on
// array 0, Insert with all four phases on array 1.
inline std::vector<core::ClassConfig> ht_paper_config(
    int tle_budget = core::kDefaultHtmBudget) {
  return {
      core::ClassConfig{0, core::PhasePolicy::tle_like(tle_budget)},
      core::ClassConfig{1, core::PhasePolicy::paper_default()},
  };
}

inline constexpr std::size_t kHtNumArrays = 2;

}  // namespace hcf::adapters
