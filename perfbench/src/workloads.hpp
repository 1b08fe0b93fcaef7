// The benchmark's workloads: which structure and engine each builds, what
// set-up prefills, how one packed operation is issued, and the audit that
// checks the structure's contents against what the operations returned.
//
// Why these three (the notes file has the full rationale):
//   ht_update   hash table, 40/30/30 find/insert/remove — nearly every op
//               commits on private HTM; the update path and mem do the work.
//   ht_read     same table, 100 % find — the read path alone; the "no
//               change" workload for mem and combiner changes.
//   pq_combine  skip-list PQ, 50/50 insert/remove_min — remove_min always
//               combines, insert stays private: the paper's §1 case.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "adapters/ht_ops.hpp"
#include "adapters/pq_ops.hpp"
#include "core/hcf_engine.hpp"
#include "ds/hash_table.hpp"
#include "ds/skiplist_pq.hpp"
#include "streams.hpp"

namespace perfbench {

using Key = std::uint64_t;
using Table = hcf::ds::HashTable<Key, Key>;
using Pq = hcf::ds::SkipListPq<Key>;

// Per-thread audit tallies, summed after the threads join.
struct Tally {
  std::uint64_t errors = 0;        // results that contradict known contents
  std::uint64_t inserted = 0;      // inserts that added a key
  std::uint64_t removed = 0;       // removes that took a key out
  std::uint64_t inserted_sum = 0;  // key sums, for the PQ checksum
  std::uint64_t removed_sum = 0;

  void add(const Tally& o) noexcept {
    errors += o.errors;
    inserted += o.inserted;
    removed += o.removed;
    inserted_sum += o.inserted_sum;
    removed_sum += o.removed_sum;
  }
};

struct Audit {
  std::uint64_t failed = 0;  // ops the structural audit could not account for
  std::string detail;        // empty when everything checks out
};

inline void note_failure(Audit& a, std::uint64_t ops, const std::string& what) {
  a.failed += ops == 0 ? 1 : ops;
  if (!a.detail.empty()) a.detail += "; ";
  a.detail += what;
}

inline std::string mismatch(const char* what, std::uint64_t got,
                            std::uint64_t want) {
  return std::string(what) + " " + std::to_string(got) + " != expected " +
         std::to_string(want);
}

inline std::uint64_t abs_diff(std::uint64_t a, std::uint64_t b) noexcept {
  return a > b ? a - b : b - a;
}

inline constexpr std::uint32_t kHtKeys = 16 * 1024;
inline constexpr std::uint32_t kPqKeyRange = 1u << 20;
inline constexpr std::uint64_t kPqPrefill = 64 * 1024;

// Hash table with kHtKeys keys and buckets, prefilled with the even keys;
// every key k is only ever stored with value 2k+1.
struct HtWorkload {
  using DS = Table;
  StreamSpec spec;

  struct Ops {
    hcf::adapters::HtFindOp<Key, Key> find;
    hcf::adapters::HtInsertOp<Key, Key> insert;
    hcf::adapters::HtRemoveOp<Key, Key> remove;
  };

  static constexpr Key value_of(Key k) noexcept { return 2 * k + 1; }

  // With no inserts or removes the contents are exactly the prefill, so
  // find(k) must hit iff k is even.
  bool contents_fixed() const noexcept {
    return spec.pct[static_cast<int>(OpKind::Insert)] == 0 &&
           spec.pct[static_cast<int>(OpKind::Remove)] == 0;
  }

  std::unique_ptr<Table> make() const { return std::make_unique<Table>(kHtKeys); }

  void prefill(Table& t, std::uint64_t /*seed*/, Tally& tally) const {
    for (Key k = 0; k < kHtKeys; k += 2) {
      t.insert(k, value_of(k));
      ++tally.inserted;
    }
  }

  static auto make_engine(Table& t) {
    return std::make_unique<hcf::core::HcfEngine<Table>>(
        t, hcf::adapters::ht_paper_config(), hcf::adapters::kHtNumArrays);
  }

  // `exec(op, kind)` runs op through the engine; the checks here stay
  // outside whatever exec times.
  template <typename Exec>
  void apply(Exec&& exec, Ops& ops, PackedOp p, Tally& t) const {
    const Key k = key_of(p);
    switch (kind_of(p)) {
      case OpKind::Find: {
        ops.find.set(k);
        exec(ops.find, OpKind::Find);
        const auto& r = ops.find.result();
        const bool wrong_value = r.has_value() && *r != value_of(k);
        const bool wrong_presence =
            contents_fixed() && r.has_value() != (k % 2 == 0);
        if (wrong_value || wrong_presence) ++t.errors;
        break;
      }
      case OpKind::Insert:
        ops.insert.set(k, value_of(k));
        exec(ops.insert, OpKind::Insert);
        if (ops.insert.result()) ++t.inserted;
        break;
      case OpKind::Remove:
        ops.remove.set(k);
        exec(ops.remove, OpKind::Remove);
        if (ops.remove.result()) ++t.removed;
        break;
      case OpKind::RemoveMin:
        ++t.errors;  // not in a hash-table stream
        break;
    }
  }

  // `total` includes the prefill's inserts.
  Audit audit(Table& t, const Tally& total) const {
    Audit a;
    if (!t.check_invariants()) note_failure(a, 0, "table invariants broken");
    const std::uint64_t expected = total.inserted - total.removed;
    const std::uint64_t size = t.size_slow();
    if (size != expected) {
      note_failure(a, abs_diff(size, expected),
                   mismatch("size", size, expected) +
                       " (prefill + inserted - removed)");
    }
    std::uint64_t bad = 0;
    t.for_each([&](Key k, Key v) {
      if (k >= kHtKeys || v != value_of(k)) ++bad;
    });
    if (bad != 0) note_failure(a, bad, "key k not mapped to 2k+1");
    return a;
  }
};

// Skip-list priority queue prefilled with kPqPrefill seeded keys. Insert
// keys and the prefill are uniform in [0, kPqKeyRange).
struct PqWorkload {
  using DS = Pq;
  StreamSpec spec;

  struct Ops {
    hcf::adapters::PqInsertOp<Key> insert;
    hcf::adapters::PqRemoveMinOp<Key> remove_min;
  };

  std::unique_ptr<Pq> make() const { return std::make_unique<Pq>(); }

  void prefill(Pq& q, std::uint64_t seed, Tally& tally) const {
    SplitMix64 rng(derive_seed(seed, kPrefillStream));
    for (std::uint64_t i = 0; i < kPqPrefill; ++i) {
      const Key k = rng.below(spec.key_range);
      q.insert(k);
      ++tally.inserted;
      tally.inserted_sum += k;
    }
  }

  // HcfEngine rather than HcfSingleCombinerEngine: the single-combiner
  // variant applies an insert twice about once in 5x10^8 ops. Its mark_done
  // is a plain (non-dooming) store and it never marks ops BeingHelped, so an
  // owner whose visible-phase transaction read "Announced" before a
  // combiner applied the op can extend its snapshot past the combiner's
  // session and commit the op again.
  static auto make_engine(Pq& q) {
    return std::make_unique<hcf::core::HcfEngine<Pq>>(
        q, hcf::adapters::pq_paper_config(), hcf::adapters::kPqNumArrays);
  }

  template <typename Exec>
  void apply(Exec&& exec, Ops& ops, PackedOp p, Tally& t) const {
    switch (kind_of(p)) {
      case OpKind::Insert: {
        const Key k = key_of(p);
        ops.insert.set(k);
        exec(ops.insert, OpKind::Insert);
        ++t.inserted;
        t.inserted_sum += k;
        break;
      }
      case OpKind::RemoveMin: {
        exec(ops.remove_min, OpKind::RemoveMin);
        const auto& r = ops.remove_min.result();
        if (r.has_value()) {
          ++t.removed;
          t.removed_sum += *r;
        } else {
          ++t.errors;  // the balanced mix never empties the queue
        }
        break;
      }
      default:
        ++t.errors;  // not in a priority-queue stream
        break;
    }
  }

  // Checks the invariants and size, then drains the queue to compare the
  // key sum: prefill + inserted - removed must equal what remains.
  Audit audit(Pq& q, const Tally& total) const {
    Audit a;
    if (!q.check_invariants()) note_failure(a, 0, "skip-list invariants broken");
    const std::uint64_t expected = total.inserted - total.removed;
    const std::uint64_t size = q.size_slow();
    if (size != expected) {
      note_failure(a, abs_diff(size, expected),
                   mismatch("size", size, expected) +
                       " (prefill + inserted - removed)");
    }
    std::uint64_t remaining_sum = 0;
    std::uint64_t remaining = 0;
    Key prev = 0;
    while (const auto k = q.remove_min()) {
      if (*k < prev) note_failure(a, 1, "remove_min out of order");
      prev = *k;
      remaining_sum += *k;
      ++remaining;
    }
    const std::uint64_t want_sum = total.inserted_sum - total.removed_sum;
    if (remaining_sum != want_sum) {
      note_failure(a, 0, mismatch("remaining key sum", remaining_sum, want_sum));
    }
    if (remaining != size) note_failure(a, 0, "drained count != size");
    return a;
  }
};

// The benchmark's three workloads (BENCHMARK.json names them).
inline HtWorkload ht_update() { return {{{40, 30, 30, 0}, kHtKeys}}; }
inline HtWorkload ht_read() { return {{{100, 0, 0, 0}, kHtKeys}}; }
inline PqWorkload pq_combine() { return {{{0, 50, 0, 50}, kPqKeyRange}}; }

}  // namespace perfbench
