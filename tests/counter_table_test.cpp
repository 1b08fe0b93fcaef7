// Table-driven coverage of the layer counter tables (util/counters.hpp).
// Every counter of every layer is reached through its table, not by name,
// so a counter added to a table is covered here without editing this file:
// capture, delta_since and reset must see it, and the sharded merge must
// sum it across shards.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "adapters/ht_ops.hpp"
#include "core/engine.hpp"
#include "ds/hash_table.hpp"
#include "mem/pool.hpp"
#include "sim_htm/stats.hpp"
#include "util/parking.hpp"

namespace {

using namespace hcf;

// Adds first, first + 1, ... to the counters of `live`, element by element
// in table order, and returns the amounts added.
template <typename Table, typename Live>
std::vector<std::uint64_t> bump_all(Live& live, std::uint64_t first) {
  std::vector<std::uint64_t> added;
  util::for_each_counter<Table>(
      [&](util::Counter& c) {
        added.push_back(first + added.size());
        c.add(added.back());
      },
      live);
  return added;
}

// A snapshot's values, element by element in table order.
template <typename Snap>
std::vector<std::uint64_t> values(const Snap& snap) {
  std::vector<std::uint64_t> out;
  snap.for_each([&](auto, const char*, const char*, const auto& field) {
    util::for_each_leaf([&](std::uint64_t v) { out.push_back(v); }, field);
  });
  return out;
}

template <typename Table, typename Live, typename Capture>
void check_layer(Live& live, Capture capture) {
  const auto base = capture();
  const auto first = bump_all<Table>(live, 1000);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(values(capture().delta_since(base)), first);

  const auto mid = capture();
  const auto second = bump_all<Table>(live, 5000);
  EXPECT_EQ(values(capture().delta_since(mid)), second);

  live.reset();
  for (const std::uint64_t v : values(capture())) EXPECT_EQ(v, 0u);
}

TEST(CounterTables, EngineCountersCaptureDeltaReset) {
  auto live = std::make_unique<core::EngineStats>();
  check_layer<core::EngineCounters>(
      *live, [&] { return core::EngineStatsSnapshot::capture(*live); });
}

TEST(CounterTables, HtmCountersCaptureDeltaReset) {
  check_layer<htm::HtmCounters>(htm::stats(),
                                [] { return htm::StatsSnapshot::capture(); });
}

TEST(CounterTables, ReclaimCountersCaptureDeltaReset) {
  check_layer<mem::ReclaimCounters>(
      mem::reclaim_stats(), [] { return mem::ReclaimSnapshot::capture(); });
}

TEST(CounterTables, ParkCountersCaptureDeltaReset) {
  check_layer<util::ParkCounters>(
      util::park_stats(), [] { return util::ParkSnapshot::capture(); });
}

TEST(CounterTables, ShardedSnapshotSumsEveryCounterAcrossShards) {
  using Table = ds::HashTable<std::uint64_t, std::uint64_t>;
  using Sharded = core::ShardedEngine<core::HcfEngine<Table>>;
  constexpr std::size_t kShards = 4;  // a power of two
  std::vector<std::unique_ptr<Table>> tables;
  std::vector<Table*> ptrs;
  for (std::size_t i = 0; i < kShards; ++i) {
    tables.push_back(std::make_unique<Table>(16));
    ptrs.push_back(tables.back().get());
  }
  Sharded engine(std::span<Table* const>(ptrs),
                 adapters::ht_paper_config(), adapters::kHtNumArrays);

  const auto base = engine.stats_snapshot();
  std::vector<std::uint64_t> expected;
  for (std::size_t i = 0; i < kShards; ++i) {
    const auto added = bump_all<core::EngineCounters>(
        engine.shard(i).stats(), 100000 * (i + 1));
    expected.resize(added.size());
    for (std::size_t k = 0; k < added.size(); ++k) expected[k] += added[k];
  }
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(values(engine.stats_snapshot().delta_since(base)), expected);
}

}  // namespace
