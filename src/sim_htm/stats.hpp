// Global transaction statistics, aggregated from per-thread counters.
// Engines and benchmarks snapshot these around measurement intervals.
#pragma once

#include <cstdint>

#include "sim_htm/abort.hpp"
#include "util/counters.hpp"

namespace hcf::htm {

// aborts[code], labelled by AbortCode value. JSON lists the four codes an
// engine sees first; slot 0 ("none") counts codes htm.cpp cannot classify.
struct PerAbortCode {
  template <typename T>
  using of = T[kNumAbortCodes];
  static constexpr util::Label labels[] = {{1, "conflict"}, {2, "capacity"},
      {3, "explicit"}, {4, "lock_busy"}, {0, "none"}};
};

// The simulator's counter table (util/counters.hpp): X(shape, member, JSON
// group, JSON key).
#define HCF_HTM_COUNTERS(X)                                                  \
  X(util::Scalar, starts, "htm", "starts")                                   \
  X(util::Scalar, commits, "htm", "commits")                                 \
  X(util::Scalar, read_only_commits, "htm", "read_only_commits")             \
  X(PerAbortCode, aborts, "htm", "aborts")                                   \
  /* Shared-memory accesses made through the instrumentation (the paper's */ \
  /* cache-traffic proxy; see DESIGN.md on Figure 4). */                     \
  X(util::Scalar, tx_reads, "htm", "tx_reads")                               \
  X(util::Scalar, tx_writes, "htm", "tx_writes")                             \
  X(util::Scalar, strong_stores, "htm", "strong_stores")                     \
  /* Read-set revalidations: a read extends only when it sees a version */  \
  /* past its snapshot or the strong clock moved (htm.hpp). */               \
  X(util::Scalar, snapshot_extensions, "htm", "snapshot_extensions")         \
  /* Protocol-checker violations (sim_htm/protocol_check.hpp), bumped */     \
  /* only under HCF_CHECK_PROTOCOL in Count mode. */                         \
  X(util::Scalar, proto_strong_in_tx, "htm", "proto_strong_in_tx")          \
  X(util::Scalar, proto_misaligned, "htm", "proto_misaligned")               \
  X(util::Scalar, proto_unsubscribed_commits, "htm",                         \
    "proto_unsubscribed_commits")

HCF_COUNTER_TABLE(HtmCounters, HCF_HTM_COUNTERS);

struct Stats : util::LiveCounters<Stats, HtmCounters> {
  HCF_HTM_COUNTERS(HCF_COUNTER_MEMBER)

  std::uint64_t total_protocol_violations() const noexcept {
    return proto_strong_in_tx.total() + proto_misaligned.total() +
           proto_unsubscribed_commits.total();
  }
};

Stats& stats() noexcept;

// Plain-value snapshot for interval deltas.
struct StatsSnapshot : util::CounterValues<StatsSnapshot, HtmCounters> {
  HCF_HTM_COUNTERS(HCF_COUNTER_VALUE)

  static StatsSnapshot capture() noexcept { return capture_from(stats()); }

  std::uint64_t total_aborts() const noexcept {
    std::uint64_t sum = 0;
    for (auto a : aborts) sum += a;
    return sum;
  }
};

}  // namespace hcf::htm
