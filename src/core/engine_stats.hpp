// Per-engine statistics: which phase completed each operation (paper
// Fig. 3), split by operation class, plus combining metrics (Fig. 4).
#pragma once

#include <cstdint>

#include "core/types.hpp"
#include "util/counters.hpp"

namespace hcf::core {

inline constexpr int kMaxOpClasses = 4;

using PerClass = util::Shape<kMaxOpClasses>;
using PerClassPhase = util::Shape<kMaxOpClasses, kNumPhases>;

// The engine's counter table (util/counters.hpp): X(shape, member, JSON
// group, JSON key).
#define HCF_ENGINE_COUNTERS(X)                                               \
  X(PerClassPhase, completions, "by_class", "completions")                   \
  /* Failed HTM attempts per class (any phase): the contention signal */     \
  /* that completions alone hide (retry storms). */                          \
  X(PerClass, attempt_failures, "by_class", "attempt_failures")              \
  /* Combining: times a thread became a combiner, ops combiners selected, */ \
  /* their run_multi calls, ops completed by a thread other than owner. */  \
  X(util::Scalar, combiner_sessions, "combining", "sessions")                \
  X(util::Scalar, ops_selected, "combining", "ops_selected")                 \
  X(util::Scalar, combine_rounds, "combining", "rounds")                     \
  X(util::Scalar, helped_ops, "combining", "helped_ops")                     \
  /* Combiner fast path (DESIGN.md §9): empty 64-slot words the scan */     \
  /* skipped; key groups formed and the ops they cover (mean group size). */ \
  X(util::Scalar, scan_words_skipped, "selection", "scan_words_skipped")     \
  X(util::Scalar, batch_groups, "selection", "batch_groups")                 \
  X(util::Scalar, batch_group_sizes, "selection", "batch_group_sizes")       \
  /* Parallel combining (DESIGN.md §13): groups and ops published for */    \
  /* delegates, groups applied by their delegate, unclaimed groups the */    \
  /* combiner applied, HTM conflicts in delegated runs. */                   \
  X(util::Scalar, delegated_groups, "delegation", "groups")                  \
  X(util::Scalar, delegated_ops, "delegation", "ops")                        \
  X(util::Scalar, delegate_applies, "delegation", "delegate_applies")        \
  X(util::Scalar, delegate_fallbacks, "delegation", "fallbacks")             \
  X(util::Scalar, delegate_conflict_aborts, "delegation", "conflict_aborts")

HCF_COUNTER_TABLE(EngineCounters, HCF_ENGINE_COUNTERS);

struct EngineStats : util::LiveCounters<EngineStats, EngineCounters> {
  HCF_ENGINE_COUNTERS(HCF_COUNTER_MEMBER)

  void record_completion(int cls, Phase phase) noexcept {
    completions[static_cast<std::size_t>(cls % kMaxOpClasses)]
               [static_cast<std::size_t>(phase)]
                   .add();
  }

  void record_attempt_failure(int cls) noexcept {
    attempt_failures[static_cast<std::size_t>(cls % kMaxOpClasses)].add();
  }

  std::uint64_t total() const noexcept;  // completed ops, all classes
};

// Plain-value snapshot for measurement intervals.
struct EngineStatsSnapshot
    : util::CounterValues<EngineStatsSnapshot, EngineCounters> {
  HCF_ENGINE_COUNTERS(HCF_COUNTER_VALUE)

  static EngineStatsSnapshot capture(const EngineStats& s) noexcept {
    return capture_from(s);
  }

  std::uint64_t phase_total(Phase phase) const noexcept {
    std::uint64_t sum = 0;
    for (const auto& cls : completions) {
      sum += cls[static_cast<std::size_t>(phase)];
    }
    return sum;
  }

  std::uint64_t class_total(int cls) const noexcept {
    std::uint64_t sum = 0;
    for (auto v : completions[static_cast<std::size_t>(cls)]) sum += v;
    return sum;
  }

  std::uint64_t total() const noexcept {
    std::uint64_t sum = 0;
    for (int cls = 0; cls < kMaxOpClasses; ++cls) sum += class_total(cls);
    return sum;
  }

  // Ops per combiner session (the paper's "combining degree").
  double combining_degree() const noexcept {
    return combiner_sessions == 0
               ? 0.0
               : static_cast<double>(ops_selected) /
                     static_cast<double>(combiner_sessions);
  }
};

inline std::uint64_t EngineStats::total() const noexcept {
  return EngineStatsSnapshot::capture(*this).total();
}

}  // namespace hcf::core
