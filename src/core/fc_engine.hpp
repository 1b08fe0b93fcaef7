// Flat combining (Hendler, Incze, Shavit & Tzafrir). Threads announce their
// operations in the publication array and compete for the data-structure
// lock with try_lock; the winner (the combiner) scans the array and applies
// every announced operation — batched through run_multi so data-structure
// combining/elimination applies — while the losers spin on their status.
//
// No HTM is used anywhere; all work happens under the single global lock.
// Expressed on the shared phase machine: CombinerMode::UnderGlobalLock
// with an fc_like policy (zero HTM budgets everywhere, announce on), so
// the whole execution is the announce/wait/combine-under-lock path of
// core/phase_exec.hpp + core/combine_core.hpp. The combiner rescans the
// publication array twice before releasing the lock (classic FC performs
// several passes to pick up late arrivals). The per-class policy and
// SelectionLock surface come with the shared core: classes with private
// budgets speculate first, never-announcing classes degrade to Lock.
#pragma once

#include <string_view>
#include <vector>

#include "core/phase_exec.hpp"

namespace hcf::core {

template <typename DS, sync::ElidableLock Lock = sync::TxLock,
          sync::ElidableLock SelectionLock = sync::TxLock>
class FcEngine
    : public PhaseMachine<DS, EnginePolicy<CombinerMode::UnderGlobalLock>,
                          Lock, SelectionLock> {
  using Base = PhaseMachine<DS, EnginePolicy<CombinerMode::UnderGlobalLock>,
                            Lock, SelectionLock>;

 public:
  explicit FcEngine(DS& ds, std::vector<ClassConfig> classes =
                                uniform_classes(PhasePolicy::fc_like()),
                    std::size_t num_arrays = 1)
      : Base(ds, std::move(classes), num_arrays, /*scan_rounds=*/2) {}

  static std::string_view name() noexcept { return "FC"; }
};

}  // namespace hcf::core
