// SCM: TLE with software-assisted conflict management (Afek, Levy &
// Morrison). After its free speculative attempts fail, a thread retries on
// HTM while holding an auxiliary lock that no speculator subscribes to:
// conflicting retries run one at a time, while non-conflicting threads
// keep speculating. Only when that budget is also spent does the thread
// take the data-structure lock.
//
// Expressed on the shared phase machine (§2.4 calls the single-combiner
// variant's held selection lock "akin to SCM's auxiliary lock"): a
// never-announcing SingleHolder class, {free,0,aux,off}. Its combining
// phase holds the array's selection lock while it retries its own op.
#pragma once

#include <string_view>

#include "core/phase_exec.hpp"

namespace hcf::core {

template <typename DS, sync::ElidableLock Lock = sync::TxLock>
class ScmEngine
    : public PhaseMachine<DS, EnginePolicy<CombinerMode::SingleHolder>, Lock> {
  using Base = PhaseMachine<DS, EnginePolicy<CombinerMode::SingleHolder>, Lock>;

 public:
  // The total budget matches the paper's setup (ten attempts for every
  // HTM-based engine), split between the free phase and the aux-lock phase.
  explicit ScmEngine(DS& ds, int free_budget = 5, int aux_budget = 5)
      : Base(ds, uniform_classes(PhasePolicy{free_budget, 0, aux_budget,
                                             false})) {}

  static std::string_view name() noexcept { return "SCM"; }
};

}  // namespace hcf::core
