// TLE+FC: the paper's strawman combination (§3.3). A thread first tries its
// operation on HTM exactly like TLE; if all attempts fail it *announces* the
// operation and proceeds as in flat combining — competing for the
// data-structure lock and, on winning, combining every announced operation
// under that lock.
//
// The paper shows this performs almost identically to TLE: combining only
// happens under the global lock, blocking all concurrent HTM activity, and
// the combining degree stays tiny because most threads are still
// speculating rather than announcing.
//
// Expressed on the shared phase machine: CombinerMode::UnderGlobalLock
// with a {budget, 0, 0, announce} policy — a TLE-sized TryPrivate budget in
// front of the flat-combining path, with a single combiner scan pass.
#pragma once

#include <string_view>

#include "core/phase_exec.hpp"

namespace hcf::core {

template <typename DS, sync::ElidableLock Lock = sync::TxLock,
          sync::ElidableLock SelectionLock = sync::TxLock>
class TleFcEngine
    : public PhaseMachine<DS, EnginePolicy<CombinerMode::UnderGlobalLock>,
                          Lock, SelectionLock> {
  using Base = PhaseMachine<DS, EnginePolicy<CombinerMode::UnderGlobalLock>,
                            Lock, SelectionLock>;

 public:
  explicit TleFcEngine(DS& ds, int budget = kDefaultHtmBudget)
      : Base(ds, uniform_classes(PhasePolicy{budget, 0, 0, true}), 1,
             /*scan_rounds=*/1) {}

  static std::string_view name() noexcept { return "TLE+FC"; }
};

}  // namespace hcf::core
