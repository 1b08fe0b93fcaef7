// Shared enums for the synchronization engines.
#pragma once

#include <cstdint>

namespace hcf::core {

// Lifecycle of an operation descriptor (paper §2.2).
enum class OpStatus : std::uint32_t {
  UnAnnounced = 0,  // not yet visible to combiners
  Announced = 1,    // published in a publication array
  BeingHelped = 2,  // selected by a combiner
  Done = 3,         // applied; result available
};

// Which phase completed an operation (paper Fig. 3). Engines other than HCF
// use the subset that applies to them (e.g. TLE completes ops in Private or
// UnderLock).
enum class Phase : std::uint8_t {
  Private = 0,     // HTM, before announcing
  Visible = 1,     // HTM, after announcing
  Combining = 2,   // executed by a combiner on HTM
  UnderLock = 3,   // executed while holding the data-structure lock
};

inline constexpr int kNumPhases = 4;

inline const char* to_string(Phase p) noexcept {
  switch (p) {
    case Phase::Private: return "TryPrivate";
    case Phase::Visible: return "TryVisible";
    case Phase::Combining: return "TryCombining";
    case Phase::UnderLock: return "CombineUnderLock";
  }
  return "?";
}

inline const char* to_string(OpStatus s) noexcept {
  switch (s) {
    case OpStatus::UnAnnounced: return "UnAnnounced";
    case OpStatus::Announced: return "Announced";
    case OpStatus::BeingHelped: return "BeingHelped";
    case OpStatus::Done: return "Done";
  }
  return "?";
}

}  // namespace hcf::core
