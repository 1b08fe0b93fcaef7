// Runtime-tunable parameters of the simulated HTM. Capacity limits model
// the L1-bounded read/write sets of real RTM; tests shrink them to exercise
// capacity-abort paths deterministically. The snapshot policy is fixed, not
// a knob: reads validate locally and extend only on evidence of staleness
// (htm.hpp, DESIGN.md §8.3).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace hcf::htm {

// Number of ownership records. Power of two; 2^16 orecs * 8B = 512 KiB,
// large enough that false conflicts are rare for our data-structure sizes.
inline constexpr std::size_t kOrecCountLog2 = 16;
inline constexpr std::size_t kOrecCount = std::size_t{1} << kOrecCountLog2;

// htm::read deduplicates against this many most-recent read-set entries
// before appending, keeping read sets compact in pointer-chasing loops
// without an O(n) scan. A window of 8 was tried and measured slower on
// distinct-address read sets (BM_TxnReadOnly/32: ~+2.4 ns per read from
// the longer miss scan) with no read-set shrinkage to show for it on the
// figure workloads, so the window stays at 4; see DESIGN.md §8.
inline constexpr std::size_t kReadDedupWindow = 4;

struct Config {
  // Maximum tracked read locations per transaction (≈ L1 lines on RTM).
  std::atomic<std::size_t> read_capacity{8192};
  // Maximum buffered writes per transaction.
  std::atomic<std::size_t> write_capacity{2048};
};

Config& config() noexcept;

// RAII helper for tests: temporarily overrides capacities.
class ScopedCapacity {
 public:
  ScopedCapacity(std::size_t reads, std::size_t writes) noexcept
      : old_reads_(config().read_capacity.load()),
        old_writes_(config().write_capacity.load()) {
    config().read_capacity.store(reads);
    config().write_capacity.store(writes);
  }
  ~ScopedCapacity() {
    config().read_capacity.store(old_reads_);
    config().write_capacity.store(old_writes_);
  }
  ScopedCapacity(const ScopedCapacity&) = delete;
  ScopedCapacity& operator=(const ScopedCapacity&) = delete;

 private:
  std::size_t old_reads_;
  std::size_t old_writes_;
};

}  // namespace hcf::htm
