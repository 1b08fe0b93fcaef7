// Seeded operation streams.
//
// Every worker thread gets its own pre-generated stream of packed
// operations, built from --seed before set-up starts, so the timed loop
// does no RNG work and the engines see only the generated inputs. A stream
// holds the workload's mix *exactly* (counts, then a Fisher-Yates shuffle):
// the loop cycles through it, so any drift in the insert/remove balance
// would otherwise compound on every pass and could empty the priority
// queue.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

enum class OpKind : std::uint8_t { Find = 0, Insert = 1, Remove = 2, RemoveMin = 3 };
inline constexpr int kNumOpKinds = 4;
inline constexpr const char* kOpKindNames[kNumOpKinds] = {"find", "insert",
                                                          "remove", "remove_min"};

// Kind in the top two bits, key in the low 30.
using PackedOp = std::uint32_t;
inline constexpr PackedOp pack(OpKind kind, std::uint32_t key) noexcept {
  return (static_cast<PackedOp>(kind) << 30) | (key & 0x3FFFFFFFu);
}
inline constexpr OpKind kind_of(PackedOp op) noexcept {
  return static_cast<OpKind>(op >> 30);
}
inline constexpr std::uint32_t key_of(PackedOp op) noexcept {
  return op & 0x3FFFFFFFu;
}

// SplitMix64 (Steele, Lea, Flood): tiny, seedable from any 64-bit value,
// and good enough for key and mix selection.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  // Uniform in [0, bound) by Lemire's multiply-shift (bias < 2^-32 for the
  // bounds used here).
  std::uint64_t below(std::uint64_t bound) noexcept {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next() >> 32) * bound) >> 32);
  }

 private:
  std::uint64_t state_;
};

// Independent sub-seed for stream `stream_id` of run seed `seed`.
inline std::uint64_t derive_seed(std::uint64_t seed,
                                 std::uint64_t stream_id) noexcept {
  SplitMix64 mix(seed ^ (0xD1B54A32D192ED03ULL * (stream_id + 1)));
  return mix.next();
}

struct StreamSpec {
  std::array<std::uint32_t, kNumOpKinds> pct{};  // per OpKind, sums to 100
  std::uint32_t key_range = 1;                   // keys uniform in [0, range)
};

// Worker thread t draws stream id t; set-up draws its own inputs (the
// priority-queue prefill) from kPrefillStream.
inline constexpr std::uint64_t kPrefillStream = 1u << 20;

inline std::vector<PackedOp> make_stream(const StreamSpec& spec,
                                         std::uint64_t seed,
                                         std::uint64_t thread,
                                         std::size_t length) {
  SplitMix64 rng(derive_seed(seed, thread));
  std::vector<PackedOp> ops;
  ops.reserve(length);
  std::size_t assigned = 0;
  for (int k = 0; k < kNumOpKinds; ++k) {
    assigned += length * spec.pct[static_cast<std::size_t>(k)] / 100;
  }
  for (int k = 0; k < kNumOpKinds; ++k) {
    std::size_t count = length * spec.pct[static_cast<std::size_t>(k)] / 100;
    // Rounding leftovers go to the first kind in the mix.
    if (ops.empty() && count > 0) count += length - assigned;
    for (std::size_t i = 0; i < count; ++i) {
      ops.push_back(pack(static_cast<OpKind>(k),
                         static_cast<std::uint32_t>(rng.below(spec.key_range))));
    }
  }
  for (std::size_t i = ops.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.below(i));
    std::swap(ops[i - 1], ops[j]);
  }
  return ops;
}

}  // namespace perfbench
