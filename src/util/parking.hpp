// Kernel-assisted parking: the third tier of the wait hierarchy
// (DESIGN.md §12). Every wait site in the tree steps through
//
//   spin (bounded, doubling pause)  ->  yield  ->  park (this file)
//
// under a per-class WaitPolicy knob. Parking trades one syscall for not
// occupying a run-queue slot — on the oversubscribed hosts this repo
// actually measures on (1–2 cores running 8–32 threads), that is the
// difference between the lock holder / combiner getting the CPU
// immediately and it being time-sliced against a crowd of yield-looping
// waiters.
//
// The primitive is a 4-byte futex: park(addr, expected) sleeps iff
// *addr == expected, atomically against concurrent wakes — the kernel
// re-checks the word under its own bucket lock, which is what closes the
// lost-wakeup window that plain "check, then sleep" would have. On Linux
// this is SYS_futex; elsewhere (or with -DHCF_NO_FUTEX=ON, the CI
// portability job) a small global parking lot built on
// std::atomic::wait/notify provides the same contract with possible extra
// spurious wakes, which every call site tolerates by re-checking its
// predicate in a loop.
//
// Nothing in this file may be reached from inside an htm::attempt body
// (lint rules tx-blocking-call and sema-tx-transitive-purity): a parked
// transaction would deadlock against the quiescence gate in the
// simulator, and on real HTM the context switch simply aborts the
// transaction. Elided readers subscribe() and abort — they never arrive
// here.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <thread>

#include "telemetry/telemetry.hpp"
#include "util/backoff.hpp"
#include "util/counters.hpp"

#if defined(__linux__) && !defined(HCF_NO_FUTEX)
#define HCF_HAS_FUTEX 1
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace hcf::util {

// How a wait site behaves once its spin tier is exhausted. Per operation
// class via core::PhasePolicy::wait; SpinYield is the default everywhere
// (parking costs a syscall round-trip that low-thread-count runs never
// amortize).
enum class WaitPolicy : std::uint8_t {
  SpinYield,  // after the spin tier, sched_yield between re-reads
  SpinPark,   // after spinning and a few yields, futex-sleep on the word
};

// Why park() returned.
enum class ParkResult : std::uint8_t {
  Woken = 0,     // the watched word changed value
  Spurious = 1,  // kernel returned but the word still holds `expected`
};

// Global parking counters (a util/counters.hpp table): parks that reached
// the kernel wait, wake calls that issued a syscall, parks that returned
// with the word unchanged, and yield-tier sched_yield calls (a high
// yields-per-op rate means waiters burn quanta that the combiner needs).
#define HCF_PARK_COUNTERS(X)                            \
  X(Scalar, parks, "park", "parks")                     \
  X(Scalar, wakes, "park", "wakes")                     \
  X(Scalar, spurious_wakes, "park", "spurious_wakes")   \
  X(Scalar, yields, "park", "yields")

HCF_COUNTER_TABLE(ParkCounters, HCF_PARK_COUNTERS);

struct ParkStats : LiveCounters<ParkStats, ParkCounters> {
  HCF_PARK_COUNTERS(HCF_COUNTER_MEMBER)
};

inline ParkStats& park_stats() noexcept {
  static ParkStats stats;
  return stats;
}

// Plain-value snapshot for measurement intervals (harness/driver.hpp).
struct ParkSnapshot : CounterValues<ParkSnapshot, ParkCounters> {
  HCF_PARK_COUNTERS(HCF_COUNTER_VALUE)

  static ParkSnapshot capture() noexcept { return capture_from(park_stats()); }
};

namespace detail {

#if defined(HCF_HAS_FUTEX)

inline void futex_wait(const void* addr, std::uint32_t expected) noexcept {
  // EAGAIN (word already changed) and EINTR (signal) both just return;
  // callers re-check their predicate.
  syscall(SYS_futex, const_cast<void*>(addr), FUTEX_WAIT_PRIVATE, expected,
          nullptr, nullptr, 0);
}

inline void futex_wake(const void* addr, int count) noexcept {
  syscall(SYS_futex, const_cast<void*>(addr), FUTEX_WAKE_PRIVATE, count,
          nullptr, nullptr, 0);
}

#else  // portable fallback: a hashed parking lot over atomic generations

// One generation counter per bucket; park waits on the generation, wake
// bumps it and notifies. Collisions across unrelated words sharing a
// bucket only cause spurious wakes — the contract already allows them.
inline constexpr std::size_t kParkingBuckets = 64;

struct ParkingLot {
  std::atomic<std::uint32_t> gen[kParkingBuckets];
};

inline ParkingLot& parking_lot() noexcept {
  static ParkingLot lot{};
  return lot;
}

inline std::size_t bucket_of(const void* addr) noexcept {
  auto x = reinterpret_cast<std::uintptr_t>(addr);
  x ^= x >> 7;  // drop alignment zeros, then Fibonacci-mix
  return static_cast<std::size_t>((x * 0x9e3779b97f4a7c15ULL) >> 58) &
         (kParkingBuckets - 1);
}

template <typename Reload>
inline void futex_wait_with(const void* addr, std::uint32_t expected,
                            Reload&& reload) noexcept {
  auto& gen = parking_lot().gen[bucket_of(addr)];
  const std::uint32_t g = gen.load(std::memory_order_acquire);
  // Re-check after reading the generation: a waker bumps the generation
  // only after changing the word, so if the word still matches, any
  // subsequent wake bumps past `g` and wait() returns.
  if (reload() != expected) return;
  gen.wait(g, std::memory_order_acquire);
}

inline void futex_wake(const void* addr, int /*count*/) noexcept {
  auto& gen = parking_lot().gen[bucket_of(addr)];
  gen.fetch_add(1, std::memory_order_release);
  gen.notify_all();
}

#endif  // HCF_HAS_FUTEX

template <typename Reload>
inline ParkResult park_impl(const void* addr, std::uint32_t expected,
                            Reload&& reload) noexcept {
  park_stats().parks.add();
  const std::uint64_t t0 = telemetry::park_begin();
#if defined(HCF_HAS_FUTEX)
  futex_wait(addr, expected);
#else
  futex_wait_with(addr, expected, reload);
#endif
  const ParkResult result =
      reload() == expected ? ParkResult::Spurious : ParkResult::Woken;
  if (result == ParkResult::Spurious) park_stats().spurious_wakes.add();
  telemetry::park_end(t0, result == ParkResult::Spurious);
  return result;
}

inline void wake_impl(const void* addr, int count) noexcept {
  park_stats().wakes.add();
  futex_wake(addr, count);
}

}  // namespace detail

// ---- park / wake entry points ---------------------------------------------
// Two word flavours: a plain 4-byte object re-read through std::atomic_ref
// (TxCell words expose their location via wait_address()), and a
// std::atomic<uint32_t> re-read natively. Both must be 4-byte aligned,
// which their natural alignment guarantees.

template <typename T>
  requires(sizeof(T) == 4 && std::is_trivially_copyable_v<T>)
inline ParkResult park(const T* addr, T expected) noexcept {
  std::uint32_t raw;
  std::memcpy(&raw, &expected, sizeof(raw));
  return detail::park_impl(addr, raw, [addr] {
    const T v = std::atomic_ref<T>(*const_cast<T*>(addr))
                    .load(std::memory_order_acquire);
    std::uint32_t w;
    std::memcpy(&w, &v, sizeof(w));
    return w;
  });
}

inline ParkResult park(const std::atomic<std::uint32_t>& word,
                       std::uint32_t expected) noexcept {
  return detail::park_impl(&word, expected, [&word] {
    return word.load(std::memory_order_acquire);
  });
}

template <typename T>
  requires(sizeof(T) == 4 && std::is_trivially_copyable_v<T>)
inline void wake_one(const T* addr) noexcept {
  detail::wake_impl(addr, 1);
}

template <typename T>
  requires(sizeof(T) == 4 && std::is_trivially_copyable_v<T>)
inline void wake_all(const T* addr) noexcept {
  detail::wake_impl(addr, INT32_MAX);
}

inline void wake_one(const std::atomic<std::uint32_t>& word) noexcept {
  detail::wake_impl(&word, 1);
}

inline void wake_all(const std::atomic<std::uint32_t>& word) noexcept {
  detail::wake_impl(&word, INT32_MAX);
}

// ---- the wait-site tuning table -------------------------------------------
// One row per wait-site class; TieredWait below consumes it. This is the
// single home of every spin/yield limit that used to be scattered across
// SpinWait (kSpinLimit = 128) and ProportionalWait (4..256) — per-site
// tuning changes here, never at call sites.

enum class WaitSite : std::uint8_t {
  kLockWord = 0,    // TxLock/FairTxLock word: held -> free transitions
  kTicketQueue,     // FairTxLock serving counter: my-turn waits
  kSelectionLock,   // selection-lock competition / FC waiter loops (epoch)
  kOpStatus,        // Operation::wait_done: waiting on a combiner
  kSpinLockWord,    // util SpinLock internals (never parks)
};

struct WaitTuning {
  std::uint32_t min_pause;          // first spin burst (cpu_relax iterations)
  std::uint32_t max_pause;          // doubling cap for the spin tier
  std::uint32_t yields_before_park; // SpinPark: yields between spin and park
};

inline constexpr WaitTuning kWaitTuning[] = {
    /*kLockWord*/ {1, 128, 8},
    /*kTicketQueue*/ {1, 128, 8},
    /*kSelectionLock*/ {4, 256, 4},
    /*kOpStatus*/ {4, 256, 4},
    /*kSpinLockWord*/ {1, 128, 0},
};

inline constexpr WaitTuning wait_tuning(WaitSite site) noexcept {
  return kWaitTuning[static_cast<std::size_t>(site)];
}

// ---- the tiered waiter ----------------------------------------------------
// The successor of both SpinWait and ProportionalWait: every wait site
// constructs one with its WaitSite row and the operation class's
// WaitPolicy, then loops
//
//     while (!predicate()) {
//       if (waiter.wait()) { <publish waiter intent; park on the word>;
//                            waiter.reset(); }
//     }
//
// wait() runs the spin tier (doubling pause, min..max from the table),
// then the yield tier. It returns true exactly when the policy is
// SpinPark and the yield allotment is spent — the *caller* performs the
// actual park, because what to park on (lock word, ticket counter, epoch,
// status word) and how to publish the waiter bit is site-specific.
class TieredWait {
 public:
  explicit TieredWait(WaitSite site,
                      WaitPolicy policy = WaitPolicy::SpinYield) noexcept
      : tuning_(wait_tuning(site)), policy_(policy),
        pause_(tuning_.min_pause) {}

  // One wait step; true means "park now" (SpinPark only).
  bool wait() noexcept {
    if (pause_ <= tuning_.max_pause) {
      spin_for(pause_);
      pause_ <<= 1;
      return false;
    }
    switch (policy_) {
      case WaitPolicy::SpinYield:
        park_stats().yields.add();
        std::this_thread::yield();
        return false;
      case WaitPolicy::SpinPark:
        if (yields_ < tuning_.yields_before_park) {
          ++yields_;
          park_stats().yields.add();
          std::this_thread::yield();
          return false;
        }
        return true;
    }
    return false;
  }

  // Back to the spin tier — after the watched state moved, or after a park
  // returned (the condition likely changed; re-spin briefly before the
  // next syscall).
  void reset() noexcept {
    pause_ = tuning_.min_pause;
    yields_ = 0;
  }

  WaitPolicy policy() const noexcept { return policy_; }

 private:
  WaitTuning tuning_;
  WaitPolicy policy_;
  std::uint32_t pause_;
  std::uint32_t yields_ = 0;
};

// ---- parkable epoch -------------------------------------------------------
// Eventcount over a 32-bit counter: the publication array's combined-count
// epoch (DESIGN.md §9.3) made parkable. advance() is the combiner-side
// publish; park_if(seen, still_blocked) is the waiter side, sleeping only
// while the counter still reads `seen` and the caller's condition still
// holds. The waiters counter keeps the common case (nobody parked) at one
// load on the publish path.
class ParkableEpoch {
 public:
  std::uint32_t load() const noexcept {
    return value_.load(std::memory_order_acquire);
  }

  // Publish `delta` retired operations and wake any parked cohort.
  void advance(std::uint32_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_seq_cst) != 0) wake_all(value_);
  }

  // Wake parked waiters after the caller released the lock they wait for,
  // a release that does not advance the counter. A futex wait compares the
  // word, so a wake that leaves it unchanged is lost on a waiter that has
  // checked but not yet slept; the counter therefore moves by one whenever
  // someone is registered. Spinning waiters never register, so they see no
  // extra motion.
  void wake_waiters() noexcept {
    // seq_cst: Dekker pair with the fence in park_if. Either we see the
    // waiter's registration, or its still_blocked() re-check sees the
    // release our caller made before this call.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_relaxed) == 0) return;
    value_.fetch_add(1, std::memory_order_seq_cst);
    wake_all(value_);
  }

  // Sleep until the counter moves past `seen` (or spuriously; callers
  // re-check their predicate in a loop). Returns immediately if it already
  // has, or if `still_blocked()` — the caller's wait condition, re-read
  // after registering — no longer holds. The seq_cst pairing with
  // advance() and wake_waiters() closes the Dekker race: our registration
  // is ordered before the re-checks, the waker's change before its
  // waiter check, so one of the two sides must see the other.
  template <typename StillBlocked>
  void park_if(std::uint32_t seen, StillBlocked&& still_blocked) noexcept {
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    // seq_cst: the other half of wake_waiters' fence (see there).
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (value_.load(std::memory_order_seq_cst) == seen && still_blocked()) {
      park(value_, seen);
    }
    waiters_.fetch_sub(1, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint32_t> value_{0};
  std::atomic<std::uint32_t> waiters_{0};
};

}  // namespace hcf::util
