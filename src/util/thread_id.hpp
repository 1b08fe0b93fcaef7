// Dense thread-id registry. The simulator, publication arrays and EBR all
// need small integer thread ids to index per-thread slots. Ids are assigned
// on first use, cached in a thread_local, and recycled when the thread (or
// an explicit guard) releases them, so tests that spawn thousands of
// short-lived threads do not exhaust the id space.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdio>
#include <cstdlib>

namespace hcf::util {

inline constexpr std::size_t kMaxThreads = 128;

class ThreadRegistry {
 public:
  static ThreadRegistry& instance() noexcept {
    static ThreadRegistry reg;
    return reg;
  }

  // Claims the lowest free id. More than kMaxThreads simultaneously
  // registered threads is a configuration error with no defined recovery
  // (every per-thread table is sized by kMaxThreads), so the 129th claim
  // prints a diagnostic and aborts — in every build type.
  std::size_t acquire() noexcept {
    for (std::size_t i = 0; i < kMaxThreads; ++i) {
      bool expected = false;
      if (!used_[i].load(std::memory_order_relaxed) &&
          used_[i].compare_exchange_strong(expected, true,
                                           std::memory_order_acq_rel)) {
        raise_high_water(i + 1);
        return i;
      }
    }
    std::fprintf(stderr,
                 "hcf: thread id space exhausted: more than %zu threads are "
                 "registered at once (util::kMaxThreads)\n",
                 kMaxThreads);
    std::abort();
  }

  void release(std::size_t id) noexcept {
    assert(id < kMaxThreads);
    used_[id].store(false, std::memory_order_release);
  }

  // One past the largest id ever handed out. Monotone: ids are recycled,
  // the mark never falls. Scans over per-thread state (the write-back gate
  // in sim_htm) stop here instead of at kMaxThreads. A thread's raise is
  // sequenced before anything it does with its id, so a scanner ordered
  // after that thread's first use of the id (sim_htm's seq_cst fence pair)
  // observes the raised mark.
  std::size_t high_water() const noexcept {
    return high_water_.load(std::memory_order_acquire);
  }

 private:
  ThreadRegistry() = default;

  void raise_high_water(std::size_t mark) noexcept {
    std::size_t cur = high_water_.load(std::memory_order_relaxed);
    while (cur < mark &&
           !high_water_.compare_exchange_weak(cur, mark,
                                              std::memory_order_release,
                                              std::memory_order_relaxed)) {
    }
  }

  std::atomic<bool> used_[kMaxThreads]{};
  std::atomic<std::size_t> high_water_{0};
};

namespace detail {
struct ThreadIdHolder {
  std::size_t id;
  ThreadIdHolder() : id(ThreadRegistry::instance().acquire()) {}
  ~ThreadIdHolder() { ThreadRegistry::instance().release(id); }
};
}  // namespace detail

// Returns this thread's dense id in [0, kMaxThreads). First call registers.
inline std::size_t this_thread_id() noexcept {
  thread_local detail::ThreadIdHolder holder;
  return holder.id;
}

}  // namespace hcf::util
