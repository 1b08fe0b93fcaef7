// Lightweight per-thread event counters. A Counter owns one cache line per
// thread slot; increments are plain (relaxed) stores to the caller's own
// slot, and reads aggregate across slots. Used for all simulator and engine
// statistics so that instrumentation does not perturb the contention being
// measured.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>

#include "util/cacheline.hpp"
#include "util/thread_id.hpp"

namespace hcf::util {

class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t delta = 1) noexcept {
    auto& slot = slots_[this_thread_id()].value;
    slot.store(slot.load(std::memory_order_relaxed) + delta,
               std::memory_order_relaxed);
  }

  std::uint64_t total() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& s : slots_) sum += s.value.load(std::memory_order_relaxed);
    return sum;
  }

  void reset() noexcept {
    for (auto& s : slots_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<CacheAligned<std::atomic<std::uint64_t>>, kMaxThreads> slots_{};
};

// ---- Counter tables -------------------------------------------------------
// Each layer names its counters once, in an X-macro table of rows
// X(Shape, member, "group", "key"). Shape is Scalar, Shape<N, M...> for
// std::array<std::array<T, M>, N>, or a layer struct with an `of<T>` alias
// and JSON `labels` (htm::PerAbortCode); group and key place the counter in
// the hcf-bench-v1 row (harness/report.hpp). HCF_COUNTER_TABLE builds the
// table's visitor, HCF_COUNTER_MEMBER / HCF_COUNTER_VALUE the live and
// snapshot members, and LiveCounters / CounterValues derive reset, capture,
// delta_since and +=. Adding a counter is one row plus its add() call site.

template <std::size_t... Dims>
struct Shape {
  template <typename T>
  using of = T;
};
template <std::size_t N, std::size_t... More>
struct Shape<N, More...> {
  template <typename T>
  using of = std::array<typename Shape<More...>::template of<T>, N>;
};
using Scalar = Shape<>;

// A labelled shape writes element `index` as `"name": value`, in label order.
struct Label {
  std::size_t index;
  const char* name;
};

// Calls f on the corresponding elements of same-shaped fields.
template <typename F, typename A, typename... B>
void for_each_leaf(F&& f, A& a, B&... b) {
  if constexpr (requires { std::size(a); }) {
    for (std::size_t i = 0; i < std::size(a); ++i) {
      for_each_leaf(f, a[i], b[i]...);
    }
  } else {
    f(a, b...);
  }
}

// Name::visit(f, s...) calls f(shape, group, key, s.member...) for each row
// in order, on any structs that declare the table's members.
#define HCF_COUNTER_VISIT(Shape, member, group, key) \
  f(Shape{}, group, key, s.member...);
#define HCF_COUNTER_TABLE(Name, TABLE)                                   \
  struct Name {                                                          \
    template <typename F, typename... S>                                 \
    static void visit(F&& f, S&... s) { TABLE(HCF_COUNTER_VISIT) }       \
  }
#define HCF_COUNTER_MEMBER(Shape, member, group, key) \
  Shape::of<::hcf::util::Counter> member;
#define HCF_COUNTER_VALUE(Shape, member, group, key) \
  Shape::of<std::uint64_t> member{};

// Calls f on the corresponding counter elements of every row of Table in
// the structs s... (live counters or snapshot values).
template <typename Table, typename F, typename... S>
void for_each_counter(F f, S&... s) {
  Table::visit(
      [&](auto, const char*, const char*, auto&... field) {
        for_each_leaf(f, field...);
      },
      s...);
}

// Base of a live counter set: reset() clears every counter in the table.
template <typename Live, typename Table>
struct LiveCounters {
  void reset() noexcept {
    for_each_counter<Table>([](Counter& c) { c.reset(); },
                            static_cast<Live&>(*this));
  }
};

// Base of a plain-value snapshot of a counter set.
template <typename Snap, typename Table>
struct CounterValues {
  // Calls f(shape, group, key, value) for each table row in order.
  template <typename F>
  void for_each(F&& f) const {
    Table::visit(f, self());
  }

  Snap delta_since(const Snap& base) const noexcept {
    Snap d;
    for_each_counter<Table>(
        [](std::uint64_t& out, std::uint64_t now, std::uint64_t then) {
          out = now - then;
        },
        d, self(), base);
    return d;
  }

  // Sums another snapshot into this one (e.g. across engine shards).
  Snap& operator+=(const Snap& other) noexcept {
    auto& me = static_cast<Snap&>(*this);
    for_each_counter<Table>(
        [](std::uint64_t& into, std::uint64_t v) { into += v; }, me, other);
    return me;
  }

 protected:
  template <typename Live>
  static Snap capture_from(const Live& live) noexcept {
    Snap snap;
    for_each_counter<Table>(
        [](std::uint64_t& out, const Counter& c) { out = c.total(); }, snap,
        live);
    return snap;
  }

 private:
  const Snap& self() const noexcept { return static_cast<const Snap&>(*this); }
};

}  // namespace hcf::util
