// Operation descriptors for the stack, with *elimination*: a combiner that
// holds both a Push(v) and a Pop can satisfy the Pop with v directly and
// discard both operations without touching the stack at all (linearizing
// the pair adjacently — the elimination optimization FC popularized and
// the paper lists as one of the combining benefits).
//
// Leftover pushes chain into one push_n (single top write); leftover pops
// batch into one pop_n.
#pragma once

#include <algorithm>
#include <cassert>
#include <optional>
#include <span>
#include <vector>

#include "core/hcf_engine.hpp"
#include "core/operation.hpp"
#include "ds/stack.hpp"
#include "util/backoff.hpp"

namespace hcf::adapters {

inline constexpr std::size_t kStackMaxBatch = 16;

template <htm::detail::TxValue T>
class StackOpBase : public core::Operation<ds::Stack<T>> {
 public:
  using St = ds::Stack<T>;
  using Op = core::Operation<St>;

  enum class Kind : std::uint8_t { Push, Pop };

  explicit StackOpBase(Kind kind) : Op(/*class_id=*/0), kind_(kind) {}

  Kind kind() const noexcept { return kind_; }
  void set_work(std::uint32_t spins) noexcept { work_ = spins; }

  // Engine-side pre-sort (DESIGN.md §9.2) puts pushes before pops, so the
  // partition below degenerates to a verifying scan with no swaps.
  bool combine_keyed() const override { return true; }
  std::uint64_t combine_key() const override {
    return kind_ == Kind::Push ? 0 : 1;
  }

  std::size_t run_multi(St& ds, std::span<Op*> ops) override {
    // Partition pushes to the front.
    auto* begin = ops.data();
    auto* end = begin + ops.size();
    auto* mid = std::partition(begin, end, [](Op* o) {
      return static_cast<StackOpBase*>(o)->kind() == Kind::Push;
    });
    const auto num_push = static_cast<std::size_t>(mid - begin);
    const std::size_t k = std::min(ops.size(), kStackMaxBatch);
    const std::size_t pushes = std::min(num_push, k);
    const std::size_t pops = k - pushes;

    // Eliminate min(pushes, pops) pairs: the i-th eliminated pop returns
    // the i-th eliminated push's value; neither touches the stack.
    const std::size_t eliminated = std::min(pushes, pops);
    for (std::size_t i = 0; i < eliminated; ++i) {
      auto* push = static_cast<StackOpBase*>(ops[i]);
      auto* pop = static_cast<StackOpBase*>(ops[pushes + i]);
      pop->result_ = push->value_;
      eliminations_.fetch_add(1, std::memory_order_relaxed);
    }

    // Survivors: either extra pushes or extra pops (never both).
    if (pushes > eliminated) {
      T values[kStackMaxBatch];
      const std::size_t n = pushes - eliminated;
      for (std::size_t i = 0; i < n; ++i) {
        values[i] = static_cast<StackOpBase*>(ops[eliminated + i])->value_;
      }
      ds.push_n(std::span<const T>(values, n));
      util::spin_for(work_);
    } else if (pops > eliminated) {
      T values[kStackMaxBatch];
      const std::size_t n = pops - eliminated;
      const std::size_t got = ds.pop_n(std::span<T>(values, n));
      for (std::size_t i = 0; i < n; ++i) {
        auto* pop =
            static_cast<StackOpBase*>(ops[pushes + eliminated + i]);
        pop->result_ = i < got ? std::optional<T>(values[i]) : std::nullopt;
      }
      util::spin_for(work_);
    }
    return k;
  }

  // Global elimination counter (across all descriptors of this type would
  // be nicer per-engine; a static keeps the adapter self-contained).
  static std::uint64_t eliminations() noexcept {
    return eliminations_.load(std::memory_order_relaxed);
  }
  static void reset_eliminations() noexcept { eliminations_ = 0; }

 protected:
  Kind kind_;
  T value_{};
  std::uint32_t work_ = 0;
  std::optional<T> result_;
  static inline std::atomic<std::uint64_t> eliminations_{0};
};

template <htm::detail::TxValue T>
class StackPushOp final : public StackOpBase<T> {
 public:
  using Base = StackOpBase<T>;
  StackPushOp() : Base(Base::Kind::Push) {}

  void set(T value) noexcept { this->value_ = value; }

  void run_seq(typename Base::St& ds) override {
    ds.push(this->value_);
    util::spin_for(this->work_);
  }
};

template <htm::detail::TxValue T>
class StackPopOp final : public StackOpBase<T> {
 public:
  using Base = StackOpBase<T>;
  StackPopOp() : Base(Base::Kind::Pop) {}

  void run_seq(typename Base::St& ds) override {
    this->result_ = ds.pop();
    util::spin_for(this->work_);
  }

  const std::optional<T>& result() const noexcept { return this->result_; }
};

// Stack operations all conflict; announce immediately and combine, as the
// paper prescribes for always-conflicting classes.
inline std::vector<core::ClassConfig> stack_paper_config() {
  return {core::ClassConfig{0, core::PhasePolicy::combine_first()}};
}

}  // namespace hcf::adapters
