// Operation descriptors for the deque (paper §2.4's two-ends example).
//
// Left-end operations (class 0, array 0) and right-end operations
// (class 1, array 1) get separate publication arrays with separate
// combiners — "appealing when it is known a-priori which operations are
// expected to conflict with each other, e.g., operations on different ends
// of a double-ended queue". This pairing is also the natural fit for the
// single-combiner engine variant.
//
// run_multi batches a maximal same-kind prefix: consecutive pushes splice
// one chain (push_n_*), consecutive pops unlink one segment (pop_n_*).
#pragma once

#include <algorithm>
#include <cassert>
#include <optional>
#include <span>
#include <vector>

#include "core/hcf_engine.hpp"
#include "core/operation.hpp"
#include "ds/deque.hpp"

namespace hcf::adapters {

inline constexpr int kDequeLeftClass = 0;
inline constexpr int kDequeRightClass = 1;
inline constexpr std::size_t kDequeMaxBatch = 16;

template <htm::detail::TxValue T>
class DequeOpBase : public core::Operation<ds::Deque<T>> {
 public:
  using Dq = ds::Deque<T>;
  using Op = core::Operation<Dq>;

  enum class Kind : std::uint8_t { PushLeft, PopLeft, PushRight, PopRight };

  DequeOpBase(Kind kind, int class_id) : Op(class_id), kind_(kind) {}

  Kind kind() const noexcept { return kind_; }

  std::size_t run_multi(Dq& ds, std::span<Op*> ops) override {
    // Group same-kind ops to the front, then batch the prefix.
    const Kind lead = static_cast<DequeOpBase*>(ops[0])->kind();
    auto* begin = ops.data();
    auto* end = begin + ops.size();
    std::partition(begin, end, [lead](Op* o) {
      return static_cast<DequeOpBase*>(o)->kind() == lead;
    });
    std::size_t k = 0;
    while (k < ops.size() && k < kDequeMaxBatch &&
           static_cast<DequeOpBase*>(ops[k])->kind() == lead) {
      ++k;
    }
    assert(k >= 1);

    switch (lead) {
      case Kind::PushLeft:
      case Kind::PushRight: {
        T values[kDequeMaxBatch];
        for (std::size_t i = 0; i < k; ++i) {
          values[i] = static_cast<DequeOpBase*>(ops[i])->value_;
        }
        if (lead == Kind::PushLeft) {
          ds.push_n_left(std::span<const T>(values, k));
        } else {
          ds.push_n_right(std::span<const T>(values, k));
        }
        break;
      }
      case Kind::PopLeft:
      case Kind::PopRight: {
        T values[kDequeMaxBatch];
        const std::size_t got =
            lead == Kind::PopLeft
                ? ds.pop_n_left(std::span<T>(values, k))
                : ds.pop_n_right(std::span<T>(values, k));
        for (std::size_t i = 0; i < k; ++i) {
          auto* op = static_cast<DequeOpBase*>(ops[i]);
          op->result_ = i < got ? std::optional<T>(values[i]) : std::nullopt;
        }
        break;
      }
    }
    return k;
  }

 protected:
  Kind kind_;
  T value_{};
  std::optional<T> result_;
};

template <htm::detail::TxValue T>
class PushLeftOp final : public DequeOpBase<T> {
 public:
  using Base = DequeOpBase<T>;
  PushLeftOp() : Base(Base::Kind::PushLeft, kDequeLeftClass) {}
  void set(T value) noexcept { this->value_ = value; }
  void run_seq(typename Base::Dq& ds) override { ds.push_left(this->value_); }
};

template <htm::detail::TxValue T>
class PopLeftOp final : public DequeOpBase<T> {
 public:
  using Base = DequeOpBase<T>;
  PopLeftOp() : Base(Base::Kind::PopLeft, kDequeLeftClass) {}
  void run_seq(typename Base::Dq& ds) override {
    this->result_ = ds.pop_left();
  }
  const std::optional<T>& result() const noexcept { return this->result_; }
};

template <htm::detail::TxValue T>
class PushRightOp final : public DequeOpBase<T> {
 public:
  using Base = DequeOpBase<T>;
  PushRightOp() : Base(Base::Kind::PushRight, kDequeRightClass) {}
  void set(T value) noexcept { this->value_ = value; }
  void run_seq(typename Base::Dq& ds) override {
    ds.push_right(this->value_);
  }
};

template <htm::detail::TxValue T>
class PopRightOp final : public DequeOpBase<T> {
 public:
  using Base = DequeOpBase<T>;
  PopRightOp() : Base(Base::Kind::PopRight, kDequeRightClass) {}
  void run_seq(typename Base::Dq& ds) override {
    this->result_ = ds.pop_right();
  }
  const std::optional<T>& result() const noexcept { return this->result_; }
};

// Per-end publication arrays, both with the default four-phase policy.
inline std::vector<core::ClassConfig> deque_paper_config() {
  return {
      core::ClassConfig{0, core::PhasePolicy::paper_default()},
      core::ClassConfig{1, core::PhasePolicy::paper_default()},
  };
}

inline constexpr std::size_t kDequeNumArrays = 2;

}  // namespace hcf::adapters
