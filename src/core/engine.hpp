// Umbrella header + the Engine concept all synchronization engines model.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/combine_core.hpp"
#include "core/engine_stats.hpp"
#include "core/fc_engine.hpp"
#include "core/hcf_engine.hpp"
#include "core/hcf_single_combiner.hpp"
#include "core/lock_engine.hpp"
#include "core/operation.hpp"
#include "core/phase_exec.hpp"
#include "core/scm_engine.hpp"
#include "core/sharded_engine.hpp"
#include "core/tle_engine.hpp"
#include "core/tle_fc_engine.hpp"
#include "core/types.hpp"

namespace hcf::core {

template <typename E, typename DS>
concept Engine = requires(E e, Operation<DS>& op) {
  { e.execute(op) } -> std::same_as<Phase>;
  { e.stats() } -> std::same_as<EngineStats&>;
  { e.lock_acquisitions() } -> std::convertible_to<std::uint64_t>;
  e.reset_stats();
  { E::name() } -> std::convertible_to<std::string_view>;
  { e.data() } -> std::same_as<DS&>;
};

namespace detail {

template <typename DS, typename Fn, typename E, typename... Rest>
decltype(auto) visit_engine_among(std::string_view name, DS& ds,
                                  const std::vector<ClassConfig>& classes,
                                  std::size_t arrays, Fn& fn) {
  if (name == E::name()) {
    if constexpr (std::is_same_v<E, HcfEngine<DS>> ||
                  std::is_same_v<E, HcfSingleCombinerEngine<DS>>) {
      E engine(ds, classes, arrays);
      return fn(engine);
    } else {
      E engine(ds);
      return fn(engine);
    }
  }
  if constexpr (sizeof...(Rest) == 0) {
    throw std::invalid_argument("unknown engine '" + std::string(name) + "'");
  } else {
    return visit_engine_among<DS, Fn, Rest...>(name, ds, classes, arrays, fn);
  }
}

}  // namespace detail

// Builds the engine whose name() is `name` ("Lock", "TLE", "FC", "SCM",
// "TLE+FC", "HCF" or "HCF-1C") over `ds` and returns fn(engine). `classes`
// and `arrays` configure the two HCF engines; the others take their
// defaults. An unknown name throws std::invalid_argument.
template <typename DS, typename Fn>
decltype(auto) visit_engine(std::string_view name, DS& ds,
                            const std::vector<ClassConfig>& classes,
                            std::size_t arrays, Fn&& fn) {
  return detail::visit_engine_among<
      DS, Fn, LockEngine<DS>, TleEngine<DS>, FcEngine<DS>, ScmEngine<DS>,
      TleFcEngine<DS>, HcfEngine<DS>, HcfSingleCombinerEngine<DS>>(
      name, ds, classes, arrays, fn);
}

}  // namespace hcf::core
