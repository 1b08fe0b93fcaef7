// lint:zone(core)
// The sanctioned '// plain:' spellings: on the call's line, in the comment
// block directly above the call, or above the first line of a statement
// that wraps onto the call. Strong TxCell mutations need no marker.
#pragma once

#include <cstdint>

#include "sim_htm/txcell.hpp"

inline hcf::htm::TxCell<std::uint32_t> status{0};

inline void same_line_marker() {
  status.store_plain(1);  // plain: the owner is not in a transaction yet
}

inline void block_above_marker() {
  // plain: only the owner reads this word transactionally, and the owner
  // is the caller, outside any transaction.
  status.store_plain(2);
}

inline std::uint32_t wrapped_statement_marker() {
  // plain: the reader was doomed by an earlier strong store.
  const std::uint32_t old =
      status.exchange_plain(3);
  return old;
}

inline void strong_stores_need_no_marker() {
  status.store(4);
  (void)status.cas(4, 5);
}
