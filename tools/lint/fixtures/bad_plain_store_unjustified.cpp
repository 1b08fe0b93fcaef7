// lint:zone(core)
// Known-bad: plain (non-dooming) TxCell mutations in an engine with no
// '// plain:' justification. A plain store leaves the word's orec alone,
// so a transaction that read the word keeps running on the stale value;
// each site must say why no live transaction can have it in its read set.
#include <cstdint>

#include "sim_htm/txcell.hpp"

hcf::htm::TxCell<std::uint32_t> status{0};
hcf::htm::TxCell<std::uint32_t>* status_ptr = &status;

void unjustified_store() {
  status.store_plain(1);  // expect-lint: plain-store-justification
}

void unjustified_exchange() {
  // An explanatory comment without the marker does not count.
  const std::uint32_t old =
      status.exchange_plain(2);  // expect-lint: plain-store-justification
  (void)old;
}

void unjustified_arrow() {
  status_ptr->store_plain(3);  // expect-lint: plain-store-justification
}
