// Figure 9 (beyond the paper): batched cross-thread reclamation.
//
// The paper's combining engines make one thread free nodes another thread
// allocated — every combined Remove is a cross-thread retirement. This
// figure measures what the pooled allocator (mem/pool.hpp, DESIGN.md §14)
// buys over the seed EBR path on exactly that pattern, in two panels:
//
//   (a) retire-throughput micro: pairs of threads exchange freshly
//       allocated nodes through SPSC rings and retire their partner's —
//       every retire is foreign, the combiner-retires pattern distilled.
//       Variants: legacy (raw new + EbrDomain deleter batches) vs pooled
//       (mem::alloc / mem::retire), each in local and cross-thread flavor.
//       The acceptance bar for this PR is pooled-remote >= 2x legacy-remote.
//
//   (b) node-heavy engine workloads: sorted-list and AVL sets under a
//       0%-find mix (every op allocates or retires a node), on the sharded
//       meta-engine at 1 and 8 shards. Sharding multiplies independent
//       combiners, so more retires land on foreign pools; the reclamation
//       JSON object (--json) records how much traffic stayed local vs
//       crossed, and with what batching.
#include <atomic>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "mem/alloc.hpp"
#include "util/rng.hpp"

namespace {

using namespace hcf;

// ---- Panel (a): retire-throughput micro ------------------------------------

// ~40 B payload: class-0 pooled block, trivially destructible — eligible
// for the pre-grace remote-retire path when freed by a non-owner.
struct MicroNode {
  std::uint64_t payload[5];
};
static_assert(std::is_trivially_destructible_v<MicroNode>);

// Single-producer single-consumer handoff ring (null = empty slot). The
// partner thread allocates into it; we retire out of it. Bounded so a
// descheduled consumer exerts back-pressure instead of unbounded growth.
// The capacity must cover a whole scheduling quantum of ops on an
// oversubscribed host: with a small ring, a thread drains its ring and
// fills its partner's within the first sliver of its quantum and then
// self-retires for the rest — quietly turning the cross-thread panel into
// a second copy of the local one.
class HandoffRing {
 public:
  static constexpr std::size_t kCap = 1u << 16;

  bool push(void* p) noexcept {
    auto& slot = slots_[head_ & (kCap - 1)];
    if (slot.load(std::memory_order_acquire) != nullptr) return false;
    slot.store(p, std::memory_order_release);
    ++head_;
    return true;
  }

  void* pop() noexcept {
    auto& slot = slots_[tail_ & (kCap - 1)];
    void* p = slot.load(std::memory_order_acquire);
    if (p == nullptr) return nullptr;
    slot.store(nullptr, std::memory_order_release);
    ++tail_;
    return p;
  }

 private:
  std::atomic<void*> slots_[kCap] = {};
  alignas(64) std::size_t head_ = 0;  // producer-side only
  alignas(64) std::size_t tail_ = 0;  // consumer-side only
};

// run_timed only needs stats plumbing from its "engine"; the micro has no
// engine, so give it an inert one and let the driver's reclamation
// snapshot do the measuring.
struct MicroEngine {
  core::EngineStatsSnapshot stats_snapshot() const { return {}; }
  std::uint64_t lock_acquisitions() const { return 0; }
};

enum class Alloc : std::uint8_t { Legacy, Pooled };
enum class Flow : std::uint8_t { Local, Remote };

// A column of either panel: panel (a) varies the allocator and the node
// flow, panel (b) the shard count.
struct Variant {
  std::string name;
  Alloc alloc = Alloc::Pooled;
  Flow flow = Flow::Local;
  std::size_t shards = 1;
};

void* micro_alloc(Alloc a) {
  if (a == Alloc::Legacy) return new MicroNode{};
  return mem::alloc<MicroNode>();
}

void micro_retire(Alloc a, void* p) {
  auto* n = static_cast<MicroNode*>(p);
  if (a == Alloc::Legacy) {
    mem::EbrDomain::instance().retire(n);  // deleter runs `delete`
  } else {
    mem::retire(n);  // foreign + trivially destructible -> remote path
  }
}

// One micro worker op: retire one node our partner allocated (when one is
// waiting), then allocate one and hand it over. If the partner's ring is
// full — or there is no partner (odd thread counts, Flow::Local) — retire
// our own node instead, so allocation and retirement stay balanced and
// memory stays bounded regardless of scheduling.
harness::RunResult run_micro(const Variant& variant,
                             const harness::WorkloadSpec&, std::size_t threads,
                             const harness::DriverOptions& options) {
  const Alloc alloc_kind = variant.alloc;
  const Flow flow = variant.flow;
  std::vector<std::unique_ptr<HandoffRing>> rings;
  for (std::size_t t = 0; t < threads; ++t) {
    rings.push_back(std::make_unique<HandoffRing>());
  }
  MicroEngine engine;
  auto result = harness::run_timed(
      engine, threads,
      [&](std::size_t t) {
        const std::size_t partner = t ^ 1;
        const bool paired = flow == Flow::Remote && partner < threads;
        HandoffRing* in = rings[t].get();
        HandoffRing* out = paired ? rings[partner].get() : nullptr;
        return [alloc_kind, in, out] {
          if (out != nullptr) {
            if (void* p = in->pop()) micro_retire(alloc_kind, p);
            void* mine = micro_alloc(alloc_kind);
            if (!out->push(mine)) micro_retire(alloc_kind, mine);
          } else {
            micro_retire(alloc_kind, micro_alloc(alloc_kind));
          }
        };
      },
      options);
  // Workers stop with nodes still in flight; retire the leftovers (foreign
  // to this thread — the remote path again) and converge.
  for (auto& ring : rings) {
    while (void* p = ring->pop()) micro_retire(alloc_kind, p);
  }
  mem::flush_remote_frees();
  return result;
}

// ---- Panel (b): node-heavy engine workloads --------------------------------

using List = ds::SortedList<std::uint64_t>;
using Tree = ds::AvlTree<std::uint64_t>;

constexpr std::uint64_t kListKeyRange = 512;  // list is O(n): keep it modest
constexpr std::uint64_t kAvlKeyRange = 4096;

// Sharded HCF over `variant.shards` prefilled DS shards with the class
// table classes().
template <typename DS, typename Ops, auto classes>
harness::RunResult run_node_heavy(const Variant& variant,
                                  const harness::WorkloadSpec& spec,
                                  std::size_t threads,
                                  const harness::DriverOptions& options) {
  using Sharded = core::ShardedEngine<core::HcfEngine<DS>>;
  const std::size_t shards = variant.shards;
  std::vector<std::unique_ptr<DS>> owned;
  std::vector<DS*> ptrs;
  for (std::size_t s = 0; s < shards; ++s) {
    owned.push_back(std::make_unique<DS>());
    ptrs.push_back(owned.back().get());
  }
  bench::prefill_set(spec.key_range, [&](std::uint64_t key) {
    ptrs[Sharded::route(util::mix64(key), shards)]->insert(key);
  });
  Sharded engine(std::span<DS* const>(ptrs), classes());
  return harness::run_timed(
      engine, threads,
      [&](std::size_t t) {
        return bench::set_worker<Ops>(engine, spec, 23 + t * 7919, true);
      },
      options);
}

// ---- The two panels ---------------------------------------------------------

struct Panel {
  const char* tag;          // also the JSON workload key
  std::uint64_t key_range;  // 0: the retire micro, which has no keys
  harness::RunResult (*run)(const Variant&, const harness::WorkloadSpec&,
                            std::size_t, const harness::DriverOptions&);
  std::vector<Variant> variants;
};
const Panel kPanels[] = {
    {"retire-micro",
     0,
     run_micro,
     {{"legacy-local", Alloc::Legacy, Flow::Local},
      {"legacy-remote", Alloc::Legacy, Flow::Remote},
      {"pooled-local", Alloc::Pooled, Flow::Local},
      {"pooled-remote", Alloc::Pooled, Flow::Remote}}},
    {"list",
     kListKeyRange,
     run_node_heavy<List, bench::ListOps, adapters::list_paper_config>,
     {{"list-s1", {}, {}, 1}, {"list-s8", {}, {}, 8}}},
    {"avl",
     kAvlKeyRange,
     run_node_heavy<Tree, bench::AvlOps, adapters::avl_paper_config>,
     {{"avl-s1", {}, {}, 1}, {"avl-s8", {}, {}, 8}}},
};

constexpr std::size_t kLegacyRemote = 1, kPooledRemote = 3;  // micro variants

bool is_micro(const Panel& panel) { return panel.key_range == 0; }

harness::WorkloadSpec spec_of(const Panel& panel, std::uint32_t work) {
  auto spec = harness::WorkloadSpec::reads(0, panel.key_range);
  spec.cs_work = work;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  auto opts = bench::BenchOptions::parse(argc, argv);
  bench::BenchReport report(opts, "fig9_reclaim");
  bench::print_header(
      "Figure 9", "batched cross-thread reclamation (Mops/s)");

  bench::Layout layout;
  layout.footer = [](const bench::Grid& grid) {
    if (grid.workload != kPanels[0].tag) return;
    const double legacy =
        grid.cells.back()[kLegacyRemote].result.throughput_mops();
    const double pooled =
        grid.cells.back()[kPooledRemote].result.throughput_mops();
    if (legacy > 0.0) {
      std::printf(
          "pooled vs legacy cross-thread retire gain at %zu threads: %.2fx\n",
          grid.threads.back(), pooled / legacy);
    }
  };
  bench::sweep(
      opts, report, kPanels,
      [](const Panel& panel) -> const std::vector<Variant>& {
        return panel.variants;
      },
      [&](const Panel& panel) {
        // The micro has no critical section to widen.
        return std::vector<std::uint32_t>{
            !is_micro(panel) && opts.cs_work > 0
                ? static_cast<std::uint32_t>(opts.cs_work)
                : 0};
      },
      [](const Panel& panel, std::uint32_t work) {
        if (is_micro(panel)) {
          std::printf("\nFig 9a: retire micro — alloc+retire round trips, "
                      "partner pairs exchange nodes\n");
        } else {
          std::printf("\nFig 9b: %s set, %s (key range %llu) — node churn "
                      "across shards\n",
                      panel.tag, spec_of(panel, work).label().c_str(),
                      static_cast<unsigned long long>(panel.key_range));
        }
        return std::string(panel.tag);
      },
      [&](const Panel& panel, std::uint32_t work, const Variant& variant,
          std::size_t threads) {
        return panel.run(variant, spec_of(panel, work), threads, opts.driver);
      },
      layout);
  return report.finish();
}
