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
#include <vector>

#include "adapters/avl_ops.hpp"
#include "adapters/list_ops.hpp"
#include "bench_util.hpp"
#include "core/engine.hpp"
#include "harness/workload.hpp"
#include "mem/alloc.hpp"
#include "mem/ebr.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

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

const char* variant_name(Alloc a, Flow f) {
  if (a == Alloc::Legacy) {
    return f == Flow::Local ? "legacy-local" : "legacy-remote";
  }
  return f == Flow::Local ? "pooled-local" : "pooled-remote";
}

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
harness::RunResult run_micro(Alloc alloc_kind, Flow flow,
                             std::size_t threads,
                             const harness::DriverOptions& options) {
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
  mem::EbrDomain::instance().drain();
  return result;
}

// ---- Panel (b): node-heavy engine workloads --------------------------------

using List = ds::SortedList<std::uint64_t>;
using ShardedList = core::ShardedEngine<core::HcfEngine<List>>;
using Tree = ds::AvlTree<std::uint64_t>;
using ShardedAvl = core::ShardedEngine<core::HcfEngine<Tree>>;

constexpr std::uint64_t kListKeyRange = 512;  // list is O(n): keep it modest
constexpr std::uint64_t kAvlKeyRange = 4096;
constexpr std::size_t kShardCounts[] = {1, 8};

template <typename ContainsOp, typename InsertOp, typename RemoveOp,
          typename Engine>
class NodeChurnWorker {
 public:
  NodeChurnWorker(Engine& engine, const harness::WorkloadSpec& spec,
                  std::uint64_t seed)
      : engine_(engine), spec_(spec), keys_(spec, seed) {
    contains_.set_sharded(true);
    insert_.set_sharded(true);
    remove_.set_sharded(true);
    contains_.set_work(spec.cs_work);
    insert_.set_work(spec.cs_work);
    remove_.set_work(spec.cs_work);
  }

  void operator()() {
    const std::uint64_t key = keys_.next_key();
    const int p = keys_.next_percent();
    if (p < spec_.find_pct) {
      contains_.set(key);
      engine_.execute(contains_);
    } else if (p < spec_.find_pct + spec_.insert_pct) {
      insert_.set(key);
      engine_.execute(insert_);
    } else {
      remove_.set(key);
      engine_.execute(remove_);
    }
  }

 private:
  Engine& engine_;
  harness::WorkloadSpec spec_;
  harness::KeyGenerator keys_;
  ContainsOp contains_;
  InsertOp insert_;
  RemoveOp remove_;
};

template <typename DS, typename Sharded, typename Worker>
harness::RunResult run_node_heavy(std::size_t shards,
                                  const harness::WorkloadSpec& spec,
                                  std::size_t threads,
                                  const harness::DriverOptions& options,
                                  std::vector<core::ClassConfig> classes) {
  std::vector<std::unique_ptr<DS>> owned;
  std::vector<DS*> ptrs;
  for (std::size_t s = 0; s < shards; ++s) {
    owned.push_back(std::make_unique<DS>());
    ptrs.push_back(owned.back().get());
  }
  for (std::uint64_t k = 0; k < spec.key_range; k += 2) {
    ptrs[Sharded::route(util::mix64(k), shards)]->insert(k);
  }
  Sharded engine(std::span<DS* const>(ptrs), std::move(classes));
  auto result = harness::run_timed(
      engine, threads,
      [&](std::size_t t) { return Worker(engine, spec, 23 + t * 7919); },
      options);
  mem::EbrDomain::instance().drain();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  auto opts = hcf::bench::BenchOptions::parse(argc, argv);
  hcf::bench::BenchReport report(opts, "fig9_reclaim");
  hcf::bench::print_header(
      "Figure 9", "batched cross-thread reclamation (Mops/s)");

  using hcf::harness::RunResult;

  // ---- panel (a) ----
  const bool micro_wanted =
      opts.workload_filter.empty() || opts.workload_filter == "retire-micro";
  double legacy_remote_at_max = 0.0, pooled_remote_at_max = 0.0;
  if (micro_wanted) {
    std::printf("\nFig 9a: retire micro — alloc+retire round trips, "
                "partner pairs exchange nodes\n");
    hcf::util::TextTable table({"threads", "legacy-local", "legacy-remote",
                                "pooled-local", "pooled-remote"});
    for (const std::size_t threads : opts.threads) {
      std::vector<std::string> row{std::to_string(threads)};
      for (const Alloc a : {Alloc::Legacy, Alloc::Pooled}) {
        for (const Flow f : {Flow::Local, Flow::Remote}) {
          const RunResult r = run_micro(a, f, threads, opts.driver);
          report.add("retire-micro", variant_name(a, f), threads, 0, r);
          row.push_back(hcf::util::TextTable::num(r.throughput_mops()));
          if (threads == opts.threads.back() && f == Flow::Remote) {
            (a == Alloc::Legacy ? legacy_remote_at_max
                                : pooled_remote_at_max) =
                r.throughput_mops();
          }
        }
      }
      table.add_row(std::move(row));
    }
    table.print(std::cout);
    if (legacy_remote_at_max > 0.0) {
      std::printf(
          "pooled vs legacy cross-thread retire gain at %zu threads: %.2fx\n",
          opts.threads.back(), pooled_remote_at_max / legacy_remote_at_max);
    }
  }

  // ---- panel (b) ----
  auto list_spec = hcf::harness::WorkloadSpec::reads(0, kListKeyRange);
  auto avl_spec = hcf::harness::WorkloadSpec::reads(0, kAvlKeyRange);
  if (opts.cs_work > 0) {
    list_spec.cs_work = static_cast<std::uint32_t>(opts.cs_work);
    avl_spec.cs_work = static_cast<std::uint32_t>(opts.cs_work);
  }

  struct Structure {
    const char* name;
    const hcf::harness::WorkloadSpec& spec;
    RunResult (*run)(std::size_t, const hcf::harness::WorkloadSpec&,
                     std::size_t, const hcf::harness::DriverOptions&);
  };
  const Structure structures[] = {
      {"list", list_spec,
       [](std::size_t shards, const hcf::harness::WorkloadSpec& spec,
          std::size_t threads, const hcf::harness::DriverOptions& options) {
         using Worker = NodeChurnWorker<
             hcf::adapters::ListContainsOp<std::uint64_t>,
             hcf::adapters::ListInsertOp<std::uint64_t>,
             hcf::adapters::ListRemoveOp<std::uint64_t>, ShardedList>;
         return run_node_heavy<List, ShardedList, Worker>(
             shards, spec, threads, options,
             hcf::adapters::list_paper_config());
       }},
      {"avl", avl_spec,
       [](std::size_t shards, const hcf::harness::WorkloadSpec& spec,
          std::size_t threads, const hcf::harness::DriverOptions& options) {
         using Worker = NodeChurnWorker<
             hcf::adapters::AvlContainsOp<std::uint64_t>,
             hcf::adapters::AvlInsertOp<std::uint64_t>,
             hcf::adapters::AvlRemoveOp<std::uint64_t>, ShardedAvl>;
         return run_node_heavy<Tree, ShardedAvl, Worker>(
             shards, spec, threads, options,
             hcf::adapters::avl_paper_config());
       }},
  };

  for (const Structure& s : structures) {
    if (!opts.workload_filter.empty() && opts.workload_filter != s.name) {
      continue;
    }
    std::printf("\nFig 9b: %s set, %s (key range %llu) — node churn across "
                "shards\n",
                s.name, s.spec.label().c_str(),
                static_cast<unsigned long long>(s.spec.key_range));
    std::vector<std::string> header{"threads"};
    for (const std::size_t shards : kShardCounts) {
      header.push_back(std::string(s.name) + "-s" + std::to_string(shards));
    }
    hcf::util::TextTable table(header);
    for (const std::size_t threads : opts.threads) {
      std::vector<std::string> row{std::to_string(threads)};
      for (const std::size_t shards : kShardCounts) {
        const RunResult r = s.run(shards, s.spec, threads, opts.driver);
        report.add(s.name, std::string(s.name) + "-s" + std::to_string(shards),
                   threads, s.spec.cs_work, r);
        row.push_back(hcf::util::TextTable::num(r.throughput_mops()));
      }
      table.add_row(std::move(row));
    }
    table.print(std::cout);
  }
  return report.finish();
}
