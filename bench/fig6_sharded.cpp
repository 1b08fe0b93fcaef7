// Figure 6 (beyond the paper): sharded HCF scalability — throughput of
// ShardedEngine<HcfEngine> over the fig2 hash-table workload (40% Find,
// remainder split between Insert and Remove, 16K keys prefilled to half)
// as the shard count sweeps 1/2/4/8, against the flat single-lock HCF
// engine. Each shard owns a slice of the Fibonacci-hashed key space with
// its own elidable lock, publication arrays, and combiners, so insert
// traffic that serializes on the flat engine's single table-list head and
// selection lock spreads across independent conflict domains. The total
// bucket count is held constant (16K split across shards) so the sweep
// isolates synchronization, not table geometry.
//
// Three panels per run:
//   [paper parameters]      — the fig2 mix verbatim.
//   [contention-amplified]  — cs_work widens transaction windows
//                             (EXPERIMENTS.md, "contention amplification").
//   [preemption-amplified]  — cs_preempt yields mid-operation, modeling a
//                             loaded machine where transactions are
//                             routinely descheduled in flight. On few-core
//                             hosts this panel is the only one in which
//                             transactions overlap in time at all, so it is
//                             where the shard sweep separates: every insert
//                             writes the table-list head, so the flat
//                             engine aborts and serializes while shards
//                             split the conflict domain N ways
//                             (EXPERIMENTS.md, "preemption amplification").
#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "util/rng.hpp"

namespace {

using namespace hcf;
using Sharded = core::ShardedEngine<core::HcfEngine<bench::HashTable>>;

const bench::HtPanel kPanels[] = {{"6", "40f", 40, false},
                                  {"6", "40f", 40, true}};

struct Variant {
  std::string name;
  std::size_t shards;  // 0: the flat HCF engine
};
const std::vector<Variant> kVariants{{"HCF", 0},    {"HCF-s1", 1},
                                     {"HCF-s2", 2}, {"HCF-s4", 4},
                                     {"HCF-s8", 8}};
constexpr std::size_t kS1 = 1, kS8 = 4;  // kVariants indices

harness::RunResult run_cell(const harness::WorkloadSpec& spec,
                            const Variant& variant, std::size_t threads,
                            const harness::DriverOptions& options) {
  if (variant.shards == 0) {
    return bench::run_ht_engine("HCF", spec, threads, options, 17, 7919);
  }
  // The fig2 prefill, each key routed to the shard the engine will route
  // it to; the shards split the flat table's bucket count.
  std::vector<std::unique_ptr<bench::HashTable>> tables;
  std::vector<bench::HashTable*> ptrs;
  for (std::size_t s = 0; s < variant.shards; ++s) {
    tables.push_back(std::make_unique<bench::HashTable>(
        std::max<std::uint64_t>(spec.key_range / variant.shards, 64)));
    ptrs.push_back(tables.back().get());
  }
  bench::prefill_hash_table(spec, [&](std::uint64_t key, std::uint64_t value) {
    ptrs[Sharded::route(util::mix64(key), variant.shards)]->insert(key, value);
  });
  Sharded engine(std::span<bench::HashTable* const>(ptrs),
                 adapters::ht_paper_config(), adapters::kHtNumArrays);
  return bench::run_ht(engine, spec, threads, options, 17, 7919);
}

}  // namespace

int main(int argc, char** argv) {
  auto opts = bench::BenchOptions::parse(argc, argv);
  bench::BenchReport report(opts, "fig6_sharded");
  bench::print_header(
      "Figure 6", "sharded HCF throughput (Mops/s), 40% find, 16K keys");

  bench::Layout layout;
  layout.footer = [](const bench::Grid& grid) {
    const double s1 = grid.cells.back()[kS1].result.throughput_mops();
    const double s8 = grid.cells.back()[kS8].result.throughput_mops();
    if (s1 > 0.0) {
      std::printf("8-shard vs 1-shard gain at %zu threads: %.2fx\n",
                  grid.threads.back(), s8 / s1);
    }
  };
  bench::sweep(
      opts, report, kPanels, kVariants,
      [&](const bench::HtPanel& panel) {
        return panel.preempt ? std::vector<std::uint32_t>{0}
                             : opts.work_settings();
      },
      [](const bench::HtPanel& panel, std::uint32_t work) {
        return panel.heading(work, panel.preempt ? "preemption-amplified"
                                                 : bench::work_name(work));
      },
      [&](const bench::HtPanel& panel, std::uint32_t work,
          const Variant& variant, std::size_t threads) {
        return run_cell(panel.spec(work), variant, threads, opts.driver);
      },
      layout);
  return report.finish();
}
