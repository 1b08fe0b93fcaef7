// Ablation of the HCF design choices the paper calls out (§2.4, §3.4):
//
//   HCF            — paper configuration (same-subtree selection, sorted
//                    combine + eliminate run_multi)
//   HCF-nocomb     — selection kept, but ops applied one-by-one (no
//                    combining/elimination), the §3.4 ablation
//   HCF-help-all   — one array, should_help always true (no subtree
//                    filtering)
//   HCF-1C         — specialized single-combiner variant (selection lock
//                    held for the whole combining phase)
//
// Workload: the Fig. 5(a) setting (AVL, 0% Find, Zipf 0.9) where combining
// matters most.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "harness/issuers.hpp"

namespace {

using namespace hcf;
using Tree = ds::AvlTree<std::uint64_t>;
using K = std::uint64_t;

constexpr std::uint64_t kKeyRange = 1024;

// Variant ops: help-all (ignore the subtree hint).
template <typename Base>
class HelpAllOp final : public Base {
 public:
  using Base::Base;
  bool should_help(const core::Operation<Tree>&) const override {
    return true;
  }
};

// Runs `Engine` over the prefilled tree with AvlWorkers issuing `Ops`
// (default: the paper's AVL ops), seeded seed + t.
template <typename Engine, typename... Ops>
harness::RunResult run_avl(const harness::WorkloadSpec& spec,
                           std::size_t threads,
                           const harness::DriverOptions& options,
                           std::uint64_t seed) {
  auto tree = bench::make_set<Tree>(kKeyRange);
  Engine e(*tree, adapters::avl_paper_config(), 1);
  return harness::run_timed(
      e, threads,
      [&](std::size_t t) {
        return harness::AvlWorker<Engine, Ops...>(e, spec, seed + t);
      },
      options);
}

using Hcf = core::HcfEngine<Tree>;
using NoCombine = adapters::AvlNoCombine<K>;

const bench::Workload kPanels[] = {{"0f"}};

struct Variant {
  std::string name;
  harness::RunResult (*run)(const harness::WorkloadSpec&, std::size_t,
                            const harness::DriverOptions&, std::uint64_t);
  std::uint64_t seed;
};
const std::vector<Variant> kVariants{
    {"HCF", run_avl<Hcf>, 11},
    {"HCF-nocomb",
     run_avl<Hcf, NoCombine::Contains, NoCombine::Insert, NoCombine::Remove>,
     23},
    {"HCF-help-all",
     run_avl<Hcf, HelpAllOp<adapters::AvlContainsOp<K>>,
             HelpAllOp<adapters::AvlInsertOp<K>>,
             HelpAllOp<adapters::AvlRemoveOp<K>>>,
     37},
    {"HCF-1C", run_avl<core::HcfSingleCombinerEngine<Tree>>, 41},
};

harness::WorkloadSpec spec_of(std::uint32_t work) {
  auto spec = harness::WorkloadSpec::reads(0, kKeyRange,
                                           harness::KeyDist::Zipfian, 0.9);
  spec.cs_work = work;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  auto opts = bench::BenchOptions::parse(argc, argv);
  bench::BenchReport report(opts, "ablation_hcf_variants");
  bench::print_header("Ablation: HCF variants",
                      "AVL set, 0% Find, Zipf 0.9 (Mops/s)");

  bench::sweep(
      opts, report, kPanels, kVariants, opts.one_work(opts.amplified_work),
      [](const auto&, std::uint32_t work) {
        std::printf("(cs_work=%u; variant effects need contention)\n", work);
        return spec_of(work).label();
      },
      [&](const auto&, std::uint32_t work, const Variant& variant,
          std::size_t threads) {
        return variant.run(spec_of(work), threads, opts.driver, variant.seed);
      });
  return report.finish();
}
