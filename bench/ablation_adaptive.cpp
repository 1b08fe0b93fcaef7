// Adaptive-policy ablation (the paper's §2.4 future work, implemented in
// core/adaptive_hcf.hpp): compare fixed policies against the adaptive
// controller on workloads at both ends of the contention spectrum plus the
// in-between case. The adaptive engine should track the better fixed
// policy in each regime without per-workload hand-tuning.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "harness/issuers.hpp"

namespace {

using namespace hcf;
using Tree = ds::AvlTree<std::uint64_t>;
using Adaptive = core::AdaptiveHcfEngine<Tree>;

struct Panel {
  const char* tag;
  const char* name;
  harness::WorkloadSpec spec;
  bool amplified;  // runs at the contention-amplified cs_work
};
const Panel kPanels[] = {
    {"90f", "read-heavy uniform (low contention)",
     harness::WorkloadSpec::reads(90, 64 * 1024), false},
    {"0f", "update-heavy zipf (high contention)",
     harness::WorkloadSpec::reads(0, 512, harness::KeyDist::Zipfian, 0.95),
     true},
    {"50f", "mixed zipf",
     harness::WorkloadSpec::reads(50, 4096, harness::KeyDist::Zipfian, 0.9),
     true},
};

struct Variant {
  std::string name;
  std::vector<core::ClassConfig> classes;
  bool adaptive;  // AdaptiveHcfEngine instead of a fixed HcfEngine
};
const std::vector<Variant> kVariants{
    {"HCF(2,3,5)", adapters::avl_paper_config(), false},
    {"HCF-TLE-like", {{0, core::PhasePolicy{8, 1, 1, true}}}, false},
    {"HCF-combine-first", {{0, core::PhasePolicy::combine_first()}}, false},
    {"HCF-adaptive", adapters::avl_paper_config(), true},
};

harness::WorkloadSpec spec_of(const Panel& panel, std::uint32_t work) {
  auto spec = panel.spec;
  spec.cs_work = work;
  return spec;
}

// Indexed by Adaptive::Lean.
const char* const kLeanNames[] = {"balanced", "speculative", "combining"};

}  // namespace

int main(int argc, char** argv) {
  auto opts = bench::BenchOptions::parse(argc, argv);
  bench::BenchReport report(opts, "ablation_adaptive");
  bench::print_header(
      "Ablation: adaptive policy",
      "AVL set; fixed policies vs the adaptive controller (Mops/s)");

  const std::uint32_t amplified = opts.one_work(opts.amplified_work)[0];
  bench::Layout layout;
  layout.views.push_back({"",
                          {{"HCF(2,3,5)", 0, bench::mops},
                           {"HCF-TLE-like", 1, bench::mops},
                           {"HCF-combine-first", 2, bench::mops},
                           {"HCF-adaptive", 3, bench::mops},
                           {"lean", 3, bench::note}}});
  bench::sweep(
      opts, report, kPanels, kVariants,
      [&](const Panel& panel) {
        return std::vector<std::uint32_t>{panel.amplified ? amplified : 0};
      },
      [](const Panel& panel, std::uint32_t work) {
        const auto spec = spec_of(panel, work);
        std::printf("\n%s (%s):\n", panel.name, spec.label().c_str());
        return spec.label();
      },
      [&](const Panel& panel, std::uint32_t work, const Variant& variant,
          std::size_t threads) {
        const auto spec = spec_of(panel, work);
        auto tree = bench::make_set<Tree>(spec.key_range);
        auto run = [&](auto& e) {
          return harness::run_timed(
              e, threads,
              [&](std::size_t t) {
                return harness::AvlWorker(e, spec, 19 + t * 3);
              },
              opts.driver);
        };
        if (!variant.adaptive) {
          core::HcfEngine<Tree> e(*tree, variant.classes, 1);
          return bench::Cell{run(e)};
        }
        Adaptive e(*tree, variant.classes, 1);
        const harness::RunResult result = run(e);
        return bench::Cell{
            result, kLeanNames[static_cast<int>(e.current_lean(0))]};
      },
      layout);
  return report.finish();
}
