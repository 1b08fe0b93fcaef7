// Ablation of the per-phase HTM trial budget. The paper fixes
// (TryPrivate, TryVisible, TryCombining) = (2, 3, 5) out of a total budget
// of 10 for all experiments; this bench sweeps alternative splits of the
// same total budget — plus the TLE and FC degenerations — on the 40%-Find
// hash-table workload, to show how the split trades speculation against
// combining.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace {

using namespace hcf;

const bench::HtPanel kPanels[] = {{"ablation", "40f", 40}};

// A variant is the Insert class's policy; Find/Remove stay TLE-like as in
// the paper.
struct Variant {
  std::string name;
  core::PhasePolicy policy;
};
const std::vector<Variant> kVariants{
    {"(2,3,5) paper", core::PhasePolicy{2, 3, 5, true}},
    {"(10,0,0)+announce", core::PhasePolicy{10, 0, 0, true}},
    {"(0,0,10)", core::PhasePolicy{0, 0, 10, true}},
    {"(5,5,0)", core::PhasePolicy{5, 5, 0, true}},
    {"(3,3,4)", core::PhasePolicy{3, 3, 4, true}},
    {"TLE-like", core::PhasePolicy::tle_like()},
    {"FC-like", core::PhasePolicy::fc_like()},
};

}  // namespace

int main(int argc, char** argv) {
  auto opts = bench::BenchOptions::parse(argc, argv);
  bench::BenchReport report(opts, "ablation_trials");
  bench::print_header(
      "Ablation: phase trial budgets",
      "HT 40% Find; Insert-class (private,visible,combining) splits");

  bench::sweep(
      opts, report, kPanels, kVariants, opts.one_work(opts.amplified_work),
      [](const bench::HtPanel& panel, std::uint32_t work) {
        std::printf("(cs_work=%u; trial-budget effects need contention)\n",
                    work);
        return panel.spec(work).label();
      },
      [&](const bench::HtPanel& panel, std::uint32_t work,
          const Variant& variant, std::size_t threads) {
        const auto spec = panel.spec(work);
        auto table = bench::make_hash_table(spec);
        core::HcfEngine<bench::HashTable> engine(
            *table,
            {{0, core::PhasePolicy::tle_like()}, {1, variant.policy}}, 2);
        return bench::run_ht(engine, spec, threads, opts.driver, 67, 29);
      });
  return report.finish();
}
