// Figure 5 reproduction: AVL-tree set under a skewed workload. Keys in
// [0..1023], prefilled to half, Zipfian key selection with theta = 0.9;
// panels with 0% / 40% / 80% Find. Engines: Lock, TLE, FC, SCM, TLE+FC,
// HCF (FC/TLE+FC/HCF share the same sorted combine+eliminate run_multi,
// as in §3.4).
#include <cstdio>

#include "bench_util.hpp"
#include "harness/issuers.hpp"

namespace {

using namespace hcf;
using Tree = ds::AvlTree<std::uint64_t>;

constexpr std::uint64_t kKeyRange = 1024;
constexpr double kTheta = 0.9;

struct Panel {
  const char* id;
  const char* tag;
  int find_pct;
};
const Panel kPanels[] = {
    {"5(a)", "0f", 0}, {"5(b)", "40f", 40}, {"5(c)", "80f", 80}};

harness::WorkloadSpec spec_of(const Panel& panel, std::uint32_t work) {
  auto spec = harness::WorkloadSpec::reads(panel.find_pct, kKeyRange,
                                           harness::KeyDist::Zipfian, kTheta);
  spec.cs_work = work;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  auto opts = bench::BenchOptions::parse(argc, argv);
  bench::BenchReport report(opts, "fig5_avl_tree");
  bench::print_header(
      "Figure 5",
      "AVL set throughput (Mops/s), keys [0..1023], Zipf theta=0.9");

  bench::sweep(
      opts, report, kPanels, bench::kPaperRoster, opts.work_settings(),
      [](const Panel& panel, std::uint32_t work) {
        const auto spec = spec_of(panel, work);
        std::printf("\nFig %s: workload %s [%s]\n", panel.id,
                    spec.label().c_str(), bench::work_name(work));
        return spec.label();
      },
      [&](const Panel& panel, std::uint32_t work, const std::string& engine,
          std::size_t threads) {
        const auto spec = spec_of(panel, work);
        auto tree = bench::make_set<Tree>(kKeyRange);
        return bench::run_engine(
            engine, *tree, adapters::avl_paper_config(), 1, threads,
            opts.driver, [&](auto& e, std::size_t t) {
              return harness::AvlWorker(e, spec, 71 + t * 31);
            });
      });
  return report.finish();
}
