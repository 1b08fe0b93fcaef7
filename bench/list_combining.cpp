// Sorted-list set benchmark: the structure with the strongest asymptotic
// combining win (k combined ops = one O(n + k) traversal instead of k
// O(n) traversals). Long traversals also make capacity aborts and
// validation costs visible, complementing the short-operation structures.
#include <cstdio>

#include "bench_util.hpp"

namespace {

using namespace hcf;
using List = ds::SortedList<std::uint64_t>;

constexpr std::uint64_t kKeyRange = 512;  // list is O(n): keep it modest

struct Panel {
  const char* tag;
  int find_pct;
};
const Panel kPanels[] = {{"90f", 90}, {"20f", 20}};

harness::WorkloadSpec spec_of(const Panel& panel, std::uint32_t work) {
  auto spec = harness::WorkloadSpec::reads(panel.find_pct, kKeyRange);
  spec.cs_work = work;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  auto opts = bench::BenchOptions::parse(argc, argv);
  bench::BenchReport report(opts, "list_combining");
  bench::print_header("Sorted list", "single-traversal batch combining");

  bench::sweep(
      opts, report, kPanels, bench::kPaperRoster, opts.work_settings(),
      [](const Panel& panel, std::uint32_t work) {
        const auto spec = spec_of(panel, work);
        std::printf("\nworkload %s [%s]:\n", spec.label().c_str(),
                    bench::work_name(work));
        return spec.label();
      },
      [&](const Panel& panel, std::uint32_t work, const std::string& engine,
          std::size_t threads) {
        const auto spec = spec_of(panel, work);
        auto list = bench::make_set<List>(kKeyRange);
        return bench::run_engine(
            engine, *list, adapters::list_paper_config(), 1, threads,
            opts.driver, [&](auto& e, std::size_t t) {
              return bench::set_worker<bench::ListOps>(e, spec, 5 + t * 7);
            });
      });
  return report.finish();
}
