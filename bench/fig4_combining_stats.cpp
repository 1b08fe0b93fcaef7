// Figure 4 reproduction (per DESIGN.md's substitution note): the paper
// reports lock-acquisition counts, combining degree, and L1-D cache-miss
// rates for the 40%-Find hash-table workload. Without PMU access we report
// the simulator's equivalents:
//
//   * lock acquisitions per 1000 ops   (same metric as the paper)
//   * combining degree                 (same metric as the paper)
//   * instrumented shared accesses/op  (cache-traffic proxy)
//   * HTM aborts per op                (explains where time is lost)
#include <cstdio>

#include "bench_util.hpp"

namespace {

using namespace hcf;

// One workload: the 40%-Find hash table, as in the paper.
const bench::HtPanel kPanels[] = {{"4", "40f", 40}};

// One table per engine, one row per thread count.
bench::Layout per_engine_tables() {
  using R = harness::RunResult;
  bench::Layout layout;
  for (std::size_t v = 0; v < bench::kPaperRoster.size(); ++v) {
    layout.views.push_back(
        {bench::kPaperRoster[v],
         {{"mops", v, bench::mops},
          {"locks/kop", v, bench::num_of(&R::lock_rate_per_kop)},
          {"combine-degree", v, bench::num_of([](const R& r) {
             return r.engine.combining_degree();
           })},
          {"aborts/op", v, bench::num_of(&R::aborts_per_op)},
          {"shared-acc/op", v, bench::num_of(&R::shared_accesses_per_op)},
          {"p50us", v, bench::usec_of(&R::latency_p50_ns)},
          {"p99us", v, bench::usec_of(&R::latency_p99_ns)}}});
  }
  return layout;
}

}  // namespace

int main(int argc, char** argv) {
  auto opts = bench::BenchOptions::parse(argc, argv);
  opts.driver.measure_latency = true;
  bench::BenchReport report(opts, "fig4_combining_stats");
  bench::print_header(
      "Figure 4",
      "lock acquisitions, combining degree, cache-traffic proxy (HT, 40% Find)");

  bench::sweep(
      opts, report, kPanels, bench::kPaperRoster, opts.work_settings(),
      [](const bench::HtPanel& panel, std::uint32_t work) {
        std::printf("\n=== %s ===\n", bench::work_name(work));
        return panel.spec(work).label();
      },
      [&](const bench::HtPanel& panel, std::uint32_t work,
          const std::string& engine, std::size_t threads) {
        return bench::run_ht_engine(engine, panel.spec(work), threads,
                                    opts.driver, 53, 13);
      },
      per_engine_tables());
  return report.finish();
}
