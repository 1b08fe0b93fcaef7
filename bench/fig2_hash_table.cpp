// Figure 2 reproduction: hash-table throughput vs. thread count for
// workloads with 100% / 80% / 40% Find (remainder split evenly between
// Insert and Remove). Key range and bucket count 16K, prefilled to half,
// matching §3.3. Engines: Lock, TLE, FC, SCM, TLE+FC, HCF.
//
// Fig 2(b) in the paper shows the 80% workload on both sockets (72
// threads); pass --extended to include the oversubscribed thread counts.
#include <cstdio>

#include "bench_util.hpp"

namespace {

using namespace hcf;

const bench::HtPanel kPanels[] = {
    {"2(a)", "100f", 100}, {"2(b)", "80f", 80}, {"2(c)", "40f", 40}};

}  // namespace

int main(int argc, char** argv) {
  auto opts = bench::BenchOptions::parse(argc, argv);
  bench::BenchReport report(opts, "fig2_hash_table");
  bench::print_header(
      "Figure 2", "hash table throughput (Mops/s), 16K keys/buckets");

  bench::sweep(
      opts, report, kPanels, bench::kPaperRoster, opts.work_settings(),
      [](const bench::HtPanel& panel, std::uint32_t work) {
        return panel.heading(work, bench::work_name(work));
      },
      [&](const bench::HtPanel& panel, std::uint32_t work,
          const std::string& engine, std::size_t threads) {
        return bench::run_ht_engine(engine, panel.spec(work), threads,
                                    opts.driver, 17, 7919);
      });
  return report.finish();
}
