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
#include <memory>

#include "bench_util.hpp"
#include "harness/issuers.hpp"
#include "util/table.hpp"

namespace {

using namespace hcf;
using Table = ds::HashTable<std::uint64_t, std::uint64_t>;

constexpr std::uint64_t kKeyRange = 16 * 1024;

}  // namespace

int main(int argc, char** argv) {
  auto opts = bench::BenchOptions::parse(argc, argv);
  bench::BenchReport report(opts, "fig4_combining_stats");
  bench::print_header(
      "Figure 4",
      "lock acquisitions, combining degree, cache-traffic proxy (HT, 40% Find)");

  // One workload: the 40%-Find hash table, as in the paper.
  opts.require_workload({"40f"});
  harness::DriverOptions with_latency = opts.driver;
  with_latency.measure_latency = true;
  const bench::HcfClasses paper_hcf{adapters::ht_paper_config(),
                                    adapters::kHtNumArrays};
  for (const std::uint32_t work : opts.work_settings()) {
    auto spec = harness::WorkloadSpec::reads(40, kKeyRange);
    spec.cs_work = work;
    std::printf("\n=== %s ===\n", work == 0 ? "paper parameters"
                                              : "contention-amplified");
    for (const std::string& name : bench::kPaperRoster) {
      std::printf("\n%s:\n", name.c_str());
      util::TextTable table({"threads", "mops", "locks/kop", "combine-degree",
                             "aborts/op", "shared-acc/op", "p50us", "p99us"});
      for (std::size_t threads : opts.threads) {
        auto ds = std::make_unique<Table>(spec.key_range);
        for (std::uint64_t k = 0; k < spec.prefill; ++k) {
          ds->insert(k * 2 % spec.key_range, (k * 2 % spec.key_range) * 2 + 1);
        }
        const auto result =
            bench::run_engine(name, *ds, paper_hcf, [&](auto& e) {
              return harness::run_timed(
                  e, threads,
                  [&](std::size_t t) {
                    return harness::HtWorker(e, spec, 53 + t * 13);
                  },
                  with_latency);
            });
        report.add(spec.label(), name, threads, work, result);
        table.add_row(
            {std::to_string(threads),
             util::TextTable::num(result.throughput_mops()),
             util::TextTable::num(result.lock_rate_per_kop()),
             util::TextTable::num(result.engine.combining_degree()),
             util::TextTable::num(result.aborts_per_op()),
             util::TextTable::num(result.shared_accesses_per_op()),
             util::TextTable::num(
                 static_cast<double>(result.latency_p50_ns) / 1000.0),
             util::TextTable::num(
                 static_cast<double>(result.latency_p99_ns) / 1000.0)});
      }
      table.print(std::cout);
    }
  }
  return report.finish();
}
