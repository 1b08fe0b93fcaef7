// Figure 2 reproduction: hash-table throughput vs. thread count for
// workloads with 100% / 80% / 40% Find (remainder split evenly between
// Insert and Remove). Key range and bucket count 16K, prefilled to half,
// matching §3.3. Engines: Lock, TLE, FC, SCM, TLE+FC, HCF.
//
// Fig 2(b) in the paper shows the 80% workload on both sockets (72
// threads); pass --extended to include the oversubscribed thread counts.
#include <cstdio>
#include <memory>

#include "bench_util.hpp"
#include "harness/issuers.hpp"

namespace {

using namespace hcf;
using Table = ds::HashTable<std::uint64_t, std::uint64_t>;

constexpr std::uint64_t kKeyRange = 16 * 1024;

std::unique_ptr<Table> make_prefilled_table(const harness::WorkloadSpec& spec) {
  auto table = std::make_unique<Table>(spec.key_range);
  // Deterministic prefill of every other key up to half the range.
  for (std::uint64_t k = 0; k < spec.prefill; ++k) {
    table->insert(k * 2 % spec.key_range, (k * 2 % spec.key_range) * 2 + 1);
  }
  return table;
}

struct Panel {
  const char* id;
  const char* tag;
  int find_pct;
};
const Panel kPanels[] = {
    {"2(a)", "100f", 100}, {"2(b)", "80f", 80}, {"2(c)", "40f", 40}};

harness::WorkloadSpec spec_of(const Panel& panel, std::uint32_t work) {
  auto spec = harness::WorkloadSpec::reads(panel.find_pct, kKeyRange);
  spec.cs_work = work;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  auto opts = bench::BenchOptions::parse(argc, argv);
  bench::BenchReport report(opts, "fig2_hash_table");
  bench::print_header(
      "Figure 2", "hash table throughput (Mops/s), 16K keys/buckets");

  const bench::HcfClasses paper_hcf{adapters::ht_paper_config(),
                                    adapters::kHtNumArrays};
  bench::roster_sweep(
      opts, report, kPanels, bench::kPaperRoster, opts.work_settings(),
      [](const Panel& panel, std::uint32_t work) {
        const auto spec = spec_of(panel, work);
        std::printf("\nFig %s: workload %s (key range %llu, prefill %llu)%s\n",
                    panel.id, spec.label().c_str(),
                    static_cast<unsigned long long>(spec.key_range),
                    static_cast<unsigned long long>(spec.prefill),
                    bench::work_tag(work));
        return spec.label();
      },
      [&](const Panel& panel, std::uint32_t work, const std::string& engine,
          std::size_t threads) {
        const auto spec = spec_of(panel, work);
        auto table = make_prefilled_table(spec);
        return bench::run_engine(engine, *table, paper_hcf, [&](auto& e) {
          return harness::run_timed(
              e, threads,
              [&](std::size_t t) {
                return harness::HtWorker(e, spec, 17 + t * 7919);
              },
              opts.driver);
        });
      });
  return report.finish();
}
