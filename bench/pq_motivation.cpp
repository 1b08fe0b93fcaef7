// The paper's §1 motivating example, made measurable: a skip-list priority
// queue where Insert operations parallelize on HTM but RemoveMin operations
// always conflict. Sweeps the Insert/RemoveMin mix and compares all engines;
// HCF uses the per-class configuration described in §2.1 (RemoveMin skips
// the private/visible HTM attempts and goes straight to combining).
#include <cstdio>
#include <memory>
#include <string>

#include "bench_util.hpp"
#include "harness/issuers.hpp"

namespace {

using namespace hcf;
using Pq = ds::SkipListPq<std::uint64_t>;

constexpr std::uint64_t kKeyRange = 1 << 20;
constexpr std::uint64_t kPrefill = 64 * 1024;

std::unique_ptr<Pq> make_prefilled() {
  auto pq = std::make_unique<Pq>();
  util::Xoshiro256 rng(12345);
  for (std::uint64_t i = 0; i < kPrefill; ++i) {
    pq->insert(rng.next_bounded(kKeyRange));
  }
  return pq;
}

struct Panel {
  const char* tag;  // also the JSON workload key
  int insert_pct;
};
const Panel kPanels[] = {{"100i/0rm", 100},
                         {"50i/50rm", 50},
                         {"20i/80rm", 20},
                         {"0i/100rm", 0}};

}  // namespace

int main(int argc, char** argv) {
  auto opts = bench::BenchOptions::parse(argc, argv);
  bench::BenchReport report(opts, "pq_motivation");
  bench::print_header(
      "PQ motivation (paper §1/§3.1)",
      "skip-list priority queue, Insert vs RemoveMin mixes (Mops/s)");

  bench::sweep(
      opts, report, kPanels, bench::kPaperRoster, opts.work_settings(),
      [](const Panel& panel, std::uint32_t work) {
        std::printf("\n%d%% Insert / %d%% RemoveMin (prefill %llu) [%s]:\n",
                    panel.insert_pct, 100 - panel.insert_pct,
                    static_cast<unsigned long long>(kPrefill),
                    bench::work_name(work));
        return std::string(panel.tag);
      },
      [&](const Panel& panel, std::uint32_t work, const std::string& engine,
          std::size_t threads) {
        auto pq = make_prefilled();
        // §2.4: with one publication array per operation type, the paper's
        // HCF is the single-combiner variant — the combiner holds the
        // selection lock for its whole run, so waiting RemoveMins
        // accumulate into large combined batches.
        const std::string variant = engine == "HCF" ? "HCF-1C" : engine;
        return bench::run_engine(
            variant, *pq, adapters::pq_paper_config(), adapters::kPqNumArrays,
            threads, opts.driver, [&](auto& e, std::size_t t) {
              return harness::PqWorker(e, panel.insert_pct, kKeyRange,
                                       91 + t * 47, work);
            });
      });
  return report.finish();
}
