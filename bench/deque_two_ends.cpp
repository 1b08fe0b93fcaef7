// §2.4's two-ends deque example: separate publication arrays (and thus
// separate combiners) per end. Compares all engines plus the specialized
// single-combiner HCF variant, which §2.4 recommends for exactly this
// configuration. Threads are pinned to one end each ("split" mode) or pick
// ends at random ("mixed" mode).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "harness/issuers.hpp"

namespace {

using namespace hcf;
using Dq = ds::Deque<std::uint64_t>;

constexpr int kPushPct = 60;

std::unique_ptr<Dq> make_prefilled() {
  auto dq = std::make_unique<Dq>();
  for (std::uint64_t v = 0; v < 4096; ++v) dq->push_right(v);
  return dq;
}

struct Panel {
  const char* tag;  // also the JSON workload key
  bool split;
};
const Panel kPanels[] = {{"split", true}, {"mixed", false}};

}  // namespace

int main(int argc, char** argv) {
  auto opts = bench::BenchOptions::parse(argc, argv);
  bench::BenchReport report(opts, "deque_two_ends");
  bench::print_header("Deque (paper §2.4)",
                      "two-ends deque, per-end publication arrays (Mops/s)");

  std::vector<std::string> engines = bench::kPaperRoster;
  engines.push_back("HCF-1C");
  // The deque workload has no critical-section work knob: cs_work 0 only.
  bench::sweep(
      opts, report, kPanels, engines, std::vector<std::uint32_t>{0},
      [](const Panel& panel, std::uint32_t) {
        std::printf("\n%s mode (60%% push / 40%% pop):\n",
                    panel.split ? "split (threads pinned per end)" : "mixed");
        return std::string(panel.tag);
      },
      [&](const Panel& panel, std::uint32_t, const std::string& engine,
          std::size_t threads) {
        auto dq = make_prefilled();
        return bench::run_engine(
            engine, *dq, adapters::deque_paper_config(),
            adapters::kDequeNumArrays, threads, opts.driver,
            [&](auto& e, std::size_t t) {
              const int pin_side = panel.split ? static_cast<int>(t % 2) : -1;
              return harness::DequeWorker(e, kPushPct, 7 + t * 3, pin_side);
            });
      });
  return report.finish();
}
