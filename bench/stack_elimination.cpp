// Stack benchmark (paper §3.1: "one should not expect HCF always to be the
// winner when the contention is high, e.g., when experimenting with a
// stack"). Every operation conflicts at the top, so combining-based
// engines (FC, HCF-with-combine-first) should match or beat TLE here, and
// Push/Pop *elimination* (pairs cancel without touching the stack) is the
// dominant effect on mixed workloads.
//
// Reports throughput and the elimination rate per engine.
#include <cstdio>
#include <string>
#include <vector>

#include "adapters/stack_ops.hpp"
#include "bench_util.hpp"
#include "util/rng.hpp"

namespace {

using namespace hcf;
using St = ds::Stack<std::uint64_t>;
using Base = adapters::StackOpBase<std::uint64_t>;

template <typename Engine>
class StackWorker {
 public:
  StackWorker(Engine& engine, int push_pct, std::uint64_t seed,
              std::uint32_t cs_work)
      : engine_(engine), push_pct_(push_pct), rng_(seed) {
    push_.set_work(cs_work);
    pop_.set_work(cs_work);
  }

  void operator()() {
    if (static_cast<int>(rng_.next_bounded(100)) < push_pct_) {
      push_.set(rng_.next());
      engine_.execute(push_);
    } else {
      engine_.execute(pop_);
    }
  }

 private:
  Engine& engine_;
  int push_pct_;
  util::Xoshiro256 rng_;
  adapters::StackPushOp<std::uint64_t> push_;
  adapters::StackPopOp<std::uint64_t> pop_;
};

const bench::Workload kPanels[] = {{"50push/50pop"}};
const std::vector<std::string> kEngines{"Lock", "TLE", "FC", "HCF", "HCF-1C"};

}  // namespace

int main(int argc, char** argv) {
  auto opts = bench::BenchOptions::parse(argc, argv);
  bench::BenchReport report(opts, "stack_elimination");
  bench::print_header("Stack (paper §3.1)",
                      "always-conflicting stack; throughput + elimination");

  // Each cell's note is its eliminations per 1000 ops.
  bench::Layout layout;
  layout.views.push_back({"",
                          {{"Lock", 0, bench::mops},
                           {"TLE", 1, bench::mops},
                           {"FC", 2, bench::mops},
                           {"FC-elim/kop", 2, bench::note},
                           {"HCF", 3, bench::mops},
                           {"HCF-elim/kop", 3, bench::note},
                           {"HCF-1C", 4, bench::mops}}});
  bench::sweep(
      opts, report, kPanels, kEngines, opts.work_settings(),
      [](const auto& panel, std::uint32_t work) {
        std::printf("\n=== %s (50%% push / 50%% pop) ===\n",
                    bench::work_name(work));
        return std::string(panel.tag);
      },
      [&](const auto&, std::uint32_t work, const std::string& engine,
          std::size_t threads) {
        St st;
        for (int i = 0; i < 4096; ++i) st.push(i);
        Base::reset_eliminations();
        const harness::RunResult result = bench::run_engine(
            engine, st, adapters::stack_paper_config(), 1, threads,
            opts.driver, [&](auto& e, std::size_t t) {
              return StackWorker(e, 50, 3 + t * 11, work);
            });
        const double elims = static_cast<double>(Base::eliminations());
        return bench::Cell{
            result, util::TextTable::num(
                        result.total_ops == 0
                            ? 0.0
                            : 1000.0 * elims /
                                  static_cast<double>(result.total_ops))};
      },
      layout);
  return report.finish();
}
