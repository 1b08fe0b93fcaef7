// Sorted-list set benchmark: the structure with the strongest asymptotic
// combining win (k combined ops = one O(n + k) traversal instead of k
// O(n) traversals). Long traversals also make capacity aborts and
// validation costs visible, complementing the short-operation structures.
#include <cstdio>
#include <functional>
#include <memory>

#include "adapters/list_ops.hpp"
#include "bench_util.hpp"
#include "harness/workload.hpp"
#include "core/engine.hpp"

namespace {

using namespace hcf;
using List = ds::SortedList<std::uint64_t>;

constexpr std::uint64_t kKeyRange = 512;  // list is O(n): keep it modest

class ListWorker {
 public:
  template <typename Engine>
  ListWorker(Engine& engine, const harness::WorkloadSpec& spec,
             std::uint64_t seed)
      : spec_(spec), keys_(spec, seed) {
    contains_.set_work(spec.cs_work);
    insert_.set_work(spec.cs_work);
    remove_.set_work(spec.cs_work);
    execute_ = [&engine](core::Operation<List>& op) { engine.execute(op); };
  }

  void operator()() {
    const std::uint64_t key = keys_.next_key();
    const int p = keys_.next_percent();
    if (p < spec_.find_pct) {
      contains_.set(key);
      execute_(contains_);
    } else if (p < spec_.find_pct + spec_.insert_pct) {
      insert_.set(key);
      execute_(insert_);
    } else {
      remove_.set(key);
      execute_(remove_);
    }
  }

 private:
  harness::WorkloadSpec spec_;
  harness::KeyGenerator keys_;
  adapters::ListContainsOp<std::uint64_t> contains_;
  adapters::ListInsertOp<std::uint64_t> insert_;
  adapters::ListRemoveOp<std::uint64_t> remove_;
  std::function<void(core::Operation<List>&)> execute_;
};

std::unique_ptr<List> make_prefilled() {
  auto list = std::make_unique<List>();
  for (std::uint64_t k = 0; k < kKeyRange; k += 2) list->insert(k);
  return list;
}

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

  const bench::HcfClasses paper_hcf{adapters::list_paper_config(), 1};
  bench::roster_sweep(
      opts, report, kPanels, bench::kPaperRoster, opts.work_settings(),
      [](const Panel& panel, std::uint32_t work) {
        const auto spec = spec_of(panel, work);
        std::printf("\nworkload %s%s:\n", spec.label().c_str(),
                    bench::work_tag(work));
        return spec.label();
      },
      [&](const Panel& panel, std::uint32_t work, const std::string& engine,
          std::size_t threads) {
        const auto spec = spec_of(panel, work);
        auto list = make_prefilled();
        return bench::run_engine(engine, *list, paper_hcf, [&](auto& e) {
          return harness::run_timed(
              e, threads,
              [&](std::size_t t) { return ListWorker(e, spec, 5 + t * 7); },
              opts.driver);
        });
      });
  return report.finish();
}
