// Figure 7 (repo extension, not in the paper): oversubscription behaviour
// of the futex-parking wait tier. Hash table, the Fig 2(c) 40% Find mix,
// sweeping 2..32 threads — deliberately past the core count — with HCF
// under the two interesting wait policies:
//
//   HCF-spinyield   the pre-parking default (spin -> sched_yield forever)
//   HCF-spinpark    spin -> yield -> futex park (PhasePolicy::wait)
//
// Two panels: the paper-parameters run, and a preemption-amplified run
// (WorkloadSpec::cs_preempt) where operations are descheduled mid-flight
// so announced-operation backlogs actually form. Besides throughput we
// report p999 operation latency (DriverOptions::measure_latency): parking
// trades a wake syscall on the critical path for not burning the
// preempted combiner's quantum, which shows up in the tail long before it
// shows up in the mean (DESIGN.md §12, EXPERIMENTS.md "Figure 7").
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "util/parking.hpp"

namespace {

using namespace hcf;

const bench::HtPanel kPanels[] = {{"7(a)", "paper", 40, false},
                                  {"7(b)", "preempt", 40, true}};

struct Variant {
  std::string name;
  util::WaitPolicy wait;
};
const std::vector<Variant> kVariants{
    {"HCF-spinyield", util::WaitPolicy::SpinYield},
    {"HCF-spinpark", util::WaitPolicy::SpinPark},
};

}  // namespace

int main(int argc, char** argv) {
  // Unless the caller picked a sweep, default to the oversubscribed range:
  // parking only differentiates itself once threads outnumber cores.
  auto opts = bench::BenchOptions::parse(argc, argv, {2, 4, 8, 16, 32});
  opts.driver.measure_latency = true;
  bench::BenchReport report(opts, "fig7_oversub");
  bench::print_header(
      "Figure 7",
      "oversubscribed hash table (40f mix): wait-policy throughput and tail");

  const auto p999 = bench::usec_of(&harness::RunResult::latency_p999_ns);
  bench::Layout layout;
  layout.views.push_back({"",
                          {{"spinyield Mops", 0, bench::mops},
                           {"spinpark Mops", 1, bench::mops},
                           {"spinyield p999(us)", 0, p999},
                           {"spinpark p999(us)", 1, p999}}});
  bench::sweep(
      // Preemption (not critical-section width) is the axis of this
      // figure; --cs-work still lets a sweep pin a nonzero width too.
      opts, report, kPanels, kVariants, opts.one_work(0),
      [](const bench::HtPanel& panel, std::uint32_t work) {
        return panel.heading(work, panel.preempt ? "preemption-amplified"
                                                 : "paper parameters");
      },
      [&](const bench::HtPanel& panel, std::uint32_t work,
          const Variant& variant, std::size_t threads) {
        const auto spec = panel.spec(work);
        auto table = bench::make_hash_table(spec);
        auto classes = adapters::ht_paper_config();
        for (auto& cc : classes) cc.policy.wait = variant.wait;
        core::HcfEngine<bench::HashTable> engine(*table, std::move(classes),
                                                 adapters::kHtNumArrays);
        return bench::run_ht(engine, spec, threads, opts.driver, 17, 7919);
      },
      layout);
  return report.finish();
}
