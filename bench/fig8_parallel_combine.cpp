// Figure 8 (repo extension, not in the paper): parallel combining —
// delegating disjoint batch groups to waiting clients (DESIGN.md §13).
// Hash table, an insert-heavy 20% Find mix so the insert class actually
// combines, comparing HCF with the serial combiner against HCF with
// delegation enabled (PhasePolicy::delegate + the hash table's seeded
// commutativity graph, adapters::ht_seed_commutes):
//
//   HCF-serial     the combiner applies every selected group itself
//   HCF-delegate   the combiner hands disjoint key-range groups to the
//                  waiting owners; unclaimed groups fall back to serial
//
// Two panels, mirroring Figure 6/7's methodology: the paper-parameters
// run, and a preemption-amplified run (WorkloadSpec::cs_preempt) where
// combiners are descheduled mid-session — exactly the regime where a
// serial combiner becomes the convoy head and spreading the apply work
// across blocked clients pays. Besides throughput we report combine-round
// rate (rounds/s): delegation's claim is that the *session* retires
// faster because groups apply in parallel, which shows up as more rounds
// per second before it shows up in end-to-end Mops.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace {

using namespace hcf;

const bench::HtPanel kPanels[] = {{"8(a)", "paper", 20, false},
                                  {"8(b)", "preempt", 20, true}};

struct Variant {
  std::string name;
  bool delegate;
};
const std::vector<Variant> kVariants{{"HCF-serial", false},
                                     {"HCF-delegate", true}};

// Combine-round throughput: sessions retired per second is the quantity
// delegation accelerates (the serial combiner is the round's critical
// path; delegates shorten it).
double rounds_per_sec(const harness::RunResult& r) {
  return r.duration_s > 0
             ? static_cast<double>(r.engine.combine_rounds) / r.duration_s
             : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  // Default past the core count: delegation needs waiters to delegate to,
  // and the preempt panel needs oversubscription to deschedule combiners.
  auto opts = bench::BenchOptions::parse(argc, argv, {2, 4, 8, 16, 32});
  bench::BenchReport report(opts, "fig8_parallel_combine");
  bench::print_header(
      "Figure 8",
      "parallel combining (20f mix): serial vs delegated group apply");

  using R = harness::RunResult;
  bench::Layout layout;
  layout.views.push_back(
      {"",
       {{"serial Mops", 0, bench::mops},
        {"delegate Mops", 1, bench::mops},
        {"serial rounds/s", 0, bench::num_of(rounds_per_sec)},
        {"delegate rounds/s", 1, bench::num_of(rounds_per_sec)},
        {"delegated ops", 1,
         bench::num_of([](const R& r) { return r.engine.delegated_ops; })},
        {"fallbacks", 1, bench::num_of([](const R& r) {
           return r.engine.delegate_fallbacks;
         })}}});
  bench::sweep(
      opts, report, kPanels, kVariants, opts.one_work(0),
      [](const bench::HtPanel& panel, std::uint32_t work) {
        return panel.heading(work, panel.preempt ? "preemption-amplified"
                                                 : "paper parameters");
      },
      [&](const bench::HtPanel& panel, std::uint32_t work,
          const Variant& variant, std::size_t threads) {
        const auto spec = panel.spec(work);
        auto table = bench::make_hash_table(spec);
        core::HcfEngine<bench::HashTable> engine(
            *table,
            variant.delegate ? adapters::ht_delegate_config()
                             : adapters::ht_paper_config(),
            adapters::kHtNumArrays);
        if (variant.delegate) adapters::ht_seed_commutes(engine);
        return bench::run_ht(engine, spec, threads, opts.driver, 23, 7919);
      },
      layout);
  return report.finish();
}
