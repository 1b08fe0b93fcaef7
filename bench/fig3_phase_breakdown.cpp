// Figure 3 reproduction: percentage of operations completed in each of the
// four HCF phases for the 40%-Find hash-table workload — for all
// operations, Insert operations alone, and Find+Remove operations alone.
// One measurement per (work, threads) configuration feeds all three views.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"

namespace {

using namespace hcf;

const bench::HtPanel kPanels[] = {{"3", "40f", 40}};
const std::vector<std::string> kEngines{"HCF"};

// Completions of class `cls` (-1: every class) in `phase` (-1: all).
std::uint64_t completions(const core::EngineStatsSnapshot& s, int cls,
                          int phase = -1) {
  if (phase < 0) return cls < 0 ? s.total() : s.class_total(cls);
  return cls < 0 ? s.phase_total(static_cast<core::Phase>(phase))
                 : s.completions[static_cast<std::size_t>(cls)]
                                [static_cast<std::size_t>(phase)];
}

// Phase `phase`'s share of class `cls`'s completions, in percent.
std::string share(const core::EngineStatsSnapshot& s, int cls, int phase) {
  const std::uint64_t total = completions(s, cls);
  return total == 0
             ? "0.00"
             : util::TextTable::num(
                   100.0 * static_cast<double>(completions(s, cls, phase)) /
                   static_cast<double>(total));
}

// One table per view: each phase's share of the view's completions.
bench::Layout phase_tables() {
  // (title, class); class -1 aggregates over all classes.
  const std::pair<const char*, int> views[] = {
      {"all ops", -1},
      {"Insert only", adapters::kHtInsertClass},
      {"Find+Remove only", adapters::kHtReadWriteClass}};
  const char* const phases[] = {"TryPrivate%", "TryVisible%", "TryCombining%",
                                "CombineUnderLock%"};
  bench::Layout layout;
  for (const auto& [title, view_cls] : views) {
    const int cls = view_cls;
    auto& columns = layout.views.emplace_back(bench::View{title}).columns;
    for (int p = 0; p < core::kNumPhases; ++p) {
      columns.push_back({phases[p], 0, [cls, p](const bench::Cell& c) {
                           return share(c.result.engine, cls, p);
                         }});
    }
    columns.push_back({"ops", 0, [cls](const bench::Cell& c) {
                         const auto& stats = c.result.engine;
                         return std::to_string(completions(stats, cls));
                       }});
  }
  return layout;
}

}  // namespace

int main(int argc, char** argv) {
  auto opts = bench::BenchOptions::parse(argc, argv);
  bench::BenchReport report(opts, "fig3_phase_breakdown");
  bench::print_header("Figure 3",
                      "HCF phase completion breakdown, hash table, 40% Find");

  bench::sweep(
      opts, report, kPanels, kEngines, opts.work_settings(),
      [](const bench::HtPanel& panel, std::uint32_t work) {
        const auto label = panel.spec(work).label();
        std::printf("\n=== %s (workload %s) ===\n", bench::work_name(work),
                    label.c_str());
        return label;
      },
      [&](const bench::HtPanel& panel, std::uint32_t work,
          const std::string& engine, std::size_t threads) {
        return bench::run_ht_engine(engine, panel.spec(work), threads,
                                    opts.driver, 31, 101);
      },
      phase_tables());
  return report.finish();
}
