// Shared option parsing, reporting, prefills and the evaluation grid
// (panel x cs_work x threads x variant) for the table benchmarks.
//
// Every figure binary accepts:
//   --duration-ms=N     measurement window per configuration (default 300)
//   --warmup-ms=N       warmup before each measurement (default 50)
//   --threads=1,2,4,..  thread counts to sweep (default 1,2,4,8,16 unless
//                       the bench names its own)
//   --quick             short run (100ms windows, threads 1,2,4)
//   --extended          adds the paper's beyond-one-socket thread counts
//   --workload=NAME     restrict to the panels tagged NAME
//   --cs-work=N         fix the critical-section work parameter
//   --json=FILE         also write results as hcf-bench-v1 JSON (report.hpp)
//   --trace=FILE        enable telemetry and write a Chrome trace_event file
//   --report-interval-ms=N  periodic progress lines on stderr mid-window
//
// Unknown options, malformed numbers and a --workload that tags no panel
// are hard errors (exit 2): a sweep script that typos a flag must fail
// loudly, not silently run the default configuration for an hour.
#pragma once

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "adapters/list_ops.hpp"
#include "core/engine.hpp"
#include "ds/hash_table.hpp"
#include "harness/driver.hpp"
#include "harness/issuers.hpp"
#include "harness/report.hpp"
#include "harness/workload.hpp"
#include "mem/ebr.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_export.hpp"
#include "util/table.hpp"

namespace hcf::bench {

[[noreturn]] inline void option_error(const std::string& message) {
  std::fprintf(stderr, "error: %s\n(--help lists the accepted options)\n",
               message.c_str());
  std::exit(2);
}

// Strict decimal parse: the whole token must be a number. std::stol-style
// partial parses ("--threads=4x" -> 4) and uncaught std::invalid_argument
// ("--threads=,") are exactly what this replaces.
inline long parse_number(const std::string& text, const char* flag,
                         long min_value) {
  if (text.empty()) {
    option_error(std::string("empty value for ") + flag);
  }
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) {
    option_error("malformed number '" + text + "' for " + flag);
  }
  if (value < min_value) {
    option_error(std::string(flag) + "=" + text + " is below the minimum (" +
                 std::to_string(min_value) + ")");
  }
  return value;
}

struct BenchOptions {
  harness::DriverOptions driver;
  std::vector<std::size_t> threads;
  bool extended = false;
  std::string workload_filter;
  // -1: run both cs_work=0 (paper parameters) and the amplified setting.
  long cs_work = -1;
  std::uint32_t amplified_work = 1000;
  std::string json_path;   // --json=FILE: hcf-bench-v1 output
  std::string trace_path;  // --trace=FILE: Chrome trace_event output

  // `default_threads` is the sweep when neither --threads nor --quick
  // picks one.
  static BenchOptions parse(int argc, char** argv,
                            std::vector<std::size_t> default_threads = {
                                1, 2, 4, 8, 16}) {
    BenchOptions opts;
    opts.threads = std::move(default_threads);
    opts.driver.warmup = std::chrono::milliseconds(50);
    opts.driver.duration = std::chrono::milliseconds(300);
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      std::string value;
      // Matches --name=VALUE, leaving VALUE in `value`.
      const auto flag = [&](const std::string& name) {
        if (arg.rfind(name + "=", 0) != 0) return false;
        value = arg.substr(name.size() + 1);
        return true;
      };
      const auto ms = [&](const char* name, long min_value) {
        return std::chrono::milliseconds(parse_number(value, name, min_value));
      };
      if (flag("--duration-ms")) {
        opts.driver.duration = ms("--duration-ms", 1);
      } else if (flag("--warmup-ms")) {
        opts.driver.warmup = ms("--warmup-ms", 0);
      } else if (flag("--report-interval-ms")) {
        opts.driver.report_interval = ms("--report-interval-ms", 1);
      } else if (flag("--threads")) {
        opts.threads.clear();
        std::size_t pos = 0;
        while (pos <= value.size()) {
          std::size_t comma = value.find(',', pos);
          if (comma == std::string::npos) comma = value.size();
          opts.threads.push_back(static_cast<std::size_t>(
              parse_number(value.substr(pos, comma - pos), "--threads", 1)));
          pos = comma + 1;
        }
      } else if (arg == "--quick") {
        opts.driver.duration = std::chrono::milliseconds(100);
        opts.driver.warmup = std::chrono::milliseconds(20);
        opts.threads = {1, 2, 4};
      } else if (flag("--cs-work")) {
        opts.cs_work = parse_number(value, "--cs-work", 0);
      } else if (arg == "--extended") {
        opts.extended = true;
      } else if (flag("--workload")) {
        opts.workload_filter = value;
      } else if (flag("--json")) {
        if (value.empty()) option_error("empty value for --json");
        opts.json_path = value;
      } else if (flag("--trace")) {
        if (value.empty()) option_error("empty value for --trace");
        opts.trace_path = value;
      } else if (arg == "--help" || arg == "-h") {
        std::printf(
            "options: --duration-ms=N --warmup-ms=N --threads=a,b,c "
            "--quick --extended --workload=NAME --cs-work=N "
            "--json=FILE --trace=FILE --report-interval-ms=N\n");
        std::exit(0);
      } else {
        option_error("unknown option '" + arg + "'");
      }
    }
    if (opts.extended) {
      // The beyond-one-socket counts, skipping any the user already listed.
      for (const std::size_t extra : {std::size_t{36}, std::size_t{72}}) {
        if (std::find(opts.threads.begin(), opts.threads.end(), extra) ==
            opts.threads.end()) {
          opts.threads.push_back(extra);
        }
      }
    }
    return opts;
  }

  // The cs_work settings a figure bench should sweep: either the single
  // value requested on the command line, or {paper-verbatim, amplified}.
  std::vector<std::uint32_t> work_settings() const {
    if (cs_work >= 0) return {static_cast<std::uint32_t>(cs_work)};
    return {0, amplified_work};
  }

  // A bench that runs one cs_work: --cs-work if given, else `fallback`.
  std::vector<std::uint32_t> one_work(std::uint32_t fallback) const {
    return {cs_work >= 0 ? static_cast<std::uint32_t>(cs_work) : fallback};
  }

  bool selects(const std::string& workload) const {
    return workload_filter.empty() || workload_filter == workload;
  }

  // A --workload that names none of the bench's workloads is a typo, not
  // an empty sweep: fail like any other bad flag.
  void require_workload(const std::vector<std::string>& workloads) const {
    std::string known;
    for (const std::string& w : workloads) {
      if (selects(w)) return;
      known += (known.empty() ? "" : ", ") + w;
    }
    option_error("--workload=" + workload_filter +
                 " names no workload of this bench (" + known + ")");
  }
};

// Which cs_work setting a table measures.
inline const char* work_name(std::uint32_t work) {
  return work == 0 ? "paper parameters" : "contention-amplified";
}

inline void print_header(const char* figure, const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure, description);
  std::printf("(software-simulated HTM; see DESIGN.md for the substitution\n");
  std::printf(" notes and EXPERIMENTS.md for paper-vs-measured analysis)\n");
  std::printf("==============================================================\n");
}

// Collects rows for --json and drives telemetry for --trace. Construct one
// per binary right after BenchOptions::parse, feed it every RunResult, and
// return finish() from main.
class BenchReport {
 public:
  BenchReport(const BenchOptions& opts, std::string bench_name)
      : json_path_(opts.json_path),
        trace_path_(opts.trace_path),
        report_(std::move(bench_name)) {
    if (!trace_path_.empty()) {
      if (!telemetry::kCompiledIn) {
        std::fprintf(stderr,
                     "warning: --trace requested but telemetry is compiled "
                     "out (HCF_TELEMETRY=OFF); the trace will be empty\n");
      }
      telemetry::set_enabled(true);
    }
  }

  void add(const std::string& workload, const std::string& engine,
           std::size_t threads, std::uint32_t cs_work,
           const harness::RunResult& result) {
    if (!json_path_.empty()) {
      report_.add_row(workload, engine, threads, cs_work, result);
    }
  }

  // Writes the requested artifacts; the return value is main()'s exit code.
  int finish() {
    int rc = 0;
    if (!json_path_.empty() && !report_.write_file(json_path_)) rc = 1;
    if (!trace_path_.empty()) {
      telemetry::set_enabled(false);
      std::ofstream out(trace_path_);
      if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n", trace_path_.c_str());
        rc = 1;
      } else {
        telemetry::write_chrome_trace(out);
        telemetry::write_summary(std::cerr);
      }
    }
    return rc;
  }

 private:
  std::string json_path_;
  std::string trace_path_;
  harness::JsonReport report_;
};

// ---- Workloads --------------------------------------------------------------

// §3.3's hash table: 16K keys and buckets, prefilled to half.
using HashTable = ds::HashTable<std::uint64_t, std::uint64_t>;
inline constexpr std::uint64_t kHtKeyRange = 16 * 1024;

// A hash-table panel: find_pct% Find, the rest split between Insert and
// Remove, optionally preemption-amplified (WorkloadSpec::cs_preempt).
struct HtPanel {
  const char* id;   // the figure panel, e.g. "2(a)"
  const char* tag;  // what --workload selects
  int find_pct;
  bool preempt = false;

  harness::WorkloadSpec spec(std::uint32_t work) const {
    auto s = harness::WorkloadSpec::reads(find_pct, kHtKeyRange);
    s.cs_work = work;
    s.cs_preempt = preempt;
    return s;
  }

  // Prints the table heading, tagged with the regime the table measures;
  // returns its JSON workload.
  std::string heading(std::uint32_t work, const char* regime) const {
    const auto s = spec(work);
    std::printf("\nFig %s: workload %s (key range %llu, prefill %llu) [%s]\n",
                id, s.label().c_str(),
                static_cast<unsigned long long>(s.key_range),
                static_cast<unsigned long long>(s.prefill), regime);
    return s.label();
  }
};

// The deterministic hash-table prefill: `spec.prefill` entries, every other
// key of the range, each valued key * 2 + 1. insert(key, value) places one
// entry, so a sharded bench can route it.
template <typename Insert>
void prefill_hash_table(const harness::WorkloadSpec& spec, Insert&& insert) {
  for (std::uint64_t k = 0; k < spec.prefill; ++k) {
    const std::uint64_t key = k * 2 % spec.key_range;
    insert(key, key * 2 + 1);
  }
}

// A table with one bucket per key of `spec`, prefilled as above.
inline std::unique_ptr<HashTable> make_hash_table(
    const harness::WorkloadSpec& spec) {
  auto table = std::make_unique<HashTable>(spec.key_range);
  prefill_hash_table(spec, [&](std::uint64_t key, std::uint64_t value) {
    table->insert(key, value);
  });
  return table;
}

// Builds the engine `name` over `ds` (core::visit_engine) and measures it
// with one make_worker(engine, t) per thread t.
template <typename DS, typename MakeWorker>
harness::RunResult run_engine(const std::string& name, DS& ds,
                              const std::vector<core::ClassConfig>& classes,
                              std::size_t arrays, std::size_t threads,
                              const harness::DriverOptions& options,
                              MakeWorker&& make_worker) {
  return core::visit_engine(name, ds, classes, arrays, [&](auto& e) {
    return harness::run_timed(
        e, threads, [&](std::size_t t) { return make_worker(e, t); }, options);
  });
}

// Measures `engine` with one HtWorker per thread t, seeded seed + t * stride.
template <typename Engine>
harness::RunResult run_ht(Engine& engine, const harness::WorkloadSpec& spec,
                          std::size_t threads,
                          const harness::DriverOptions& options,
                          std::uint64_t seed, std::uint64_t stride) {
  return harness::run_timed(
      engine, threads,
      [&](std::size_t t) {
        return harness::HtWorker(engine, spec, seed + t * stride);
      },
      options);
}

// run_ht on a fresh prefilled table under the engine `name`
// (core::visit_engine) with the paper's hash-table classes.
inline harness::RunResult run_ht_engine(const std::string& name,
                                        const harness::WorkloadSpec& spec,
                                        std::size_t threads,
                                        const harness::DriverOptions& options,
                                        std::uint64_t seed,
                                        std::uint64_t stride) {
  auto table = make_hash_table(spec);
  return run_engine(name, *table, adapters::ht_paper_config(),
                    adapters::kHtNumArrays, threads, options,
                    [&](auto& e, std::size_t t) {
                      return harness::HtWorker(e, spec, seed + t * stride);
                    });
}

// The deterministic set prefill (AVL tree, sorted list): every other key
// of [0, key_range), each placed by insert(key).
template <typename Insert>
void prefill_set(std::uint64_t key_range, Insert&& insert) {
  for (std::uint64_t k = 0; k < key_range; k += 2) insert(k);
}

template <typename Set>
std::unique_ptr<Set> make_set(std::uint64_t key_range) {
  auto set = std::make_unique<Set>();
  prefill_set(key_range, [&](std::uint64_t key) { set->insert(key); });
  return set;
}

// Issues the spec's Find/Insert/Remove mix through a set's op types
// (Ops::Contains, Ops::Insert, Ops::Remove); `sharded` marks the ops for a
// ShardedEngine's router. Make one with set_worker<Ops>(engine, ...).
template <typename Ops, typename Engine>
class SetWorker {
 public:
  SetWorker(Engine& engine, const harness::WorkloadSpec& spec,
            std::uint64_t seed, bool sharded)
      : engine_(engine), spec_(spec), keys_(spec, seed) {
    contains_.set_sharded(sharded);
    insert_.set_sharded(sharded);
    remove_.set_sharded(sharded);
    contains_.set_work(spec.cs_work);
    insert_.set_work(spec.cs_work);
    remove_.set_work(spec.cs_work);
  }

  void operator()() {
    const std::uint64_t key = keys_.next_key();
    const int p = keys_.next_percent();
    if (p < spec_.find_pct) {
      contains_.set(key);
      engine_.execute(contains_);
    } else if (p < spec_.find_pct + spec_.insert_pct) {
      insert_.set(key);
      engine_.execute(insert_);
    } else {
      remove_.set(key);
      engine_.execute(remove_);
    }
  }

 private:
  Engine& engine_;
  harness::WorkloadSpec spec_;
  harness::KeyGenerator keys_;
  typename Ops::Contains contains_;
  typename Ops::Insert insert_;
  typename Ops::Remove remove_;
};

struct ListOps {
  using Contains = adapters::ListContainsOp<std::uint64_t>;
  using Insert = adapters::ListInsertOp<std::uint64_t>;
  using Remove = adapters::ListRemoveOp<std::uint64_t>;
};
struct AvlOps {
  using Contains = adapters::AvlContainsOp<std::uint64_t>;
  using Insert = adapters::AvlInsertOp<std::uint64_t>;
  using Remove = adapters::AvlRemoveOp<std::uint64_t>;
};

template <typename Ops, typename Engine>
SetWorker<Ops, Engine> set_worker(Engine& engine,
                                  const harness::WorkloadSpec& spec,
                                  std::uint64_t seed, bool sharded = false) {
  return {engine, spec, seed, sharded};
}

// ---- The evaluation grid ----------------------------------------------------

// The paper's §3 comparison columns, in the paper's order; each is an
// engine name core::visit_engine builds.
inline const std::vector<std::string> kPaperRoster{"Lock", "TLE", "FC",
                                                   "SCM", "TLE+FC", "HCF"};

// A panel that is only its --workload tag, for one-workload benches.
struct Workload {
  const char* tag;
};

// One measured cell: the run, plus a note the bench derives while the
// engine is still alive (e.g. eliminations per 1000 ops).
struct Cell {
  harness::RunResult result;
  std::string note = {};
};

// A printed column: `header` over value(cell) for the cells of variant
// number `variant`.
struct Column {
  std::string header;
  std::size_t variant;
  std::function<std::string(const Cell&)> value;
};

// Column values: fn(result) as a number; a latency field in microseconds;
// the throughput; the note.
template <typename Fn>
std::function<std::string(const Cell&)> num_of(Fn fn) {
  return [fn](const Cell& c) {
    return util::TextTable::num(std::invoke(fn, c.result));
  };
}
inline std::function<std::string(const Cell&)> usec_of(
    std::uint64_t harness::RunResult::*ns) {
  return num_of([ns](const harness::RunResult& r) {
    return static_cast<double>(r.*ns) / 1000.0;
  });
}
inline const auto mops = num_of(&harness::RunResult::throughput_mops);
inline std::string note(const Cell& c) { return c.note; }

// One printed table of a grid, headed "\n<title>:\n" unless `title` is
// empty; every table starts with the threads column.
struct View {
  std::string title;
  std::vector<Column> columns = {};
};

// The cells of one (panel, cs_work) grid, keyed by its JSON workload:
// cells[threads index][variant].
struct Grid {
  std::string workload;
  const std::vector<std::size_t>& threads;
  std::vector<std::vector<Cell>> cells;
};

// How a bench prints each grid: its views (none: one throughput column
// per variant, headed by the variant's name) and a footer after them.
struct Layout {
  std::vector<View> views;
  std::function<void(const Grid&)> footer;
};

// A variant is a kPaperRoster-style engine name or anything with a `name`
// (a shard count, a wait policy, a trial split); the name is its JSON
// engine key.
template <typename V>
std::string variant_name(const V& v) {
  if constexpr (std::is_convertible_v<const V&, std::string>) {
    return v;
  } else {
    return v.name;
  }
}

// A sweep parameter that is either one value for every panel or a
// function of the panel.
template <typename Of, typename Panel>
decltype(auto) for_panel(const Of& of, const Panel& panel) {
  if constexpr (std::is_invocable_v<const Of&, const Panel&>) {
    return of(panel);
  } else {
    return (of);
  }
}

// The grid sweep: panel x cs_work x threads x variant. `panels` holds the
// bench's own panel type with a `tag` (what --workload selects; panels may
// share one); `variants` are the columns and `works` the cs_work settings,
// each fixed or a function of the panel. begin_table(panel, work) prints
// the table's heading and returns its JSON workload key;
// run_cell(panel, work, variant, threads) measures one cell and returns a
// RunResult or a Cell. Reclamation is drained after every cell.
template <typename Panels, typename Variants, typename Works,
          typename BeginTable, typename RunCell>
void sweep(const BenchOptions& opts, BenchReport& report,
           const Panels& panels, const Variants& variants, const Works& works,
           BeginTable&& begin_table, RunCell&& run_cell,
           const Layout& layout = {}) {
  std::vector<std::string> tags;
  for (const auto& panel : panels) tags.emplace_back(panel.tag);
  opts.require_workload(tags);
  for (const auto& panel : panels) {
    if (!opts.selects(panel.tag)) continue;
    const auto& panel_variants = for_panel(variants, panel);
    std::vector<View> views = layout.views;
    if (views.empty()) {
      views.emplace_back();
      for (std::size_t v = 0; v < std::size(panel_variants); ++v) {
        views[0].columns.push_back({variant_name(panel_variants[v]), v, mops});
      }
    }
    for (const std::uint32_t work : for_panel(works, panel)) {
      Grid grid{begin_table(panel, work), opts.threads, {}};
      for (const std::size_t threads : opts.threads) {
        auto& row = grid.cells.emplace_back();
        for (const auto& variant : panel_variants) {
          Cell cell{run_cell(panel, work, variant, threads)};
          mem::EbrDomain::instance().drain();
          report.add(grid.workload, variant_name(variant), threads, work,
                     cell.result);
          row.push_back(std::move(cell));
        }
      }
      for (const View& view : views) {
        if (!view.title.empty()) std::printf("\n%s:\n", view.title.c_str());
        std::vector<std::string> header{"threads"};
        for (const Column& c : view.columns) header.push_back(c.header);
        util::TextTable table(std::move(header));
        for (std::size_t t = 0; t < grid.threads.size(); ++t) {
          std::vector<std::string> row{std::to_string(grid.threads[t])};
          for (const Column& c : view.columns) {
            row.push_back(c.value(grid.cells[t][c.variant]));
          }
          table.add_row(std::move(row));
        }
        table.print(std::cout);
      }
      if (layout.footer) layout.footer(grid);
    }
  }
}

}  // namespace hcf::bench
