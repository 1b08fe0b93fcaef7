// Shared option parsing, reporting and the paper's engine roster for the
// figure benchmarks.
//
// Every figure binary accepts:
//   --duration-ms=N     measurement window per configuration (default 300)
//   --warmup-ms=N       warmup before each measurement (default 50)
//   --threads=1,2,4,..  thread counts to sweep (default 1,2,4,8,16)
//   --quick             short run (100ms windows, threads 1,2,4)
//   --extended          adds the paper's beyond-one-socket thread counts
//   --workload=NAME     restrict to one workload where applicable
//   --cs-work=N         fix the critical-section work parameter
//   --json=FILE         also write results as hcf-bench-v1 JSON (report.hpp)
//   --trace=FILE        enable telemetry and write a Chrome trace_event file
//   --report-interval-ms=N  periodic progress lines on stderr mid-window
//
// Unknown options and malformed numbers are hard errors (exit 2): a sweep
// script that typos a flag must fail loudly, not silently run the default
// configuration for an hour.
#pragma once

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "harness/driver.hpp"
#include "harness/report.hpp"
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
  std::vector<std::size_t> threads{1, 2, 4, 8, 16};
  bool extended = false;
  std::string workload_filter;
  // -1: run both cs_work=0 (paper parameters) and the amplified setting.
  long cs_work = -1;
  std::uint32_t amplified_work = 1000;
  std::string json_path;   // --json=FILE: hcf-bench-v1 output
  std::string trace_path;  // --trace=FILE: Chrome trace_event output

  static BenchOptions parse(int argc, char** argv) {
    BenchOptions opts;
    opts.driver.warmup = std::chrono::milliseconds(50);
    opts.driver.duration = std::chrono::milliseconds(300);
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--duration-ms=", 0) == 0) {
        opts.driver.duration = std::chrono::milliseconds(
            parse_number(arg.substr(14), "--duration-ms", 1));
      } else if (arg.rfind("--warmup-ms=", 0) == 0) {
        opts.driver.warmup = std::chrono::milliseconds(
            parse_number(arg.substr(12), "--warmup-ms", 0));
      } else if (arg.rfind("--report-interval-ms=", 0) == 0) {
        opts.driver.report_interval = std::chrono::milliseconds(
            parse_number(arg.substr(21), "--report-interval-ms", 1));
      } else if (arg.rfind("--threads=", 0) == 0) {
        opts.threads.clear();
        const std::string list = arg.substr(10);
        std::size_t pos = 0;
        while (pos <= list.size()) {
          std::size_t comma = list.find(',', pos);
          if (comma == std::string::npos) comma = list.size();
          opts.threads.push_back(static_cast<std::size_t>(
              parse_number(list.substr(pos, comma - pos), "--threads", 1)));
          pos = comma + 1;
        }
      } else if (arg == "--quick") {
        opts.driver.duration = std::chrono::milliseconds(100);
        opts.driver.warmup = std::chrono::milliseconds(20);
        opts.threads = {1, 2, 4};
      } else if (arg.rfind("--cs-work=", 0) == 0) {
        opts.cs_work = parse_number(arg.substr(10), "--cs-work", 0);
      } else if (arg == "--extended") {
        opts.extended = true;
      } else if (arg.rfind("--workload=", 0) == 0) {
        opts.workload_filter = arg.substr(11);
      } else if (arg.rfind("--json=", 0) == 0) {
        opts.json_path = arg.substr(7);
        if (opts.json_path.empty()) option_error("empty value for --json");
      } else if (arg.rfind("--trace=", 0) == 0) {
        opts.trace_path = arg.substr(8);
        if (opts.trace_path.empty()) option_error("empty value for --trace");
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
        bool present = false;
        for (const std::size_t t : opts.threads) {
          if (t == extra) {
            present = true;
            break;
          }
        }
        if (!present) opts.threads.push_back(extra);
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

// Suffix for a table heading: which cs_work setting the table measures.
inline const char* work_tag(std::uint32_t work) {
  return work == 0 ? " [paper parameters]" : " [contention-amplified]";
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

// ---- The paper's §3 engine roster ----------------------------------------

// HCF's class table for one data structure (adapters::*_paper_config) and
// its publication-array count.
struct HcfClasses {
  std::vector<core::ClassConfig> classes;
  std::size_t arrays = 1;
};

// The §3 comparison columns, in the paper's order.
inline const std::vector<std::string> kPaperRoster{"Lock", "TLE", "FC",
                                                   "SCM", "TLE+FC", "HCF"};

template <typename E, typename DS, typename Run, typename... Args>
harness::RunResult run_as(DS& ds, Run& run, Args&&... args) {
  E engine(ds, std::forward<Args>(args)...);
  return run(engine);
}

// Builds the engine `name` (a kPaperRoster column or "HCF-1C") over `ds`
// and returns run(engine); reclamation is drained once the engine is gone.
template <typename DS, typename Run>
harness::RunResult run_engine(const std::string& name, DS& ds,
                              const HcfClasses& hcf, Run&& run) {
  harness::RunResult result;
  if (name == "Lock") {
    result = run_as<core::LockEngine<DS>>(ds, run);
  } else if (name == "TLE") {
    result = run_as<core::TleEngine<DS>>(ds, run);
  } else if (name == "FC") {
    result = run_as<core::FcEngine<DS>>(ds, run);
  } else if (name == "SCM") {
    result = run_as<core::ScmEngine<DS>>(ds, run);
  } else if (name == "TLE+FC") {
    result = run_as<core::TleFcEngine<DS>>(ds, run);
  } else if (name == "HCF") {
    result = run_as<core::HcfEngine<DS>>(ds, run, hcf.classes, hcf.arrays);
  } else if (name == "HCF-1C") {
    result = run_as<core::HcfSingleCombinerEngine<DS>>(ds, run, hcf.classes,
                                                       hcf.arrays);
  } else {
    std::fprintf(stderr, "unknown engine '%s'\n", name.c_str());
    std::abort();
  }
  mem::EbrDomain::instance().drain();
  return result;
}

// The roster sweep: panel x cs_work x threads x engine, one throughput
// table per (panel, cs_work). `panels` holds the bench's own panel type
// with a `tag` (what --workload selects); begin_table(panel, work) prints
// the table's heading and returns its JSON workload key, and
// run_cell(panel, work, engine, threads) measures one cell.
template <typename Panels, typename BeginTable, typename RunCell>
void roster_sweep(const BenchOptions& opts, BenchReport& report,
                  const Panels& panels,
                  const std::vector<std::string>& engines,
                  const std::vector<std::uint32_t>& works,
                  BeginTable&& begin_table, RunCell&& run_cell) {
  std::vector<std::string> tags;
  for (const auto& panel : panels) tags.emplace_back(panel.tag);
  opts.require_workload(tags);
  std::vector<std::string> header{"threads"};
  header.insert(header.end(), engines.begin(), engines.end());
  for (const auto& panel : panels) {
    if (!opts.selects(panel.tag)) continue;
    for (const std::uint32_t work : works) {
      const std::string workload = begin_table(panel, work);
      util::TextTable table(header);
      for (const std::size_t threads : opts.threads) {
        std::vector<std::string> row{std::to_string(threads)};
        for (const std::string& engine : engines) {
          const auto result = run_cell(panel, work, engine, threads);
          report.add(workload, engine, threads, work, result);
          row.push_back(util::TextTable::num(result.throughput_mops()));
        }
        table.add_row(std::move(row));
      }
      table.print(std::cout);
    }
  }
}

}  // namespace hcf::bench
