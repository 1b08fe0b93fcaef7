// The shared main of the google-benchmark binaries (micro_substrate,
// micro_engine), so they speak the same machine-readable protocol as the
// table benches:
//   --json=FILE   write an hcf-bench-v1 report (one row per benchmark run)
//   --quick       short measurement window (maps to --benchmark_min_time)
// All --benchmark_* flags pass through to google-benchmark unchanged.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "harness/report.hpp"

namespace hcf::bench {

// Console output plus one hcf-bench-v1 row per successful run, keyed
// (benchmark name, `engine`, threads, 0).
class CollectingReporter final : public benchmark::ConsoleReporter {
 public:
  CollectingReporter(const char* bench_name, const char* engine)
      : report_(bench_name), engine_(engine) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      harness::RunResult result;
      result.total_ops = static_cast<std::uint64_t>(run.iterations);
      result.duration_s = run.real_accumulated_time;
      report_.add_row(run.benchmark_name(), engine_,
                      static_cast<std::size_t>(run.threads), 0, result);
    }
    ConsoleReporter::ReportRuns(reports);
  }

  harness::JsonReport& report() { return report_; }

 private:
  harness::JsonReport report_;
  std::string engine_;
};

// Runs every registered benchmark; the return value is main()'s exit code.
inline int gbench_main(int argc, char** argv, const char* bench_name,
                       const char* engine) {
  std::string json_path;
  std::vector<char*> bench_args;
  bench_args.push_back(argv[0]);
  // Injected first so an explicit --benchmark_min_time later wins.
  static char quick_flag[] = "--benchmark_min_time=0.05";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
      if (json_path.empty()) {
        std::fprintf(stderr, "error: --json requires a file path\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      bench_args.insert(bench_args.begin() + 1, quick_flag);
    } else {
      bench_args.push_back(argv[i]);
    }
  }

  int bench_argc = static_cast<int>(bench_args.size());
  benchmark::Initialize(&bench_argc, bench_args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_args.data())) {
    return 2;
  }

  CollectingReporter reporter(bench_name, engine);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!json_path.empty() && !reporter.report().write_file(json_path)) {
    std::fprintf(stderr, "error: failed to write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace hcf::bench
