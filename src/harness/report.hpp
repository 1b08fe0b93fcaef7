// Machine-readable benchmark results: the "hcf-bench-v1" JSON schema.
//
// Every figure/ablation binary can emit its measurements through JsonReport
// (bench_util.hpp wires it to --json=FILE); tools/perflab/run.py collects
// the files into BENCH_<name>.json at the repo root and compare.py diffs
// two collections with noise-aware thresholds. The schema is versioned so
// downstream tooling can reject files it does not understand, and the field
// set mirrors what the paper's figures are read from: throughput, phase
// breakdown (Fig. 3), combining degree (Fig. 4), abort counts, and latency
// percentiles. Counter groups come from the layer counter tables
// (util/counters.hpp), so every counter of every layer is in every row.
//
// Output is deterministic for a given row set (fixed field order, fixed
// float formatting, no timestamps), which is what lets tests golden-file
// it. Host details are injected via HostInfo so tests can pin them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "harness/driver.hpp"
#include "telemetry/telemetry.hpp"

namespace hcf::harness {

inline constexpr const char* kBenchSchema = "hcf-bench-v1";

struct HostInfo {
  std::string os = "unknown";
  unsigned hardware_threads = 0;
  std::string sanitizer = "none";
  bool telemetry_compiled = false;

  static HostInfo detect() {
    HostInfo h;
#if defined(__linux__)
    h.os = "linux";
#elif defined(__APPLE__)
    h.os = "darwin";
#endif
    h.hardware_threads = std::thread::hardware_concurrency();
#if defined(HCF_TSAN)
    h.sanitizer = "thread";
#elif defined(__SANITIZE_ADDRESS__)
    h.sanitizer = "address";
#endif
    h.telemetry_compiled = telemetry::kCompiledIn;
    return h;
  }

  // Fixed values for byte-exact golden-file tests.
  static HostInfo fixed_for_tests() {
    return HostInfo{"testhost", 4, "none", true};
  }
};

namespace detail {

inline void json_escape(std::ostream& os, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

// Locale-independent fixed formatting so output is reproducible.
inline std::string json_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

// A counter value: a number, a JSON array for an array shape, or an object
// keyed by the shape's labels.
template <typename Shape, typename V>
void write_counter(std::ostream& os, Shape, const V& v) {
  if constexpr (requires { Shape::labels; }) {
    static_assert(std::size(Shape::labels) == std::size(V{}));
    const char* sep = "{";
    for (const util::Label& l : Shape::labels) {
      os << std::exchange(sep, ", ") << '"' << l.name << "\": " << v[l.index];
    }
    os << '}';
  } else if constexpr (requires { std::size(v); }) {
    const char* sep = "[";
    for (const auto& e : v) {
      os << std::exchange(sep, ", ");
      write_counter(os, util::Scalar{}, e);
    }
    os << ']';
  } else {
    os << v;
  }
}

// Writes a row's counter groups from the layer tables. group() writes one
// group's `"key": value` pairs in table order; rest() appends every group
// no group() call placed as an object at the end of the row. A new counter
// thus lands at the end of its group, a new group at the end of the row.
class CounterGroups {
 public:
  explicit CounterGroups(std::ostream& os) : os_(os) {}

  template <typename Snap>
  void group(const Snap& snap, std::string_view name) {
    placed_.push_back(name);
    const char* sep = "";
    snap.for_each([&](auto shape, std::string_view group, const char* key,
                      const auto& value) {
      if (group != name) return;
      os_ << std::exchange(sep, ", ") << '"' << key << "\": ";
      write_counter(os_, shape, value);
    });
  }

  template <typename Snap>
  void rest(const Snap& snap) {
    snap.for_each([&](auto, std::string_view name, const char*, const auto&) {
      if (std::find(placed_.begin(), placed_.end(), name) != placed_.end()) {
        return;
      }
      os_ << ",\n     \"" << name << "\": {";
      group(snap, name);
      os_ << '}';
    });
  }

 private:
  std::ostream& os_;
  std::vector<std::string_view> placed_;
};

}  // namespace detail

// One measured configuration: a (workload, engine, threads, cs_work) cell
// plus everything RunResult knows about it.
struct ReportRow {
  std::string workload;
  std::string engine;
  std::size_t threads = 0;
  std::uint32_t cs_work = 0;
  RunResult result;
};

class JsonReport {
 public:
  explicit JsonReport(std::string bench, HostInfo host = HostInfo::detect())
      : bench_(std::move(bench)), host_(std::move(host)) {}

  void add_row(std::string workload, std::string engine, std::size_t threads,
               std::uint32_t cs_work, const RunResult& result) {
    rows_.push_back(ReportRow{std::move(workload), std::move(engine), threads,
                              cs_work, result});
  }

  std::size_t size() const noexcept { return rows_.size(); }
  const std::string& bench() const noexcept { return bench_; }

  void write(std::ostream& os) const {
    os << "{\n";
    os << "  \"schema\": \"" << kBenchSchema << "\",\n";
    os << "  \"bench\": \"";
    detail::json_escape(os, bench_);
    os << "\",\n";
    os << "  \"host\": {\"os\": \"";
    detail::json_escape(os, host_.os);
    os << "\", \"hardware_threads\": " << host_.hardware_threads
       << ", \"sanitizer\": \"";
    detail::json_escape(os, host_.sanitizer);
    os << "\", \"telemetry\": "
       << (host_.telemetry_compiled ? "true" : "false")
       << ", \"sim_htm\": true},\n";
    os << "  \"results\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      os << (i == 0 ? "\n" : ",\n");
      write_row(os, rows_[i]);
    }
    os << "\n  ]\n}\n";
  }

  // Returns false (and prints to stderr) if the file cannot be written.
  bool write_file(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return false;
    }
    write(out);
    return out.good();
  }

 private:
  static void write_row(std::ostream& os, const ReportRow& row) {
    const RunResult& r = row.result;
    os << "    {\"workload\": \"";
    detail::json_escape(os, row.workload);
    os << "\", \"engine\": \"";
    detail::json_escape(os, row.engine);
    os << "\", \"threads\": " << row.threads
       << ", \"cs_work\": " << row.cs_work << ",\n";
    os << "     \"ops\": " << r.total_ops
       << ", \"duration_s\": " << detail::json_double(r.duration_s)
       << ", \"ops_per_sec\": "
       << detail::json_double(r.throughput_mops() * 1e6) << ",\n";
    os << "     \"phases\": {\"private\": "
       << r.engine.phase_total(core::Phase::Private)
       << ", \"visible\": " << r.engine.phase_total(core::Phase::Visible)
       << ", \"combining\": " << r.engine.phase_total(core::Phase::Combining)
       << ", \"under_lock\": "
       << r.engine.phase_total(core::Phase::UnderLock) << "},\n";
    detail::CounterGroups counters(os);
    os << "     \"combining\": {";
    counters.group(r.engine, "combining");
    os << ", \"degree\": " << detail::json_double(r.engine.combining_degree())
       << "},\n";
    os << "     \"delegation\": {";
    counters.group(r.engine, "delegation");
    os << "},\n     \"htm\": {";
    counters.group(r.htm, "htm");
    os << "},\n     \"reclamation\": {";
    counters.group(r.reclaim, "reclamation");
    os << "},\n";
    os << "     \"lock_acquisitions\": " << r.lock_acquisitions
       << ", \"latency_ns\": {\"p50\": " << r.latency_p50_ns
       << ", \"p99\": " << r.latency_p99_ns
       << ", \"p999\": " << r.latency_p999_ns << '}';
    counters.rest(r.engine);
    counters.rest(r.htm);
    counters.rest(r.reclaim);
    counters.rest(r.park);
    os << '}';
  }

  std::string bench_;
  HostInfo host_;
  std::vector<ReportRow> rows_;
};

}  // namespace hcf::harness
