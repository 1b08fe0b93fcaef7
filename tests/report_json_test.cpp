// Tests for the hcf-bench-v1 JSON emitter: golden-file comparison of a
// fully-populated report (determinism is part of the schema contract —
// see harness/report.hpp), escaping, and file round-trip.
//
// Regenerate the golden after an intentional schema change with:
//   HCF_UPDATE_GOLDEN=1 ./build/tests/report_json_test
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/report.hpp"

namespace {

using namespace hcf;

std::string golden_path() {
  return std::string(HCF_GOLDEN_DIR) + "/report_v1.json";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// A report with two rows whose every field is deterministic.
harness::JsonReport make_fixed_report() {
  harness::JsonReport report("golden_bench",
                             harness::HostInfo::fixed_for_tests());

  harness::RunResult hcf_row;
  hcf_row.total_ops = 120000;
  hcf_row.duration_s = 0.5;
  hcf_row.engine.completions[0][0] = 70000;  // class 0: private
  hcf_row.engine.completions[0][2] = 20000;  // class 0: combining
  hcf_row.engine.completions[1][1] = 25000;  // class 1: visible
  hcf_row.engine.completions[1][3] = 5000;   // class 1: under lock
  hcf_row.engine.combiner_sessions = 4000;
  hcf_row.engine.ops_selected = 25000;
  hcf_row.engine.combine_rounds = 6000;
  hcf_row.engine.helped_ops = 21000;
  hcf_row.engine.delegated_groups = 1500;
  hcf_row.engine.delegated_ops = 6000;
  hcf_row.engine.delegate_applies = 1400;
  hcf_row.engine.delegate_fallbacks = 100;
  hcf_row.engine.delegate_conflict_aborts = 40;
  hcf_row.engine.attempt_failures[0] = 3000;
  hcf_row.engine.batch_groups = 900;
  hcf_row.engine.batch_group_sizes = 2700;
  hcf_row.htm.starts = 200000;
  hcf_row.htm.commits = 115000;
  hcf_row.htm.read_only_commits = 60000;
  hcf_row.htm.aborts[static_cast<int>(htm::AbortCode::Conflict)] = 50000;
  hcf_row.htm.aborts[static_cast<int>(htm::AbortCode::Capacity)] = 1000;
  hcf_row.htm.aborts[static_cast<int>(htm::AbortCode::Explicit)] = 30000;
  hcf_row.htm.aborts[static_cast<int>(htm::AbortCode::LockBusy)] = 4000;
  hcf_row.htm.tx_reads = 900000;
  hcf_row.htm.tx_writes = 150000;
  hcf_row.htm.snapshot_extensions = 700;
  hcf_row.park.yields = 12000;
  hcf_row.lock_acquisitions = 5000;
  hcf_row.latency_p50_ns = 800;
  hcf_row.latency_p99_ns = 12000;
  hcf_row.latency_p999_ns = 90000;
  report.add_row("40f/30i/30r", "HCF", 4, 0, hcf_row);

  harness::RunResult lock_row;  // mostly-zero row: defaults must serialize
  lock_row.total_ops = 30000;
  lock_row.duration_s = 0.5;
  lock_row.engine.completions[0][3] = 30000;
  lock_row.lock_acquisitions = 30000;
  report.add_row("40f/30i/30r", "Lock", 1, 25, lock_row);

  return report;
}

TEST(ReportJson, MatchesGoldenFile) {
  const harness::JsonReport report = make_fixed_report();
  std::ostringstream os;
  report.write(os);
  const std::string produced = os.str();

  if (std::getenv("HCF_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path());
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    out << produced;
    GTEST_SKIP() << "golden updated: " << golden_path();
  }

  const std::string expected = read_file(golden_path());
  ASSERT_FALSE(expected.empty())
      << "missing golden file " << golden_path()
      << " (generate with HCF_UPDATE_GOLDEN=1)";
  EXPECT_EQ(produced, expected);
}

TEST(ReportJson, ComputedFieldsAreConsistent) {
  const harness::JsonReport report = make_fixed_report();
  std::ostringstream os;
  report.write(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\": \"hcf-bench-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"ops_per_sec\": 240000.000000"), std::string::npos);
  EXPECT_NE(json.find("\"degree\": 6.250000"), std::string::npos);
  // phase_total sums across classes: private 70000, visible 25000.
  EXPECT_NE(json.find("\"private\": 70000"), std::string::npos);
  EXPECT_NE(json.find("\"visible\": 25000"), std::string::npos);
  // Parallel-combining block (delegated groups and who applied them).
  EXPECT_NE(json.find("\"delegation\": {\"groups\": 1500"), std::string::npos);
  EXPECT_NE(json.find("\"delegate_applies\": 1400"), std::string::npos);
  EXPECT_EQ(report.size(), 2u);
}

// The text of the JSON value that follows `"name": ` in `text`, from
// `from` on: a balanced {...} or [...], or a bare scalar.
std::string value_after(const std::string& text, const std::string& name,
                        std::size_t from = 0) {
  const std::string needle = "\"" + name + "\": ";
  const std::size_t at = text.find(needle, from);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + needle.size();
  std::size_t end = begin;
  int depth = 0;
  for (; end < text.size(); ++end) {
    const char c = text[end];
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') {
      if (depth == 0) break;
      if (--depth == 0) {
        ++end;
        break;
      }
    }
    if (c == ',' && depth == 0) break;
  }
  return text.substr(begin, end - begin);
}

std::vector<std::uint64_t> numbers_in(const std::string& text) {
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < text.size();) {
    if (std::isdigit(static_cast<unsigned char>(text[i])) == 0) {
      ++i;
      continue;
    }
    std::size_t len = 0;
    out.push_back(std::stoull(text.substr(i), &len));
    i += len;
  }
  return out;
}

// A field's values in the order the report writes them: label order for a
// labelled shape, element order otherwise.
template <typename Shape, typename V>
std::vector<std::uint64_t> emitted_values(Shape, const V& field) {
  std::vector<std::uint64_t> out;
  if constexpr (requires { Shape::labels; }) {
    for (const util::Label& l : Shape::labels) out.push_back(field[l.index]);
  } else {
    util::for_each_leaf([&](std::uint64_t v) { out.push_back(v); }, field);
  }
  return out;
}

// Every counter of all four layer tables reaches the row, under its table
// group and key, with its value. Driven from the tables, so a counter added
// to one is covered without editing this test.
TEST(ReportJson, RowCarriesEveryTableCounter) {
  harness::RunResult r;
  r.total_ops = 1;
  r.duration_s = 1.0;
  std::uint64_t next = 1000;
  auto fill = [&next](std::uint64_t& v) { v = next++; };
  util::for_each_counter<core::EngineCounters>(fill, r.engine);
  util::for_each_counter<htm::HtmCounters>(fill, r.htm);
  util::for_each_counter<mem::ReclaimCounters>(fill, r.reclaim);
  util::for_each_counter<util::ParkCounters>(fill, r.park);

  harness::JsonReport report("coverage", harness::HostInfo::fixed_for_tests());
  report.add_row("w", "e", 1, 0, r);
  std::ostringstream os;
  report.write(os);
  const std::string json = os.str();

  std::size_t checked = 0;
  auto check = [&](const auto& snap) {
    snap.for_each([&](auto shape, const char* group, const char* key,
                      const auto& field) {
      // Groups are objects; "combining" is also a plain key under "phases".
      const std::string object =
          value_after(json, group, json.find("\"" + std::string(group) +
                                             "\": {"));
      ASSERT_FALSE(object.empty()) << "missing group " << group;
      EXPECT_EQ(numbers_in(value_after(object, key)),
                emitted_values(shape, field))
          << group << "." << key;
      ++checked;
    });
  };
  check(r.engine);
  check(r.htm);
  check(r.reclaim);
  check(r.park);
  EXPECT_GT(checked, 0u);
}

TEST(ReportJson, EscapesStrings) {
  harness::JsonReport report("quote\"back\\slash",
                             harness::HostInfo::fixed_for_tests());
  harness::RunResult r;
  r.total_ops = 1;
  r.duration_s = 1.0;
  report.add_row("tab\there", "new\nline", 1, 0, r);
  std::ostringstream os;
  report.write(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("quote\\\"back\\\\slash"), std::string::npos);
  EXPECT_NE(json.find("tab\\there"), std::string::npos);
  EXPECT_NE(json.find("new\\nline"), std::string::npos);
}

TEST(ReportJson, WriteFileRoundTrips) {
  const harness::JsonReport report = make_fixed_report();
  const std::string path = ::testing::TempDir() + "report_json_test.json";
  ASSERT_TRUE(report.write_file(path));
  std::ostringstream os;
  report.write(os);
  EXPECT_EQ(read_file(path), os.str());
  std::remove(path.c_str());

  EXPECT_FALSE(report.write_file("/nonexistent-dir/x/y.json"));
}

}  // namespace
