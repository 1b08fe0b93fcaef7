// Tests for the benchmark's own code: seeded streams, metric arithmetic,
// the audits, and that counter deltas cover only the measurement window.
// Build and run with `python3 perfbench/run.py --selftest`.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/tle_engine.hpp"
#include "metrics.hpp"
#include "runner.hpp"
#include "streams.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

const Metric* find_metric(const std::vector<Metric>& ms, const std::string& n) {
  for (const auto& m : ms) {
    if (m.name == n) return &m;
  }
  return nullptr;
}

std::vector<std::vector<PackedOp>> streams_for(const StreamSpec& spec,
                                               std::uint64_t seed,
                                               std::size_t threads,
                                               std::size_t length) {
  std::vector<std::vector<PackedOp>> s;
  for (std::size_t t = 0; t < threads; ++t) {
    s.push_back(make_stream(spec, seed, t, length));
  }
  return s;
}

RunConfig short_config(std::size_t threads) {
  RunConfig cfg;
  cfg.threads = threads;
  cfg.seed = 7;
  cfg.window_s = 0.2;
  cfg.warmup_s = 0.05;
  cfg.setups = 2;
  cfg.slices = 2;
  return cfg;
}

void test_streams_are_seeded() {
  const StreamSpec spec = ht_update().spec;
  const auto a = make_stream(spec, 42, 0, 1u << 14);
  const auto b = make_stream(spec, 42, 0, 1u << 14);
  const auto c = make_stream(spec, 43, 0, 1u << 14);
  const auto d = make_stream(spec, 42, 1, 1u << 14);
  CHECK(a == b);
  CHECK(a != c);
  CHECK(a != d);
}

void test_stream_mix_is_exact() {
  const std::size_t n = 1000;
  const auto s = make_stream(ht_update().spec, 1, 0, n);
  std::size_t counts[kNumOpKinds] = {};
  bool keys_in_range = true;
  for (const PackedOp p : s) {
    ++counts[static_cast<int>(kind_of(p))];
    keys_in_range = keys_in_range && key_of(p) < kHtKeys;
  }
  CHECK(s.size() == n);
  CHECK(counts[0] == 400 && counts[1] == 300 && counts[2] == 300);
  CHECK(counts[3] == 0);
  CHECK(keys_in_range);
  const auto q = make_stream(pq_combine().spec, 1, 0, 1u << 12);
  std::size_t inserts = 0;
  for (const PackedOp p : q) inserts += kind_of(p) == OpKind::Insert;
  CHECK(inserts * 2 == q.size());
}

void test_zero_base_ratio_prints_zero_and_base() {
  const Metric m = ratio_metric("core.combining_degree", "ops", 0, "ops selected",
                                0, "combiner sessions");
  CHECK(m.value == 0.0);
  CHECK(m.basis == "0 ops selected / 0 combiner sessions");
  const Metric k = ratio_metric("x", "1/kop", 3, "a", 4, "b", 1000.0);
  CHECK(k.value == 750.0);
  CHECK(k.basis == "3 a / 4 b");
}

void test_percentile_prints_sample_count() {
  LogHistogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  CHECK(h.count() == 1000);
  const Metric m = percentile_metric("latency_p50_us", "us", h.percentile(0.5),
                                     h.count(), "");
  CHECK(m.basis == "1000 samples");
  CHECK(std::fabs(h.percentile(0.5) - 500.0) < 500.0 * 0.01);
  CHECK(std::fabs(h.percentile(0.99) - 990.0) < 990.0 * 0.01);
  CHECK(LogHistogram{}.percentile(0.5) == 0.0);
}

void test_histogram_buckets_cover_values() {
  bool ok = true;
  for (std::uint64_t v : {0ull, 1ull, 255ull, 256ull, 257ull, 1000ull,
                          123456ull, 1ull << 33, (1ull << 40) + 12345}) {
    const std::size_t i = LogHistogram::index(v);
    ok = ok && i < LogHistogram::kBuckets && LogHistogram::lower(i) <= v &&
         v < LogHistogram::lower(i) + LogHistogram::width(i);
  }
  CHECK(ok);
  // Within one bucket the percentile interpolates instead of snapping.
  LogHistogram h;
  for (int i = 0; i < 100; ++i) h.record(1000);
  CHECK(h.percentile(0.25) < h.percentile(0.75));
}

void test_median() {
  CHECK(median({}) == 0.0);
  CHECK(median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(median({4.0, 1.0, 3.0, 2.0}) == 2.5);
}

void test_audit_detects_wrong_contents() {
  const HtWorkload wl = ht_update();
  auto table = wl.make();
  Tally tally;
  wl.prefill(*table, 1, tally);
  CHECK(wl.audit(*table, tally).failed == 0);
  table->insert(1, 5);  // wrong value, and one key more than the tally says
  const Audit a = wl.audit(*table, tally);
  CHECK(a.failed == 2);
  CHECK(!a.detail.empty());

  const PqWorkload pw = pq_combine();
  auto pq = pw.make();
  Tally pt;
  pw.prefill(*pq, 1, pt);
  pt.inserted_sum += 1;  // checksum off by one
  CHECK(pw.audit(*pq, pt).failed == 1);
  hcf::mem::EbrDomain::instance().drain();
}

// A short HCF run on the combining workload: phase shares sum to 1, commits
// never exceed starts, and the traced run keeps remove_min out of the
// private phase.
void test_hcf_counter_ratios() {
  const PqWorkload wl = pq_combine();
  RunConfig cfg = short_config(2);
  const auto streams = streams_for(wl.spec, cfg.seed, cfg.threads, 1u << 14);
  const RunResult r =
      run_workload(wl, streams, cfg, PqWorkload::make_engine);
  CHECK(r.failed == 0);
  const auto ms = counter_metrics(r.window);
  double share_sum = 0.0;
  for (const char* p : kPhaseNames) {
    const Metric* m = find_metric(ms, std::string("core.phase_share.") + p);
    CHECK(m != nullptr);
    if (m != nullptr) share_sum += m->value;
  }
  CHECK(std::fabs(share_sum - 1.0) < 1e-12);
  CHECK(r.window.htm.commits <= r.window.htm.starts);
  const Metric* ratio = find_metric(ms, "sim_htm.commit_ratio");
  CHECK(ratio != nullptr && ratio->value <= 1.0);
  CHECK(r.setup_s.size() == 2 && r.slice_mops.size() == 2);
  CHECK(r.slice_latency.size() == 2);

  cfg.traced = true;
  const RunResult t =
      run_workload(wl, streams, cfg, PqWorkload::make_engine);
  CHECK(t.failed == 0);
  const auto rm = static_cast<std::size_t>(OpKind::RemoveMin);
  CHECK(t.phase_latency[rm * hcf::core::kNumPhases].count() == 0);
  CHECK(t.records.size() == 2 && !t.records[0].empty());
}

// Counter deltas cover only the window: after an HCF run has left combining
// traffic in the global counters, a 1-thread TLE run reports no combining,
// and its engine completions match the ops counted in the window.
void test_deltas_cover_only_the_window() {
  const HtWorkload wl = ht_update();
  const RunConfig cfg = short_config(1);
  const auto streams = streams_for(wl.spec, cfg.seed, cfg.threads, 1u << 14);
  const RunResult r = run_workload(wl, streams, cfg, [](Table& t) {
    return std::make_unique<hcf::core::TleEngine<Table>>(t);
  });
  CHECK(r.failed == 0);
  const auto ms = counter_metrics(r.window);
  const Metric* combining = find_metric(ms, "core.phase_share.combining");
  const Metric* degree = find_metric(ms, "core.combining_degree");
  CHECK(combining != nullptr && combining->value == 0.0);
  CHECK(degree != nullptr && degree->value == 0.0);
  const std::uint64_t completions = r.window.engine.total();
  CHECK(completions > 0 && completions < r.attempted);
  const double gap = std::fabs(static_cast<double>(completions) -
                               static_cast<double>(r.window_ops));
  CHECK(gap < 0.05 * static_cast<double>(r.window_ops));
}

}  // namespace

int main() {
  test_streams_are_seeded();
  test_stream_mix_is_exact();
  test_zero_base_ratio_prints_zero_and_base();
  test_percentile_prints_sample_count();
  test_histogram_buckets_cover_values();
  test_median();
  test_audit_detects_wrong_contents();
  test_hcf_counter_ratios();
  test_deltas_cover_only_the_window();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench_test: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench_test: all checks passed\n");
  return 0;
}
