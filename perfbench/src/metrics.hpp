// Metric arithmetic: log-linear latency histograms with interpolated
// percentiles, medians, ratios that keep their base, and the window deltas
// of the program's always-on counters that the per-layer metrics divide.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "adapters/pq_ops.hpp"
#include "core/engine_stats.hpp"
#include "mem/pool.hpp"
#include "sim_htm/stats.hpp"
#include "util/parking.hpp"

namespace perfbench {

// Log-linear histogram of nanosecond durations: exact below 256 ns, then
// 128 buckets per power of two (under 0.8 % relative width) up to 2^41 ns.
// A percentile interpolates inside its bucket as grouped data, so it moves
// continuously with the counts instead of snapping to bucket edges.
class LogHistogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr std::uint64_t kExact = 2u << kSubBits;  // 256
  static constexpr int kMaxExp = 40;
  static constexpr std::size_t kBuckets =
      kExact + (static_cast<std::size_t>(kMaxExp - kSubBits) << kSubBits);

  void record(std::uint64_t ns) noexcept {
    ++counts_[index(ns)];
    ++count_;
  }

  void merge(const LogHistogram& other) noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
  }

  std::uint64_t count() const noexcept { return count_; }

  // q in [0, 1]; 0 when empty.
  double percentile(double q) const noexcept {
    if (count_ == 0) return 0.0;
    const double target = q * static_cast<double>(count_);
    std::uint64_t below = 0;
    std::size_t last = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const std::uint64_t c = counts_[i];
      if (c == 0) continue;
      last = i;
      if (static_cast<double>(below + c) > target) {
        return static_cast<double>(lower(i)) +
               (target - static_cast<double>(below)) / static_cast<double>(c) *
                   static_cast<double>(width(i));
      }
      below += c;
    }
    return static_cast<double>(lower(last) + width(last));
  }

  static std::size_t index(std::uint64_t ns) noexcept {
    if (ns < kExact) return static_cast<std::size_t>(ns);
    int e = std::bit_width(ns) - 1;  // >= kSubBits + 1
    if (e > kMaxExp) return kBuckets - 1;
    const std::uint64_t sub = (ns >> (e - kSubBits)) & ((1u << kSubBits) - 1);
    return static_cast<std::size_t>(kExact) +
           (static_cast<std::size_t>(e - kSubBits - 1) << kSubBits) +
           static_cast<std::size_t>(sub);
  }
  static std::uint64_t lower(std::size_t i) noexcept {
    if (i < kExact) return i;
    const std::size_t j = i - kExact;
    const int e = static_cast<int>(j >> kSubBits) + kSubBits + 1;
    const std::uint64_t sub = j & ((1u << kSubBits) - 1);
    return ((std::uint64_t{1} << kSubBits) + sub) << (e - kSubBits);
  }
  static std::uint64_t width(std::size_t i) noexcept {
    if (i < kExact) return 1;
    const int e = static_cast<int>((i - kExact) >> kSubBits) + kSubBits + 1;
    return std::uint64_t{1} << (e - kSubBits);
  }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
};

// Median; the mean of the two middle values for an even count, 0 if empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// One reported metric. `basis` says what it was computed from (the sample
// count of a percentile, the numerator and base of a ratio) and is printed
// beside it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string basis;
};

// scale * num / base, or 0 when the base is 0; the basis keeps both counts
// so a 0 from an empty base is distinguishable from a measured 0.
inline Metric ratio_metric(std::string name, std::string unit,
                           std::uint64_t num, const char* num_label,
                           std::uint64_t base, const char* base_label,
                           double scale = 1.0) {
  char basis[160];
  std::snprintf(basis, sizeof basis, "%llu %s / %llu %s",
                static_cast<unsigned long long>(num), num_label,
                static_cast<unsigned long long>(base), base_label);
  const double value =
      base == 0 ? 0.0
                : scale * static_cast<double>(num) / static_cast<double>(base);
  return {std::move(name), value, std::move(unit), basis};
}

inline Metric percentile_metric(std::string name, std::string unit,
                                double value, std::uint64_t samples,
                                const std::string& how) {
  char basis[200];
  std::snprintf(basis, sizeof basis, "%llu samples%s%s",
                static_cast<unsigned long long>(samples),
                how.empty() ? "" : "; ", how.c_str());
  return {std::move(name), value, std::move(unit), basis};
}

// Always-on program counters read at one instant. The difference of two
// captures covers exactly the interval between them.
struct Counters {
  hcf::core::EngineStatsSnapshot engine;
  hcf::htm::StatsSnapshot htm;
  hcf::mem::ReclaimSnapshot reclaim;
  std::uint64_t parks = 0;
  std::uint64_t yields = 0;
  std::uint64_t wakes = 0;
  std::uint64_t lock_acquisitions = 0;
  std::uint64_t pq_eliminations = 0;

  template <typename Engine>
  static Counters capture(Engine& engine) {
    Counters c;
    c.engine = hcf::core::EngineStatsSnapshot::capture(engine.stats());
    c.htm = hcf::htm::StatsSnapshot::capture();
    c.reclaim = hcf::mem::ReclaimSnapshot::capture();
    const auto& park = hcf::util::park_stats();
    c.parks = park.parks.total();
    c.yields = park.yields.total();
    c.wakes = park.wakes.total();
    c.lock_acquisitions = engine.lock_acquisitions();
    c.pq_eliminations = hcf::adapters::PqOpBase<std::uint64_t>::eliminations();
    return c;
  }

  Counters delta_since(const Counters& base) const {
    Counters d;
    d.engine = engine.delta_since(base.engine);
    d.htm = htm.delta_since(base.htm);
    d.reclaim = reclaim.delta_since(base.reclaim);
    d.parks = parks - base.parks;
    d.yields = yields - base.yields;
    d.wakes = wakes - base.wakes;
    d.lock_acquisitions = lock_acquisitions - base.lock_acquisitions;
    d.pq_eliminations = pq_eliminations - base.pq_eliminations;
    return d;
  }
};

inline constexpr const char* kPhaseNames[hcf::core::kNumPhases] = {
    "private", "visible", "combining", "under_lock"};

// The per-layer metrics that are ratios of counter deltas over one window.
// Every "per op" divides by the engine's completions in the window.
inline std::vector<Metric> counter_metrics(const Counters& w) {
  using hcf::core::Phase;
  namespace htm = hcf::htm;
  const std::uint64_t ops = w.engine.total();
  std::vector<Metric> m;
  for (int p = 0; p < hcf::core::kNumPhases; ++p) {
    m.push_back(ratio_metric(std::string("core.phase_share.") + kPhaseNames[p],
                             "frac", w.engine.phase_total(static_cast<Phase>(p)),
                             "completions", ops, "ops"));
  }
  std::uint64_t failures = 0;
  for (auto f : w.engine.attempt_failures) failures += f;
  m.push_back(ratio_metric("core.attempt_failures_per_op", "1/op", failures,
                           "failed attempts", ops, "ops"));
  m.push_back(ratio_metric("core.combining_degree", "ops", w.engine.ops_selected,
                           "ops selected", w.engine.combiner_sessions,
                           "combiner sessions"));
  m.push_back(ratio_metric("core.helped_frac", "frac", w.engine.helped_ops,
                           "helped ops", ops, "ops"));
  m.push_back(ratio_metric("core.combiner_sessions_per_kop", "1/kop",
                           w.engine.combiner_sessions, "combiner sessions", ops,
                           "ops", 1000.0));
  m.push_back(ratio_metric("core.batch_group_size", "ops",
                           w.engine.batch_group_sizes, "grouped ops",
                           w.engine.batch_groups, "groups"));
  m.push_back(ratio_metric("core.delegated_ops_frac", "frac",
                           w.engine.delegated_ops, "delegated ops", ops, "ops"));

  m.push_back(ratio_metric("sim_htm.starts_per_op", "1/op", w.htm.starts,
                           "tx starts", ops, "ops"));
  m.push_back(ratio_metric("sim_htm.commit_ratio", "frac", w.htm.commits,
                           "commits", w.htm.starts, "tx starts"));
  const std::pair<const char*, htm::AbortCode> aborts[] = {
      {"conflict", htm::AbortCode::Conflict},
      {"capacity", htm::AbortCode::Capacity},
      {"explicit", htm::AbortCode::Explicit},
      {"lock_busy", htm::AbortCode::LockBusy}};
  for (const auto& [label, code] : aborts) {
    m.push_back(ratio_metric(std::string("sim_htm.aborts_per_op.") + label,
                             "1/op", w.htm.aborts[static_cast<int>(code)],
                             "aborts", ops, "ops"));
  }
  m.push_back(ratio_metric("sim_htm.reads_per_op", "1/op", w.htm.tx_reads,
                           "tx reads", ops, "ops"));
  m.push_back(ratio_metric("sim_htm.writes_per_op", "1/op", w.htm.tx_writes,
                           "tx writes", ops, "ops"));
  m.push_back(ratio_metric("sim_htm.extensions_per_op", "1/op",
                           w.htm.snapshot_extensions, "snapshot extensions",
                           ops, "ops"));
  m.push_back(ratio_metric("sim_htm.ro_commit_frac", "frac",
                           w.htm.read_only_commits, "read-only commits",
                           w.htm.commits, "commits"));
  m.push_back(ratio_metric("sim_htm.strong_stores_per_op", "1/op",
                           w.htm.strong_stores, "strong stores", ops, "ops"));

  m.push_back(ratio_metric("sync.locks_per_kop", "1/kop", w.lock_acquisitions,
                           "lock acquisitions", ops, "ops", 1000.0));
  m.push_back(ratio_metric("util.parks_per_kop", "1/kop", w.parks, "parks", ops,
                           "ops", 1000.0));
  m.push_back(ratio_metric("util.yields_per_kop", "1/kop", w.yields, "yields",
                           ops, "ops", 1000.0));
  m.push_back(ratio_metric("util.wakes_per_kop", "1/kop", w.wakes, "wakes", ops,
                           "ops", 1000.0));

  const std::uint64_t retires = w.reclaim.local_retires + w.reclaim.remote_retires;
  m.push_back(ratio_metric("mem.retires_per_op", "1/op", retires, "retires",
                           ops, "ops"));
  m.push_back(ratio_metric("mem.remote_retire_frac", "frac",
                           w.reclaim.remote_retires, "remote retires", retires,
                           "retires"));
  m.push_back(ratio_metric("mem.blocks_per_flush", "blocks",
                           w.reclaim.remote_retires, "remote retires",
                           w.reclaim.remote_flushes, "remote flushes"));
  m.push_back(ratio_metric("mem.refills_per_kop", "1/kop",
                           w.reclaim.pool_refills, "pool refills", ops, "ops",
                           1000.0));
  m.push_back(ratio_metric("adapters.pq_eliminations_per_kop", "1/kop",
                           w.pq_eliminations, "eliminations", ops, "ops",
                           1000.0));
  return m;
}

}  // namespace perfbench
