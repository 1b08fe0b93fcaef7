// Timed multi-thread benchmark driver.
//
// Spawns N worker threads, each repeatedly issuing one operation through an
// engine until the stop flag fires. The driver snapshots every counter after
// a warm-up interval and reports deltas, so every number covers exactly the
// measurement window (a mid-run reset could be undone by a concurrent
// Counter::add), and pins threads with the paper's fill-one-socket-first
// policy.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <thread>
#include <vector>

#include <memory>

#include "core/engine_stats.hpp"
#include "mem/pool.hpp"
#include "sim_htm/stats.hpp"
#include "telemetry/telemetry.hpp"
#include "util/affinity.hpp"
#include "util/barrier.hpp"
#include "util/cacheline.hpp"
#include "util/histogram.hpp"
#include "util/parking.hpp"

namespace hcf::harness {

namespace detail {

// Engines normally expose one live EngineStats& (stats()); a sharded
// meta-engine owns one per shard and exposes a merged value snapshot
// instead (stats_snapshot()). Preferring the snapshot hook when present
// lets run_timed drive both without constraining either surface.
template <typename Engine>
core::EngineStatsSnapshot capture_stats(Engine& engine) {
  if constexpr (requires { engine.stats_snapshot(); }) {
    return engine.stats_snapshot();
  } else {
    return core::EngineStatsSnapshot::capture(engine.stats());
  }
}

}  // namespace detail

struct RunResult {
  std::uint64_t total_ops = 0;
  double duration_s = 0.0;
  core::EngineStatsSnapshot engine;
  htm::StatsSnapshot htm;
  // Reclamation traffic over the measurement window (mem/pool.hpp): how
  // many retires stayed local vs. crossed pools, and the batching those
  // crossings got (flush CASes, owner drains, refills).
  mem::ReclaimSnapshot reclaim;
  // Wait-tier traffic (util/parking.hpp): parks, wakes, yields.
  util::ParkSnapshot park;
  std::uint64_t lock_acquisitions = 0;
  // Operation latency percentiles in nanoseconds; only populated when
  // DriverOptions::measure_latency is set.
  std::uint64_t latency_p50_ns = 0;
  std::uint64_t latency_p99_ns = 0;
  std::uint64_t latency_p999_ns = 0;

  double throughput_mops() const noexcept {
    return duration_s == 0.0
               ? 0.0
               : static_cast<double>(total_ops) / duration_s / 1e6;
  }

  // Lock acquisitions per 1000 operations — the metric behind the paper's
  // Fig. 4 discussion.
  double lock_rate_per_kop() const noexcept {
    return total_ops == 0 ? 0.0
                          : 1000.0 * static_cast<double>(lock_acquisitions) /
                                static_cast<double>(total_ops);
  }

  double aborts_per_op() const noexcept {
    return total_ops == 0 ? 0.0
                          : static_cast<double>(htm.total_aborts()) /
                                static_cast<double>(total_ops);
  }

  // Instrumented shared-memory accesses per operation: the simulator's
  // cache-traffic proxy (DESIGN.md on Fig. 4).
  double shared_accesses_per_op() const noexcept {
    return total_ops == 0
               ? 0.0
               : static_cast<double>(htm.tx_reads + htm.tx_writes +
                                     htm.strong_stores) /
                     static_cast<double>(total_ops);
  }
};

struct DriverOptions {
  std::chrono::milliseconds warmup{50};
  std::chrono::milliseconds duration{300};
  bool pin_threads = true;
  // Yield between operations. With more workers than cores this emulates a
  // loaded machine where threads are frequently preempted mid-wait, which
  // is the arrival pattern that lets announced-operation backlogs form
  // (EXPERIMENTS.md, "oversubscription and combining degree").
  bool yield_every_op = false;
  // Time every operation and report p50/p99/p999 (adds ~2 clock reads per
  // op).
  bool measure_latency = false;
  // > 0: print a progress line to stderr every interval during the
  // measurement window — interval and cumulative throughput, plus
  // cumulative latency percentiles when measure_latency is on.
  std::chrono::milliseconds report_interval{0};
};

// `make_worker(thread_index)` returns a callable invoked repeatedly; each
// call must execute exactly one operation through the engine. `engine`
// only needs stats() (or stats_snapshot(), see detail::capture_stats — how
// sharded meta-engines register here) and lock_acquisitions().
template <typename Engine, typename WorkerFactory>
RunResult run_timed(Engine& engine, std::size_t num_threads,
                    WorkerFactory&& make_worker,
                    const DriverOptions& options = {}) {
  std::atomic<bool> stop{false};
  std::atomic<bool> measuring{false};
  std::unique_ptr<util::LatencyHistogram> histogram_owner;
  if (options.measure_latency) {
    histogram_owner = std::make_unique<util::LatencyHistogram>();
  }
  util::LatencyHistogram* histogram = histogram_owner.get();
  util::SpinBarrier barrier(num_threads + 1);
  // Per-thread progress counters, published with relaxed stores each op so
  // the interval reporter can read a running total without joining anyone.
  std::vector<util::CacheAligned<std::atomic<std::uint64_t>>> ops_done(
      num_threads);
  std::vector<std::thread> threads;
  threads.reserve(num_threads);

  for (std::size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      if (options.pin_threads) util::pin_to_cpu(t);
      auto worker = make_worker(t);
      barrier.arrive_and_wait();  // start of warmup
      std::uint64_t count = 0;
      bool counting = false;
      while (!stop.load(std::memory_order_relaxed)) {
        // Telemetry samples a 1-in-N subset of ops even when the full
        // histogram is off, so traces carry latency without per-op clocks.
        const bool sampled = telemetry::should_sample_op();
        if ((histogram != nullptr && counting) || sampled) {
          const auto op_start = std::chrono::steady_clock::now();
          worker();
          const auto op_end = std::chrono::steady_clock::now();
          const auto ns = static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(op_end -
                                                                   op_start)
                  .count());
          if (histogram != nullptr && counting) histogram->record(ns);
          if (sampled) telemetry::op_latency(ns);
        } else {
          worker();
        }
        if (options.yield_every_op) std::this_thread::yield();
        if (counting) {
          ops_done[t].value.store(++count, std::memory_order_relaxed);
        } else if (measuring.load(std::memory_order_relaxed)) {
          counting = true;  // measurement window opened
        }
      }
    });
  }

  barrier.arrive_and_wait();
  std::this_thread::sleep_for(options.warmup);

  const auto base_htm = htm::StatsSnapshot::capture();
  const auto base_engine = detail::capture_stats(engine);
  const auto base_reclaim = mem::ReclaimSnapshot::capture();
  const auto base_park = util::ParkSnapshot::capture();
  const std::uint64_t base_locks = engine.lock_acquisitions();
  const auto start = std::chrono::steady_clock::now();
  measuring.store(true, std::memory_order_relaxed);

  auto running_total = [&ops_done] {
    std::uint64_t sum = 0;
    for (const auto& slot : ops_done) {
      sum += slot.value.load(std::memory_order_relaxed);
    }
    return sum;
  };

  if (options.report_interval.count() > 0) {
    const auto deadline = start + options.duration;
    auto next = start + options.report_interval;
    std::uint64_t prev_total = 0;
    int tick = 0;
    while (next < deadline) {
      std::this_thread::sleep_until(next);
      const double elapsed_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      const std::uint64_t total = running_total();
      const double interval_s =
          std::chrono::duration<double>(options.report_interval).count();
      std::fprintf(stderr,
                   "[interval %d] t=%.1fs ops=%llu (+%llu, %.2f Mops/s)",
                   ++tick, elapsed_s,
                   static_cast<unsigned long long>(total),
                   static_cast<unsigned long long>(total - prev_total),
                   static_cast<double>(total - prev_total) / interval_s /
                       1e6);
      if (histogram != nullptr) {
        std::fprintf(
            stderr, " p50=%lluns p99=%lluns",
            static_cast<unsigned long long>(histogram->percentile(0.50)),
            static_cast<unsigned long long>(histogram->percentile(0.99)));
      }
      std::fprintf(stderr, "\n");
      prev_total = total;
      next += options.report_interval;
    }
    std::this_thread::sleep_until(deadline);
  } else {
    std::this_thread::sleep_for(options.duration);
  }

  stop.store(true, std::memory_order_relaxed);
  const auto end = std::chrono::steady_clock::now();
  for (auto& th : threads) th.join();

  RunResult result;
  result.duration_s =
      std::chrono::duration<double>(end - start).count();
  result.total_ops = running_total();
  result.engine = detail::capture_stats(engine).delta_since(base_engine);
  result.htm = htm::StatsSnapshot::capture().delta_since(base_htm);
  result.reclaim = mem::ReclaimSnapshot::capture().delta_since(base_reclaim);
  result.park = util::ParkSnapshot::capture().delta_since(base_park);
  result.lock_acquisitions = engine.lock_acquisitions() - base_locks;
  if (histogram != nullptr) {
    result.latency_p50_ns = histogram->percentile(0.50);
    result.latency_p99_ns = histogram->percentile(0.99);
    result.latency_p999_ns = histogram->percentile(0.999);
  }
  return result;
}

}  // namespace hcf::harness
