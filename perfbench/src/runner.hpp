// The closed-loop runner: set-up, warm-up, a sliced measurement window and
// teardown for one workload, timed entirely from outside the program.
//
// Each worker thread issues its next operation as soon as the previous one
// returns. The untraced loop times a fixed 1-in-N sample of execute() calls;
// the traced loop times every call and keeps (thread, seq, class, phase,
// start, end) records. The window is cut into equal slices so that
// end-to-end figures can be reported as medians over slices, which a
// transient stall on a shared host moves far less than a whole-window mean.
#pragma once

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "mem/ebr.hpp"
#include "metrics.hpp"
#include "streams.hpp"
#include "workloads.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// The untraced loop times 1 op in this many (a power of two).
inline constexpr std::uint32_t kSamplePeriod = 64;
// The traced loop keeps this many last op records per thread (a power of
// two).
inline constexpr std::size_t kTraceRing = 1u << 16;

struct RunConfig {
  std::size_t threads = 4;
  std::uint64_t seed = 1;
  double window_s = 10.0;
  double warmup_s = 1.0;
  int setups = 21;      // set-ups timed; the last one is run
  int slices = 10;      // the window is cut into this many equal slices
  bool traced = false;
};

// The CPUs this process may run on, in order.
inline std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

inline void pin_self(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

struct OpRecord {
  std::uint32_t thread;
  std::uint8_t kind;   // OpKind
  std::uint8_t phase;  // hcf::core::Phase returned by execute()
  std::uint64_t seq;   // per-thread index among the window's ops
  std::uint64_t start_ns;  // since the run's epoch
  std::uint64_t end_ns;
};

struct Span {
  std::string name;
  double start_ms;  // since the run's epoch
  double end_ms;
};

struct RunResult {
  std::vector<double> setup_s;            // one per set-up
  std::vector<double> prefill_ns_per_op;  // one per set-up
  std::vector<double> slice_mops;         // throughput of each window slice
  std::vector<LogHistogram> slice_latency;  // untraced: sampled execute() ns
  // traced: execute() ns by [kind * kNumPhases + phase], whole window.
  std::vector<LogHistogram> phase_latency;
  std::vector<std::vector<OpRecord>> records;  // traced: per thread
  std::vector<Span> spans;
  Counters window;  // counter deltas over the window
  std::uint64_t window_ops = 0;
  double window_s = 0.0;
  double drain_ms = 0.0;
  std::uint64_t attempted = 0;  // ops issued, warm-up included
  std::uint64_t failed = 0;
  std::string audit_detail;
};

namespace detail {

// Run state broadcast to the workers, one relaxed load per operation.
inline constexpr std::uint32_t kIdle = 0;
inline constexpr std::uint32_t kWarmup = 1;
inline constexpr std::uint32_t kSlice0 = 2;  // slice k is kSlice0 + k
inline constexpr std::uint32_t kStop = ~std::uint32_t{0};

struct WorkerState {
  alignas(64) std::atomic<std::uint64_t> done{0};  // ops completed
  alignas(64) Tally tally;
  std::vector<LogHistogram> latency;        // untraced, per slice
  std::vector<LogHistogram> phase_latency;  // traced
  std::vector<OpRecord> ring;               // traced
  std::uint64_t recorded = 0;
};

// One set-up: structure, prefill, engine and parked worker threads. The
// destructor stops and joins the threads before the engine and structure
// go away.
template <typename Workload, typename Engine>
struct Rig {
  std::unique_ptr<typename Workload::DS> ds;
  std::unique_ptr<Engine> engine;
  std::atomic<std::uint32_t> state{kIdle};
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> threads;

  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig() { stop(); }

  void stop() {
    state.store(kStop, std::memory_order_release);
    for (auto& t : threads) {
      if (t.joinable()) t.join();
    }
  }
};

template <bool kTraced, typename Workload, typename Engine>
void worker_loop(const Workload& wl, Engine& engine,
                 const std::vector<PackedOp>& stream, WorkerState& ws,
                 const std::atomic<std::uint32_t>& state,
                 std::atomic<std::size_t>& ready, int cpu, std::uint32_t tid,
                 Clock::time_point epoch) {
  if (cpu >= 0) pin_self(cpu);
  typename Workload::Ops ops;
  ready.fetch_add(1, std::memory_order_acq_rel);
  std::uint32_t st;
  while ((st = state.load(std::memory_order_acquire)) == kIdle) {
    std::this_thread::yield();
  }
  const std::size_t mask = stream.size() - 1;
  const std::size_t ring_mask = ws.ring.size() - 1;
  auto untimed = [&](auto& op, OpKind) { engine.execute(op); };
  std::uint64_t i = 0;
  for (; st != kStop; st = state.load(std::memory_order_relaxed)) {
    const PackedOp p = stream[i & mask];
    if (st < kSlice0) {
      wl.apply(untimed, ops, p, ws.tally);
    } else if constexpr (kTraced) {
      wl.apply(
          [&](auto& op, OpKind kind) {
            const auto t0 = Clock::now();
            const hcf::core::Phase phase = engine.execute(op);
            const auto t1 = Clock::now();
            const auto k = static_cast<std::size_t>(kind);
            const auto ph = static_cast<std::size_t>(phase);
            ws.phase_latency[k * hcf::core::kNumPhases + ph].record(
                ns_between(t0, t1));
            ws.ring[ws.recorded & ring_mask] = {
                tid, static_cast<std::uint8_t>(k), static_cast<std::uint8_t>(ph),
                ws.recorded, ns_between(epoch, t0), ns_between(epoch, t1)};
            ++ws.recorded;
          },
          ops, p, ws.tally);
    } else if ((i & (kSamplePeriod - 1)) == 0) {
      wl.apply(
          [&](auto& op, OpKind) {
            const auto t0 = Clock::now();
            engine.execute(op);
            const auto t1 = Clock::now();
            ws.latency[st - kSlice0].record(ns_between(t0, t1));
          },
          ops, p, ws.tally);
    } else {
      wl.apply(untimed, ops, p, ws.tally);
    }
    ++i;
    ws.done.store(i, std::memory_order_relaxed);
  }
}

}  // namespace detail

// Runs `wl` once: cfg.setups timed set-ups (all but the last torn down at
// once), warm-up, the window, the audit and a timed EBR drain. `streams`
// holds one power-of-two-long stream per thread.
template <typename Workload, typename MakeEngine>
RunResult run_workload(const Workload& wl,
                       const std::vector<std::vector<PackedOp>>& streams,
                       const RunConfig& cfg, MakeEngine&& make_engine) {
  using DS = typename Workload::DS;
  using Engine =
      typename decltype(make_engine(std::declval<DS&>()))::element_type;
  using RigT = detail::Rig<Workload, Engine>;

  RunResult r;
  const auto epoch = Clock::now();
  auto ms = [&](Clock::time_point t) { return seconds_between(epoch, t) * 1e3; };

  // Worker t is pinned to the t-th allowed CPU, as the repo's harness does,
  // so thread placement is the same in every run.
  const std::vector<int> cpus = allowed_cpus();
  std::vector<std::unique_ptr<detail::WorkerState>> workers;
  for (std::size_t t = 0; t < cfg.threads; ++t) {
    auto ws = std::make_unique<detail::WorkerState>();
    if (cfg.traced) {
      ws->phase_latency.resize(kNumOpKinds * hcf::core::kNumPhases);
      ws->ring.resize(kTraceRing);
    } else {
      ws->latency.resize(static_cast<std::size_t>(cfg.slices));
      ws->ring.resize(1);
    }
    workers.push_back(std::move(ws));
  }

  std::unique_ptr<RigT> rig;
  Tally prefill;
  for (int s = 0; s < cfg.setups; ++s) {
    rig.reset();
    hcf::mem::EbrDomain::instance().drain();
    prefill = Tally{};
    const auto t0 = Clock::now();
    rig = std::make_unique<RigT>();
    rig->ds = wl.make();
    const auto p0 = Clock::now();
    wl.prefill(*rig->ds, cfg.seed, prefill);
    const auto p1 = Clock::now();
    rig->engine = make_engine(*rig->ds);
    const auto e1 = Clock::now();
    for (std::size_t t = 0; t < cfg.threads; ++t) {
      rig->threads.emplace_back([&, t, raw = rig.get()] {
        auto body = cfg.traced ? &detail::worker_loop<true, Workload, Engine>
                               : &detail::worker_loop<false, Workload, Engine>;
        body(wl, *raw->engine, streams[t], *workers[t], raw->state, raw->ready,
             cpus.empty() ? -1 : cpus[t % cpus.size()],
             static_cast<std::uint32_t>(t), epoch);
      });
    }
    while (rig->ready.load(std::memory_order_acquire) < cfg.threads) {
      std::this_thread::yield();
    }
    const auto t1 = Clock::now();
    r.setup_s.push_back(seconds_between(t0, t1));
    r.prefill_ns_per_op.push_back(
        static_cast<double>(ns_between(p0, p1)) /
        static_cast<double>(prefill.inserted == 0 ? 1 : prefill.inserted));
    if (s + 1 == cfg.setups) {
      r.spans.push_back({"setup.build", ms(t0), ms(p0)});
      r.spans.push_back({"setup.prefill", ms(p0), ms(p1)});
      r.spans.push_back({"setup.engine", ms(p1), ms(e1)});
      r.spans.push_back({"setup.threads", ms(e1), ms(t1)});
    }
  }

  auto ops_done = [&] {
    std::uint64_t sum = 0;
    for (const auto& ws : workers) sum += ws->done.load(std::memory_order_relaxed);
    return sum;
  };

  const auto w0 = Clock::now();
  rig->state.store(detail::kWarmup, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(cfg.warmup_s));

  const Counters base = Counters::capture(*rig->engine);
  const std::uint64_t ops0 = ops_done();
  const auto start = Clock::now();
  rig->state.store(detail::kSlice0, std::memory_order_release);
  r.spans.push_back({"warmup", ms(w0), ms(start)});
  const double slice_s = cfg.window_s / cfg.slices;
  std::uint64_t prev_ops = ops0;
  auto prev_t = start;
  for (int k = 0; k < cfg.slices; ++k) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(slice_s * (k + 1))));
    const std::uint64_t now_ops = ops_done();
    const auto now_t = Clock::now();
    if (k + 1 < cfg.slices) {
      rig->state.store(detail::kSlice0 + static_cast<std::uint32_t>(k + 1),
                       std::memory_order_release);
    }
    r.slice_mops.push_back(static_cast<double>(now_ops - prev_ops) /
                           seconds_between(prev_t, now_t) / 1e6);
    prev_ops = now_ops;
    prev_t = now_t;
  }
  r.window = Counters::capture(*rig->engine).delta_since(base);
  r.window_ops = prev_ops - ops0;
  r.window_s = seconds_between(start, prev_t);
  rig->stop();
  const auto end = Clock::now();
  r.spans.push_back({"window", ms(start), ms(prev_t)});

  Tally total = prefill;
  for (const auto& ws : workers) {
    total.add(ws->tally);
    r.attempted += ws->done.load(std::memory_order_relaxed);
  }
  const Audit audit = wl.audit(*rig->ds, total);
  r.failed = total.errors + audit.failed;
  r.audit_detail = audit.detail;
  if (total.errors != 0) {
    r.audit_detail = std::to_string(total.errors) + " op results wrong" +
                     (audit.detail.empty() ? "" : "; " + audit.detail);
  }
  const auto a1 = Clock::now();
  r.spans.push_back({"teardown.audit", ms(end), ms(a1)});
  hcf::mem::EbrDomain::instance().drain();
  const auto d1 = Clock::now();
  r.drain_ms = seconds_between(a1, d1) * 1e3;
  r.spans.push_back({"teardown.drain", ms(a1), ms(d1)});
  rig.reset();

  if (cfg.traced) {
    r.phase_latency.resize(kNumOpKinds * hcf::core::kNumPhases);
    for (const auto& ws : workers) {
      for (std::size_t i = 0; i < r.phase_latency.size(); ++i) {
        r.phase_latency[i].merge(ws->phase_latency[i]);
      }
      const std::size_t n =
          std::min<std::uint64_t>(ws->recorded, ws->ring.size());
      std::vector<OpRecord> recs;
      recs.reserve(n);
      for (std::uint64_t seq = ws->recorded - n; seq < ws->recorded; ++seq) {
        recs.push_back(ws->ring[seq & (ws->ring.size() - 1)]);
      }
      r.records.push_back(std::move(recs));
    }
  } else {
    r.slice_latency.resize(static_cast<std::size_t>(cfg.slices));
    for (const auto& ws : workers) {
      for (int k = 0; k < cfg.slices; ++k) {
        r.slice_latency[static_cast<std::size_t>(k)].merge(
            ws->latency[static_cast<std::size_t>(k)]);
      }
    }
  }
  return r;
}

}  // namespace perfbench
