// Engine-layer microbenchmarks (google-benchmark): the combiner fast path
// in isolation (DESIGN.md §9). Two families:
//
//   BM_SelectionScanFull/N — the seed's scan shape: walk every one of the
//     kMaxThreads cache-aligned slots, with N of them announced. Cost is
//     proportional to configured capacity.
//   BM_SelectionScan/N     — the occupancy-indexed scan over the same
//     state. Cost is proportional to announced work (N), which is the
//     tentpole claim; the acceptance bar is >=3x at N=2.
//   BM_CombineRound/N      — one combining round over N selected stack
//     operations: key-grouping (group_batch), prefetch, then batched
//     run_multi application with push/pop elimination.
//
// Same machine-readable protocol as micro_substrate (gbench_main.hpp).
#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "gbench_main.hpp"

#include "adapters/stack_ops.hpp"
#include "core/operation.hpp"
#include "core/publication_array.hpp"
#include "ds/stack.hpp"
#include "util/thread_id.hpp"

namespace {

using namespace hcf;

struct NullDs {};
struct NullOp : core::Operation<NullDs> {
  void run_seq(NullDs&) override {}
};

// Parks `n` announcer threads, each occupying its own publication slot for
// the whole benchmark run, so scans see a stable set of n announced ops.
class AnnouncedSlots {
 public:
  AnnouncedSlots(core::PublicationArray<NullDs>& pa, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      ops_.push_back(std::make_unique<NullOp>());
      threads_.emplace_back([this, &pa, i] {
        pa.add(ops_[i].get());
        announced_.fetch_add(1, std::memory_order_release);
        while (!release_.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        pa.remove_strong();
      });
    }
    while (announced_.load(std::memory_order_acquire) !=
           static_cast<int>(n)) {
      std::this_thread::yield();
    }
  }

  ~AnnouncedSlots() {
    release_.store(true, std::memory_order_release);
    for (auto& t : threads_) t.join();
  }

 private:
  std::vector<std::unique_ptr<NullOp>> ops_;
  std::vector<std::thread> threads_;
  std::atomic<int> announced_{0};
  std::atomic<bool> release_{false};
};

// The pre-occupancy scan: visit all kMaxThreads slots unconditionally.
void BM_SelectionScanFull(benchmark::State& state) {
  core::PublicationArray<NullDs> pa;
  AnnouncedSlots slots(pa, static_cast<std::size_t>(state.range(0)));
  pa.selection_lock().lock();
  for (auto _ : state) {
    std::size_t seen = 0;
    for (std::size_t s = 0; s < util::kMaxThreads; ++s) {
      if (pa.peek(s) != nullptr) ++seen;
    }
    benchmark::DoNotOptimize(seen);
  }
  pa.selection_lock().unlock();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SelectionScanFull)->Arg(2)->Arg(8)->Arg(64);

// The occupancy-indexed scan over identical state.
void BM_SelectionScan(benchmark::State& state) {
  core::PublicationArray<NullDs> pa;
  AnnouncedSlots slots(pa, static_cast<std::size_t>(state.range(0)));
  pa.selection_lock().lock();
  for (auto _ : state) {
    std::size_t seen = 0;
    // scan-locked: selection lock acquired before the benchmark loop.
    pa.for_each_announced(
        [&](core::Operation<NullDs>*, std::size_t) { ++seen; });
    benchmark::DoNotOptimize(seen);
  }
  pa.selection_lock().unlock();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SelectionScan)->Arg(2)->Arg(8)->Arg(64);

// One combining round over N already-selected stack operations: grouping,
// prefetch, then batched application (push/pop elimination included).
void BM_CombineRound(benchmark::State& state) {
  using Push = adapters::StackPushOp<std::uint64_t>;
  using Pop = adapters::StackPopOp<std::uint64_t>;
  using Op = core::Operation<ds::Stack<std::uint64_t>>;

  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ds::Stack<std::uint64_t> stack;
  for (std::size_t i = 0; i < 64; ++i) stack.push(i);

  std::vector<std::unique_ptr<Push>> pushes;
  std::vector<std::unique_ptr<Pop>> pops;
  std::vector<Op*> master;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 2 == 0) {
      pushes.push_back(std::make_unique<Push>());
      pushes.back()->set(i);
      master.push_back(pushes.back().get());
    } else {
      pops.push_back(std::make_unique<Pop>());
      master.push_back(pops.back().get());
    }
  }

  std::vector<Op*> batch;
  batch.reserve(util::kMaxThreads);
  for (auto _ : state) {
    batch.assign(master.begin(), master.end());
    if (batch.size() > 1 && batch[0]->combine_keyed()) {
      benchmark::DoNotOptimize(core::group_batch(std::span<Op*>(batch)));
    }
    core::prefetch_batch(std::span<Op* const>(batch));
    std::span<Op*> pending(batch);
    while (!pending.empty()) {
      const std::size_t k = batch[0]->run_multi(stack, pending);
      pending = pending.subspan(k);
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CombineRound)->Arg(2)->Arg(8)->Arg(16);

}  // namespace

int main(int argc, char** argv) {
  return hcf::bench::gbench_main(argc, argv, "micro_engine", "engine");
}
